// Package dtse is the public facade of the reproduction of "Global
// Multimedia System Design Exploration using Accurate Memory Organization
// Feedback" (Vandecappelle, Miranda, Brockmeyer, Catthoor, Verkest — DAC
// 1999): the IMEC Data Transfer and Storage Exploration (DTSE) feedback
// methodology, its physical-memory-management substrate, and the BTPC image
// coder demonstrator.
//
// # For your own application
//
// Describe the pruned application with a SpecBuilder (basic groups, loop
// bodies, accesses with dependences and profiled counts), then run the
// physical memory management stage:
//
//	b := dtse.NewSpec("myapp")
//	b.Group("frame", 640*480, 8)
//	b.Loop("body", 640*480)
//	r := b.Read("frame", 1)
//	b.Write("frame", 1, r)
//	s := b.MustBuild()
//	v, err := dtse.Explore(s, 20*640*480, dtse.DefaultParams())
//	// v.Cost has the on-chip area / on-chip power / off-chip power triple.
//
// Custom memory hierarchies are planned through NewReuseStream,
// PlanHierarchy and ApplyHierarchy, and ReduceMACP rebalances accumulation
// chains whose critical path overruns the cycle budget; profiling support
// lives in NewRecorder and the instrumented arrays.
//
// # Reproducing the paper
//
// ReproduceBTPC runs the complete stepwise methodology on the profiled BTPC
// demonstrator and returns every explored alternative plus the regenerated
// tables and figures (see also cmd/dtse).
//
// # Serving
//
// NewServer wraps one exploration session (shared evaluation cache, shared
// worker pool, shared telemetry) in an HTTP API with request deduplication,
// bounded admission, per-request deadlines, and graceful draining — see
// Server, ServeOptions, and the cmd/dtsed daemon.
package dtse

import (
	"context"
	"io"

	"repro/internal/assign"
	"repro/internal/btpc"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/looptrafo"
	"repro/internal/memlib"
	"repro/internal/reuse"
	"repro/internal/sbd"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Specification model.
type (
	// Spec is a pruned application specification (§4.1 of the paper).
	Spec = spec.Spec
	// SpecBuilder assembles a Spec.
	SpecBuilder = spec.Builder
	// BasicGroup is an atomic unit of storage and assignment.
	BasicGroup = spec.BasicGroup
	// Access is one memory access site in a loop body.
	Access = spec.Access
	// Loop is one flattened loop body.
	Loop = spec.Loop
)

// Physical memory management.
type (
	// Tech bundles the on-chip and off-chip technology models.
	Tech = memlib.Tech
	// Memory is one allocated memory instance.
	Memory = memlib.Memory
	// Cost is the on-chip-area / on-chip-power / off-chip-power triple.
	Cost = assign.Cost
	// Assignment is a complete memory organization.
	Assignment = assign.Assignment
	// Distribution is a storage-cycle-budget distribution result.
	Distribution = sbd.Distribution
	// Pattern is one parallel-access conflict pattern.
	Pattern = sbd.Pattern
)

// Exploration driver.
type (
	// EvalParams bundles tool parameters for one exploration session.
	EvalParams = core.EvalParams
	// Variant is one evaluated design alternative.
	Variant = core.Variant
	// Results is the full output of the BTPC methodology run.
	Results = core.Results
	// DemoConfig configures the BTPC demonstrator.
	DemoConfig = core.DemoConfig
)

// Profiling and reuse analysis.
type (
	// Recorder counts memory accesses per array and scope.
	Recorder = trace.Recorder
	// ReuseProfile is the LRU reuse-distance histogram of a read trace.
	ReuseProfile = reuse.Profile
	// ReuseStream analyzes a read-address trace while it is recorded: pass
	// it to Recorder.StreamAddressTrace before creating the traced array,
	// call Recorder.CloseAddressTrace after the last read, then Profile.
	ReuseStream = reuse.Stream
	// Layer is one candidate copy layer of a memory hierarchy.
	Layer = reuse.Layer
	// Hierarchy is a planned memory hierarchy for one array.
	Hierarchy = reuse.Hierarchy
)

// Image substrate and demonstrator codec.
type (
	// Image is an 8-bit grayscale image.
	Image = img.Gray
	// CodecParams configures the BTPC coder.
	CodecParams = btpc.Params
	// CodecStats summarizes one BTPC encode.
	CodecStats = btpc.Stats
)

// NewSpec starts a pruned-specification builder.
func NewSpec(name string) *SpecBuilder { return spec.NewBuilder(name) }

// NewRecorder returns an access-count recorder for profiling.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// DefaultParams returns the calibrated tool parameters.
func DefaultParams() EvalParams { return core.DefaultEvalParams() }

// Explore runs the physical memory management stage (storage cycle budget
// distribution, then memory allocation and assignment) on any pruned
// specification, returning the evaluated organization with its accurate
// cost feedback.
func Explore(s *Spec, cycleBudget uint64, ep EvalParams) (*Variant, error) {
	return core.EvaluateContext(context.Background(), s, cycleBudget, s.Name, ep)
}

// NewReuseStream starts the LRU reuse analysis of one traced array's read
// addresses, exact up to depth words: the largest layer the caller will
// plan, which must be positive. When ctx expires mid-trace, the profile is
// that of the prefix analyzed so far.
func NewReuseStream(ctx context.Context, depth int) *ReuseStream {
	return reuse.NewStream(ctx, nil, depth)
}

// PlanHierarchy derives a memory hierarchy (with trace-driven miss ratios)
// for the array from candidate copy layers, innermost first. A layer larger
// than the profile's depth is an error.
func PlanHierarchy(array string, layers []Layer, prof *ReuseProfile) (*Hierarchy, error) {
	return reuse.Plan(array, layers, prof, nil)
}

// ApplyHierarchy rewrites a specification for the hierarchy (§4.4).
func ApplyHierarchy(s *Spec, h *Hierarchy, bits int) (*Spec, error) {
	return reuse.Apply(s, h, bits)
}

// ReproduceBTPC runs the paper's complete stepwise feedback methodology on
// the BTPC demonstrator: profile, prune, structure (Table 1), hierarchy
// (Table 2, Figure 3), cycle budget (Table 3), allocation (Table 4).
func ReproduceBTPC(cfg DemoConfig) (*Results, error) {
	return core.RunAll(cfg, core.DefaultEvalParams())
}

// EncodeBTPC compresses an image with the demonstrator coder, optionally
// profiling memory accesses into rec.
func EncodeBTPC(src *Image, p CodecParams, rec *Recorder) ([]byte, *CodecStats, error) {
	return btpc.Encode(src, p, rec)
}

// DecodeBTPC reconstructs an image from an EncodeBTPC stream.
func DecodeBTPC(data []byte, rec *Recorder) (*Image, error) {
	return btpc.Decode(data, rec)
}

// SyntheticImage builds a deterministic test image with the structures the
// BTPC predictor distinguishes.
func SyntheticImage(w, h int, seed uint64) *Image { return img.Synthetic(w, h, seed) }

// --- Loop and data-flow transformations (§4.2) ---

// ReduceMACP applies chain rebalancing until the unit MACP fits the target
// (the paper's §4.2 escape hatch when the constraint is violated).
func ReduceMACP(s *Spec, target uint64) (*Spec, []string, error) {
	return looptrafo.ReduceMACP(s, target)
}

// --- Specification persistence ---

// WriteSpecJSON serializes a specification (indented JSON).
func WriteSpecJSON(s *Spec, w io.Writer) error { return s.WriteJSON(w) }

// --- Workload generators ---

// WorkloadContext is the real-time setting of a generated workload.
type WorkloadContext = workloads.Context
