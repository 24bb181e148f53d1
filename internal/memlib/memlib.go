// Package memlib models the memory technology libraries that the paper's
// physical-memory-management tools estimate costs with.
//
// The paper used two proprietary sources: a 0.7 µm on-chip SRAM module
// generator with vendor area/power functions, and the Siemens EDO DRAM
// datasheet series for off-chip components. Neither is available, so this
// package substitutes parametric models with the qualitative properties the
// paper's reasoning depends on (and states explicitly):
//
//   - on-chip energy per access grows sub-linearly with memory size, so
//     splitting memories reduces power (§4.6);
//   - every on-chip memory instance pays a fixed area overhead (address
//     decoder, sense amplifiers), so allocating many memories eventually
//     costs area (§4.6, Table 4);
//   - memory width is the maximum of its signals' widths, so mixing
//     bitwidths wastes area and energy (§4.3);
//   - multiport memories are disproportionately expensive (§4.4);
//   - off-chip access energy is an order of magnitude above on-chip, and
//     off-chip devices come in catalog widths only (8/16/32 bit).
//
// All estimates include address decoding and data buffering, but not the
// interconnect, mirroring the paper's stated model scope ("this
// simplification will only affect the absolute cost figures, and not the
// relative comparisons").
package memlib

import (
	"fmt"
	"math"
)

// Kind distinguishes on-chip SRAM from off-chip DRAM.
type Kind int

// Memory kinds.
const (
	OnChip Kind = iota
	OffChip
)

func (k Kind) String() string {
	switch k {
	case OnChip:
		return "on-chip"
	case OffChip:
		return "off-chip"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Memory describes one allocated memory instance.
type Memory struct {
	Name  string
	Kind  Kind
	Words int64
	Bits  int
	Ports int // simultaneous-access ports (1 = single port)
}

// Validate reports whether the memory parameters are in the modeled range.
func (m Memory) Validate() error {
	if m.Words <= 0 {
		return fmt.Errorf("memlib: %s: words %d out of range", m.Name, m.Words)
	}
	if m.Bits <= 0 || m.Bits > 64 {
		return fmt.Errorf("memlib: %s: bits %d out of range [1,64]", m.Name, m.Bits)
	}
	if m.Ports <= 0 || m.Ports > 8 {
		return fmt.Errorf("memlib: %s: ports %d out of range [1,8]", m.Name, m.Ports)
	}
	return nil
}

// SRAMModel is the parametric on-chip module-generator model.
// Area [mm²]: (FixedArea + CellArea·words·bits + PeriphArea·√(words·bits)) ·
// (1 + PortArea·(ports-1)). Energy per access [nJ]:
// (BaseEnergy + EnergySlope·√(words·bits)) · (1 + PortEnergy·(ports-1)).
type SRAMModel struct {
	FixedArea  float64 // mm² per instance (decoder, sense amps, routing ring)
	CellArea   float64 // mm² per bit cell
	PeriphArea float64 // mm² per √bit (wordlines/bitlines)
	PortArea   float64 // relative area increase per extra port

	BaseEnergy  float64 // nJ per access, size-independent part
	EnergySlope float64 // nJ per √bit
	PortEnergy  float64 // relative energy increase per extra port

	StaticPower float64 // mW leakage per instance
	MaxWords    int64   // generator limit; larger arrays must go off-chip
}

// Area returns the macro area in mm².
func (s *SRAMModel) Area(words int64, bits, ports int) float64 {
	size := float64(words) * float64(bits)
	base := s.FixedArea + s.CellArea*size + s.PeriphArea*math.Sqrt(size)
	return base * (1 + s.PortArea*float64(ports-1))
}

// EnergyPerAccess returns nJ per access.
func (s *SRAMModel) EnergyPerAccess(words int64, bits, ports int) float64 {
	size := float64(words) * float64(bits)
	base := s.BaseEnergy + s.EnergySlope*math.Sqrt(size)
	return base * (1 + s.PortEnergy*float64(ports-1))
}

// Power returns mW at the given access rate (accesses per second).
func (s *SRAMModel) Power(words int64, bits, ports int, rate float64) float64 {
	// nJ/access × accesses/s = nW; ×1e-6 = mW.
	return s.EnergyPerAccess(words, bits, ports)*rate*1e-6 + s.StaticPower
}

// DRAMEntry is one row of the off-chip datasheet table.
type DRAMEntry struct {
	Name         string
	Words        int64
	Bits         int
	EnergyAccess float64 // nJ per access (active power folded to energy)
	StaticPower  float64 // mW standby
}

// DRAMModel is a datasheet-style table of available off-chip devices plus
// the interleaving penalty used when more ports are required than a single
// device provides.
type DRAMModel struct {
	Entries []DRAMEntry
	// PortPowerFactor multiplies power per extra port: a P-port off-chip
	// "memory" is realized as interleaved devices with duplicated I/O.
	PortPowerFactor float64
}

// Select returns the cheapest catalog entry that fits words×bits, following
// the datasheet discipline: width is rounded up to a catalog width and
// depth to a catalog depth.
func (d *DRAMModel) Select(words int64, bits int) (DRAMEntry, error) {
	best := -1
	for i, e := range d.Entries {
		if e.Words >= words && e.Bits >= bits {
			if best < 0 || e.EnergyAccess < d.Entries[best].EnergyAccess ||
				(e.EnergyAccess == d.Entries[best].EnergyAccess && e.Words < d.Entries[best].Words) {
				best = i
			}
		}
	}
	if best < 0 {
		return DRAMEntry{}, fmt.Errorf("memlib: no off-chip device fits %d words × %d bits", words, bits)
	}
	return d.Entries[best], nil
}

// Power returns mW for an off-chip memory at the given access rate.
func (d *DRAMModel) Power(words int64, bits, ports int, rate float64) (float64, error) {
	e, err := d.Select(words, bits)
	if err != nil {
		return 0, err
	}
	p := e.EnergyAccess*rate*1e-6 + e.StaticPower
	if ports > 1 {
		p *= 1 + d.PortPowerFactor*float64(ports-1)
	}
	return p, nil
}

// Tech bundles the two technology models and the timing context needed to
// convert access counts into rates.
type Tech struct {
	SRAM SRAMModel
	DRAM DRAMModel
	// FramePeriod is the real-time period [s] over which the profiled
	// access counts are spent. The BTPC constraint (1 Mpixel/s on a
	// 1-Mpixel image) makes this 1 s.
	FramePeriod float64
	// OnChipMaxWords is the allocation threshold: basic groups larger than
	// this must live off-chip. It is the threshold's one home within an
	// exploration: the budget step schedules accesses to larger groups as
	// multi-cycle off-chip accesses and the assignment packs the rest on
	// chip. Zero selects the default 64Ki.
	OnChipMaxWords int64
	// Bus models the interconnect. The paper's estimators exclude it ("the
	// estimation models … don't include area and power cost of the
	// interconnections") but predict its effect: with many memories "the
	// power consumption will also rise again due to the interconnect-
	// related power". The zero value keeps the paper's scope; see
	// WithInterconnect.
	Bus BusModel
}

// BusModel prices the on-chip bus network as a function of how many
// memories hang off it.
type BusModel struct {
	AreaPerMemory float64 // mm² of routing per on-chip memory
	BaseEnergy    float64 // nJ added to every on-chip access
	EnergySlope   float64 // additional nJ per access per extra memory
}

// Enabled reports whether the bus model contributes any cost.
func (b BusModel) Enabled() bool {
	return b.AreaPerMemory != 0 || b.BaseEnergy != 0 || b.EnergySlope != 0
}

// Area returns the bus area for n on-chip memories.
func (b BusModel) Area(n int) float64 { return b.AreaPerMemory * float64(n) }

// Power returns the bus power in mW for n on-chip memories serving the
// given on-chip access rate.
func (b BusModel) Power(n int, rate float64) float64 {
	if n <= 0 {
		return 0
	}
	e := b.BaseEnergy + b.EnergySlope*float64(n-1)
	return e * rate * 1e-6
}

// WithInterconnect returns a copy of the technology with a calibrated bus
// model enabled — the extension that closes the paper's Table 4 loop
// (the power minimum becomes interior instead of asymptotic).
func (t *Tech) WithInterconnect() *Tech {
	c := *t
	c.Bus = BusModel{AreaPerMemory: 0.3, BaseEnergy: 0.05, EnergySlope: 0.3}
	return &c
}

// Default returns the calibrated technology used throughout the
// reproduction. The constants are fixed once, here; no per-experiment
// tuning happens anywhere else.
func Default() *Tech {
	return &Tech{
		SRAM: SRAMModel{
			FixedArea:   0.9,    // mm²: decoder + sense amps per instance
			CellArea:    0.0006, // mm² per bit (0.7 µm 6T cell + pitch)
			PeriphArea:  0.018,  // mm² per √bit
			PortArea:    0.7,    // a 2nd port nearly doubles the cell
			BaseEnergy:  0.1,    // nJ
			EnergySlope: 0.04,   // nJ per √bit (0.7 µm SRAMs: a 5K×8 macro
			// costs ~8 nJ/access, within a factor of a few of EDO DRAM,
			// which is what makes the paper's hierarchy trade-off real)
			PortEnergy:  0.25,
			StaticPower: 0.05, // mW
			MaxWords:    64 * 1024,
		},
		DRAM: DRAMModel{
			Entries: []DRAMEntry{
				{Name: "EDO-256Kx8", Words: 256 * 1024, Bits: 8, EnergyAccess: 16, StaticPower: 4},
				{Name: "EDO-256Kx16", Words: 256 * 1024, Bits: 16, EnergyAccess: 20, StaticPower: 6},
				{Name: "EDO-1Mx8", Words: 1024 * 1024, Bits: 8, EnergyAccess: 19, StaticPower: 5},
				{Name: "EDO-1Mx16", Words: 1024 * 1024, Bits: 16, EnergyAccess: 24, StaticPower: 8},
				{Name: "EDO-4Mx8", Words: 4 * 1024 * 1024, Bits: 8, EnergyAccess: 24, StaticPower: 7},
				{Name: "EDO-4Mx16", Words: 4 * 1024 * 1024, Bits: 16, EnergyAccess: 30, StaticPower: 11},
				{Name: "EDO-16Mx16", Words: 16 * 1024 * 1024, Bits: 16, EnergyAccess: 38, StaticPower: 16},
			},
			PortPowerFactor: 0.9,
		},
		FramePeriod:    1.0,
		OnChipMaxWords: 64 * 1024,
	}
}

// OnChipLimit returns the allocation threshold in words: OnChipMaxWords,
// or the default 64Ki when it is zero.
func (t *Tech) OnChipLimit() int64 {
	if t.OnChipMaxWords == 0 {
		return 64 * 1024
	}
	return t.OnChipMaxWords
}

// Scale returns a copy of the technology with on-chip area and energy
// scaled by the given factors — a crude process shrink (e.g. 0.5, 0.6 for a
// 0.7 µm → 0.5 µm move). The paper argues its conclusions rest only on
// relative comparisons; Scale lets tests validate that claim by re-running
// explorations under perturbed technologies.
func (t *Tech) Scale(areaF, energyF float64) *Tech {
	c := *t
	c.SRAM.FixedArea *= areaF
	c.SRAM.CellArea *= areaF
	c.SRAM.PeriphArea *= areaF
	c.SRAM.BaseEnergy *= energyF
	c.SRAM.EnergySlope *= energyF
	c.SRAM.StaticPower *= energyF
	c.DRAM.Entries = append([]DRAMEntry(nil), t.DRAM.Entries...)
	return &c
}

// Area returns the memory's area in mm². Off-chip devices report zero area
// (the paper reports no off-chip area either: the devices are catalog
// parts, not silicon the designer pays for).
func (t *Tech) Area(m Memory) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	switch m.Kind {
	case OnChip:
		if m.Words > t.SRAM.MaxWords {
			return 0, fmt.Errorf("memlib: %s: %d words exceeds on-chip generator limit %d",
				m.Name, m.Words, t.SRAM.MaxWords)
		}
		return t.SRAM.Area(m.Words, m.Bits, m.Ports), nil
	case OffChip:
		if _, err := t.DRAM.Select(m.Words, m.Bits); err != nil {
			return 0, err
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("memlib: unknown kind %v", m.Kind)
	}
}

// Power returns the memory's power in mW given the number of accesses it
// serves per frame.
func (t *Tech) Power(m Memory, accessesPerFrame uint64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	rate := float64(accessesPerFrame) / t.FramePeriod
	switch m.Kind {
	case OnChip:
		if m.Words > t.SRAM.MaxWords {
			return 0, fmt.Errorf("memlib: %s: %d words exceeds on-chip generator limit %d",
				m.Name, m.Words, t.SRAM.MaxWords)
		}
		return t.SRAM.Power(m.Words, m.Bits, m.Ports, rate), nil
	case OffChip:
		return t.DRAM.Power(m.Words, m.Bits, m.Ports, rate)
	default:
		return 0, fmt.Errorf("memlib: unknown kind %v", m.Kind)
	}
}

// CatalogWidth rounds a signal width up to an off-chip catalog width.
func CatalogWidth(bits int) int {
	switch {
	case bits <= 8:
		return 8
	case bits <= 16:
		return 16
	default:
		return 32
	}
}
