// ATM network application: the DTSE papers' other classic domain (the
// methodology was extended "to the network component (e.g. ATM) application
// domain", citing Slock et al.'s ATM exploration). This example builds a
// pruned specification of a shared-buffer ATM switch — cell FIFOs, a
// routing table, per-VC accounting — and uses the memory organization
// feedback to compare two buffer organizations and to sweep the cycle
// budget.
//
//	go run ./examples/atm
package main

import (
	"fmt"
	"log"

	dtse "repro"
	"repro/internal/workloads"
)

// buildSwitch builds the 16-port switch spec and returns it with its
// real-time context.
func buildSwitch(name string, sharedBuffer bool) (*dtse.Spec, dtse.WorkloadContext) {
	s, ctx, err := workloads.ATMSwitch(name, sharedBuffer)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return s, ctx
}

func main() {
	partitioned, wctx := buildSwitch("partitioned", false)
	ep := dtse.DefaultParams()
	// Cell buffers are large SRAM pools: allow them on chip.
	tech := *ep.Tech
	tech.OnChipMaxWords = wctx.OnChipMaxWords
	tech.SRAM.MaxWords = wctx.OnChipMaxWords
	tech.FramePeriod = wctx.FramePeriod
	ep.Tech = &tech
	ep.OnChipCount = 4
	budget := wctx.CycleBudget

	fmt.Println("ATM shared-buffer switch: memory organization feedback")
	for _, cfg := range []struct {
		label  string
		shared bool
	}{
		{"one shared 128K cell pool", true},
		{"four partitioned 32K pools", false},
	} {
		s, _ := buildSwitch(cfg.label, cfg.shared)
		v, err := dtse.Explore(s, budget, ep)
		if err != nil {
			log.Fatalf("%s: %v", cfg.label, err)
		}
		fmt.Printf("\n%-28s area %7.1f mm²  on-chip %7.1f mW  off-chip %5.1f mW  spare cycles %d\n",
			cfg.label, v.Cost.OnChipArea, v.Cost.OnChipPower, v.Cost.OffChipPower,
			v.Dist.ExtraCycles())
		for _, bind := range v.Asgn.OnChip {
			fmt.Printf("   %-6s %7d x %2d bit %d-port: %v\n",
				bind.Mem.Name, bind.Mem.Words, bind.Mem.Bits, bind.Mem.Ports, bind.Groups)
		}
	}

	// Budget sweep on the partitioned variant: the cost of going faster.
	// When the budget drops below the memory access critical path, the
	// paper's §4.2 step kicks in: loop/data-flow transformations (here:
	// rebalancing the payload accumulation chains) shorten the MACP, and
	// the exploration continues.
	fmt.Println("\ncycle budget sweep (partitioned pools):")
	s := partitioned
	for _, frac := range []float64{1.0, 0.9, 0.8, 0.7, 0.6} {
		bgt := uint64(float64(budget) * frac)
		cand := s
		note := ""
		v, err := dtse.Explore(cand, bgt, ep)
		if err != nil {
			transformed, tlog, terr := dtse.ReduceMACP(s, bgt)
			if terr != nil {
				fmt.Printf("  %3.0f%% budget: infeasible even after transformations (%v)\n",
					100*frac, terr)
				continue
			}
			cand = transformed
			note = fmt.Sprintf("  [after %d loop transformations]", len(tlog))
			v, err = dtse.Explore(cand, bgt, ep)
			if err != nil {
				fmt.Printf("  %3.0f%% budget: infeasible (%v)\n", 100*frac, err)
				continue
			}
		}
		fmt.Printf("  %3.0f%% budget: area %7.1f mm², power %7.1f mW%s\n",
			100*frac, v.Cost.OnChipArea, v.Cost.TotalPower(), note)
	}
}
