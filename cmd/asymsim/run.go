package main

import (
	"context"
	"fmt"
	"strings"

	"asymfence"
)

// runOne handles `asymsim run <group>:<app>`: a single (workload, design)
// sweep with the cycle breakdown and the fence-site stall profile. The
// per-design simulations execute as one parallel batch; the printout
// order is fixed by the batch's submission order.
func runOne(ctx context.Context, spec string, cores int, scale float64, horizon int64, cfg asymfence.RunConfig) error {
	group, app, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("workload spec must be <group>:<app>, e.g. cilk:fib (groups: cilk, ustm, stamp)")
	}
	if horizon == 0 {
		horizon = 60_000
	}
	designs := append(asymfence.AllDesigns, asymfence.CFenceDesign)
	jobs := make([]asymfence.SimJob, len(designs))
	for i, d := range designs {
		jobs[i] = asymfence.SimJob{
			Group: group, App: app, Design: d,
			Cores: cores, Scale: scale, Horizon: horizon,
		}
	}
	ms, err := asymfence.RunBatch(ctx, jobs, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s under each design (%d cores):\n\n", spec, cores)
	for i, d := range designs {
		m := ms[i]
		fmt.Printf("%-8s cycles=%-8d txn/Mcyc=%-8.0f busy=%5.1f%%  other=%5.1f%%  fence=%5.1f%%  sf=%d wf=%d recov=%d\n",
			d, m.Cycles, m.Throughput(), 100*m.Busy, 100*m.OtherStall, 100*m.FenceStall,
			m.Agg.SFences, m.Agg.WFences, m.Agg.Recoveries)
		if top := m.Agg.TopFenceSites(3); len(top) > 0 && m.Agg.FenceStallCycles > 0 {
			fmt.Printf("         top fence-stall sites (pc: cycles):")
			for _, site := range top {
				fmt.Printf("  %d: %d", site.PC, site.Cycles)
			}
			fmt.Println()
		}
	}
	fmt.Println("\n(pc values index the workload's disassembly; the fence-site profile")
	fmt.Println(" shows which fence — take/steal, read/write/commit barrier — pays the stall)")
	return nil
}
