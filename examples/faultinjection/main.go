// Faultinjection: bombard the 2-way redundant machine with transient
// faults and show that (a) every fault with an architectural effect is
// detected at commit, (b) rewind recovery restores a correct state, and
// (c) the committed results stay identical to a fault-free reference —
// while the same fault rate silently corrupts the unprotected baseline.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/ftsim"
)

func main() {
	program, err := ftsim.Benchmark("gcc")
	if err != nil {
		log.Fatal(err)
	}
	const insts = 100_000
	const rate = 2e-4 // one fault per 5000 executed copies: brutal

	// Fault-free functional reference.
	if _, err := program.Reference(insts * 2); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	for _, model := range []ftsim.Model{ftsim.ModelSS1, ftsim.ModelSS2, ftsim.ModelSS3} {
		cfg := model.Config()
		cfg.Fault = ftsim.FaultConfig{Rate: rate, Seed: 7, Targets: ftsim.AllFaultTargets()}
		cfg.Oracle = true
		cfg.MaxInsts, cfg.MaxCycles = insts, insts*200
		m, err := ftsim.NewFromConfig(cfg)
		if err != nil {
			log.Fatal(err)
		}
		st, err := m.Run(ctx, program)
		if err != nil {
			log.Fatal(err)
		}
		clean := "committed state clean"
		if err := ftsim.CheckEscapes(st); err != nil {
			if !errors.Is(err, ftsim.ErrFaultEscape) {
				log.Fatal(err)
			}
			clean = err.Error()
		}
		fmt.Printf("%-8s injected=%-4d detected=%-4d rewinds=%-4d elected=%-4d avg-recovery=%5.1f cyc  IPC=%.3f  %s\n",
			m.Config().Name, st.Fault.Injected, st.FaultsDetected, st.FaultRewinds,
			st.MajorityCommits, st.AvgRecoveryPenalty(), st.IPC(), clean)
	}

	fmt.Println()
	fmt.Println("SS-1 has no detection: its escape audit fails with silent corruption.")
	fmt.Println("SS-2 detects every effective fault and rewinds (tens of cycles each).")
	fmt.Println("SS-3 usually commits by majority election instead of rewinding.")
}
