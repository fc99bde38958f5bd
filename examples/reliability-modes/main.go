// Reliability-modes: the paper's motivating scenario — one die, many
// operating points. The same datapath runs unprotected for maximum
// single-thread performance, or trades throughput for coverage by
// switching on 2-way or 3-way redundant execution, with or without
// majority election.
//
// The table sweeps machine modes against fault rates and reports
// throughput plus whether corrupted state ever committed. Machine
// descriptions are serializable ftsim configs, so any row's exact
// machine could be persisted with cfg.JSON() and replayed elsewhere.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/ftsim"
)

func main() {
	program, err := ftsim.Benchmark("equake")
	if err != nil {
		log.Fatal(err)
	}

	modes := []struct {
		name  string
		model ftsim.Model
	}{
		{"SS-1 (fast, unprotected)", ftsim.ModelSS1},
		{"SS-2 (detect + rewind)", ftsim.ModelSS2},
		{"SS-3 (majority election)", ftsim.ModelSS3},
		{"SS-3 (rewind only)", ftsim.ModelSS3Rewind},
	}
	rates := []float64{0, 1e-5, 1e-3}

	ctx := context.Background()
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Println("One datapath, four reliability operating points (equake)")
	fmt.Fprintln(w, "mode\tfault rate\tIPC\tslowdown\trecoveries\tclean state")
	var base float64
	for _, mode := range modes {
		for _, rate := range rates {
			cfg := mode.model.Config()
			cfg.Fault = ftsim.FaultConfig{Rate: rate, Seed: 11, Targets: ftsim.AllFaultTargets()}
			cfg.Oracle = true
			cfg.MaxInsts, cfg.MaxCycles = 60_000, 20_000_000
			m, err := ftsim.NewFromConfig(cfg)
			if err != nil {
				log.Fatal(err)
			}
			st, err := m.Run(ctx, program)
			if err != nil {
				log.Fatal(err)
			}
			if cfg.R == 1 && rate == 0 {
				base = st.IPC()
			}
			clean := "yes"
			if st.EscapedFaults > 0 {
				clean = fmt.Sprintf("NO (%d escapes)", st.EscapedFaults)
			}
			slow := "-"
			if base > 0 {
				slow = fmt.Sprintf("%.1f%%", 100*(1-st.IPC()/base))
			}
			rateStr := "0"
			if rate > 0 {
				rateStr = fmt.Sprintf("%.0e", rate)
			}
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%s\t%d\t%s\n",
				mode.name, rateStr, st.IPC(), slow, st.FaultRewinds, clean)
		}
	}
	w.Flush()
	fmt.Println()
	fmt.Println("Reading the table: redundancy costs throughput up front, but only the")
	fmt.Println("protected modes keep committed state clean once faults appear; majority")
	fmt.Println("election additionally avoids most rewinds at triple cost.")
}
