// Command ftexp regenerates the paper's tables and figures.
//
// Every simulation-backed experiment is an embarrassingly parallel grid
// of trials; ftexp runs them through ftsim.RunCampaign, sharding trials
// across -parallel workers with per-trial seeds derived from -seed. The
// command-line flags map one to one onto ftsim campaign options. Output
// tables are byte-identical for any -parallel value.
//
//	ftexp                       # the whole evaluation, all cores
//	ftexp -exp fig5 -parallel 1 # one figure, serially
//	ftexp -seed 7 -quiet        # different fault seeds, no progress
//
// Interrupting a run (Ctrl-C) cancels the campaign: dispatch stops and
// in-flight simulations abort mid-pipeline-loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/ftsim"
	"repro/internal/buildinfo"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|fig3|fig4|fig5|fig6|sensitivity|ablate-cosched|ablate-commit|ablate-recovery|all")
	insts := flag.Uint64("insts", 200_000, "committed instructions per simulation")
	bench := flag.String("bench", "fpppp", "benchmark for fig6 / ablate-commit / ablate-recovery")
	parallel := flag.Int("parallel", 0, "campaign worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	seed := flag.Int64("seed", 1, "campaign master seed; per-trial fault seeds derive from it (0 is reserved and maps to 1)")
	quiet := flag.Bool("quiet", false, "suppress per-trial progress on stderr")
	checkpoint := flag.String("checkpoint", "", "directory for per-experiment checkpoint journals; completed trials survive a killed run")
	resume := flag.Bool("resume", false, "resume existing checkpoint journals, re-running only unfinished trials")
	trialTimeout := flag.Duration("trial-timeout", 0, "per-trial deadline (0 = none); timed-out trials fail without aborting the grid when -contain is set")
	contain := flag.Bool("contain", false, "keep a campaign running past trial failures; failed trials are listed in an error manifest")
	metricsDump := flag.Bool("metrics-dump", false, "print campaign-engine metrics (Prometheus text) on stderr at exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "ftexp: -resume requires -checkpoint")
		os.Exit(2)
	}

	if *version {
		buildinfo.Print(os.Stdout, "ftexp")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *seed == 0 {
		*seed = 1 // 0 is reserved (see -seed)
	}
	// Per-trial progress reporting plus a per-experiment summary of how
	// the campaign parallelised, both on stderr so stdout stays clean
	// table output.
	var lastReport *ftsim.CampaignReport
	opt := experiments.Options{
		MaxInsts:      *insts,
		Context:       ctx,
		Report:        func(rep *ftsim.CampaignReport) { lastReport = rep },
		CheckpointDir: *checkpoint,
		Resume:        *resume,
		Campaign: []ftsim.CampaignOption{
			ftsim.WithWorkers(*parallel),
			ftsim.WithCampaignSeed(*seed),
			ftsim.WithTrialTimeout(*trialTimeout),
		},
	}
	if !*contain {
		opt.Campaign = append(opt.Campaign, ftsim.WithFailFast())
	}
	var metricsReg *ftsim.MetricsRegistry
	if *metricsDump {
		metricsReg = ftsim.NewMetricsRegistry()
		opt.Campaign = append(opt.Campaign, ftsim.WithMetricsSink(ftsim.NewCampaignMetrics(metricsReg)))
	}
	if !*quiet {
		opt.Campaign = append(opt.Campaign, ftsim.WithCampaignProgress(func(done, total int, r ftsim.TrialResult) {
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-32s %7.3fs\n", done, total, r.Label, r.Elapsed.Seconds())
		}))
	}

	w := os.Stdout
	run := func(name string) error {
		lastReport = nil
		err := func() error {
			switch name {
			case "table1":
				experiments.PrintTable1(w)
			case "table2":
				rows, err := experiments.Table2(opt)
				if err != nil {
					return err
				}
				experiments.PrintTable2(w, rows)
			case "fig3":
				experiments.PrintCurves(w, "Figure 3: analytic IPC vs fault frequency (rewind = 20 cycles)", experiments.Fig3())
			case "fig4":
				experiments.PrintCurves(w, "Figure 4: analytic IPC vs fault frequency (rewind = 2000 cycles)", experiments.Fig4())
			case "fig5":
				rows, err := experiments.Fig5(opt)
				if err != nil {
					return err
				}
				experiments.PrintFig5(w, rows)
			case "fig6":
				rows, err := experiments.Fig6(*bench, opt)
				if err != nil {
					return err
				}
				experiments.PrintFig6(w, *bench, rows)
			case "sensitivity":
				rows, err := experiments.Sensitivity(opt)
				if err != nil {
					return err
				}
				experiments.PrintSensitivity(w, rows)
			case "ablate-cosched":
				rows, err := experiments.AblateCoSchedule([]string{"gcc", "fpppp", "swim"}, opt)
				if err != nil {
					return err
				}
				experiments.PrintCoSchedule(w, rows)
			case "ablate-recovery":
				rows, err := experiments.AblateRecoveryGrain(*bench, 1000, []int{0, 200, 2000}, opt)
				if err != nil {
					return err
				}
				experiments.PrintRecoveryGrain(w, *bench, 1000, rows)
			case "ablate-commit":
				rows, err := experiments.AblateCommitWidth(*bench, []int{4, 8, 16, 32}, opt)
				if err != nil {
					return err
				}
				experiments.PrintCommitWidth(w, *bench, rows)
			default:
				return fmt.Errorf("unknown experiment %q", name)
			}
			return nil
		}()
		// The error manifest and resume summary come from the campaign
		// report, which arrives via opt.Report even when the experiment
		// itself returns an error (contained trial failures make the
		// result table unrenderable, but the completed trials are safe in
		// the checkpoint journal).
		if lastReport != nil {
			if !*quiet && lastReport.Resumed > 0 {
				fmt.Fprintf(os.Stderr, "%s: resumed %d completed trial(s) from checkpoint\n", name, lastReport.Resumed)
			}
			if fails := lastReport.Failures(); len(fails) > 0 {
				fmt.Fprintf(os.Stderr, "%s: %d trial(s) failed:\n", name, len(fails))
				for _, f := range fails {
					fmt.Fprintf(os.Stderr, "  #%-3d %-32s seed %d: %v\n",
						f.Index, f.Label, f.Seed, f.Err)
				}
			}
		}
		if err != nil {
			return err
		}
		if !*quiet && lastReport != nil && lastReport.TrialSeconds.N() > 0 {
			rep := lastReport
			fmt.Fprintf(os.Stderr, "%s: %d trials on %d workers, wall %.2fs, work %.2fs, speedup %.2fx (trial %s)\n",
				name, rep.TrialSeconds.N(), rep.Workers, rep.Wall.Seconds(),
				rep.TrialSeconds.Sum(), rep.Speedup(), rep.TrialSeconds.String())
		}
		fmt.Fprintln(w)
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "sensitivity", "ablate-cosched", "ablate-commit", "ablate-recovery"}
	}
	total := time.Now()
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "ftexp: %v\n", err)
			os.Exit(1)
		}
	}
	if !*quiet && *exp == "all" {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "full evaluation in %.2fs with -parallel %d\n", time.Since(total).Seconds(), workers)
	}
	if metricsReg != nil {
		fmt.Fprintln(os.Stderr, "# ftexp campaign metrics")
		if err := metricsReg.WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "ftexp: writing metrics: %v\n", err)
		}
	}
}
