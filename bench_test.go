package repro

// One benchmark per table/figure of the paper's evaluation section. The
// custom metrics (IPC, penalty%, ...) are the reproduced quantities; the
// time/op numbers measure the simulator itself.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"testing"

	"repro/ftsim"
	"repro/internal/experiments"
	"repro/internal/funcsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// benchInsts is the committed-instruction budget per simulated run.
const benchInsts = 20_000

// benchMachine builds a machine from cfg with the benchmark run limits.
func benchMachine(b *testing.B, cfg ftsim.Config) *ftsim.Machine {
	b.Helper()
	cfg.MaxInsts, cfg.MaxCycles = benchInsts, benchInsts*200
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchProgram builds one of the Table 2 benchmarks.
func benchProgram(b *testing.B, name string) *ftsim.Program {
	b.Helper()
	p, err := ftsim.Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func runOnce(b *testing.B, m *ftsim.Machine, p *ftsim.Program) *ftsim.Stats {
	b.Helper()
	st, err := m.Run(context.Background(), p)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkTable2Mix regenerates Table 2: the dynamic instruction mix of
// each synthetic benchmark, measured on the functional simulator.
func BenchmarkTable2Mix(b *testing.B) {
	for _, p := range workload.Table2() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			program, err := p.Build(1 << 32)
			if err != nil {
				b.Fatal(err)
			}
			var mix funcsim.Mix
			for i := 0; i < b.N; i++ {
				m := funcsim.New(program)
				if err := m.Run(benchInsts); err != nil && err != funcsim.ErrLimit {
					b.Fatal(err)
				}
				mix = m.Mix()
			}
			b.ReportMetric(mix.MemPct, "mem%")
			b.ReportMetric(mix.IntPct, "int%")
			b.ReportMetric(mix.FAdd+mix.FMul+mix.FDiv, "fp%")
		})
	}
}

// BenchmarkFig3Model and BenchmarkFig4Model regenerate the analytic
// curves of Figures 3 and 4 (IPC vs fault frequency, rewind penalty 20
// and 2000 cycles).
func BenchmarkFig3Model(b *testing.B) { benchAnalytic(b, 20) }
func BenchmarkFig4Model(b *testing.B) { benchAnalytic(b, 2000) }

func benchAnalytic(b *testing.B, rw float64) {
	freqs := model.LogSpace(1e-8, 1e-1, 64)
	var last float64
	for i := 0; i < b.N; i++ {
		for _, r := range []int{2, 3} {
			pts := model.Curve(model.CurveConfig{IPC1: 1, B: 1, R: r, Rewind: rw}, freqs)
			last = pts[len(pts)-1].IPC
		}
		pts := model.Curve(model.CurveConfig{IPC1: 1, B: 1, R: 3, Majority: true, Rewind: rw}, freqs)
		last += pts[0].IPC
	}
	b.ReportMetric(last, "ipc-at-extremes")
}

// BenchmarkFig5SteadyState regenerates Figure 5: steady-state IPC of
// SS-1, Static-2 and SS-2 for each of the 11 benchmarks. The reported
// "ipc" metric is the reproduced bar height.
func BenchmarkFig5SteadyState(b *testing.B) {
	models := []struct {
		name  string
		model ftsim.Model
	}{
		{"SS-1", ftsim.ModelSS1},
		{"Static-2", ftsim.ModelStatic2},
		{"SS-2", ftsim.ModelSS2},
	}
	for _, name := range ftsim.Benchmarks() {
		for _, mo := range models {
			b.Run(name+"/"+mo.name, func(b *testing.B) {
				p := benchProgram(b, name)
				m := benchMachine(b, mo.model.Config())
				b.ResetTimer()
				var ipc float64
				for i := 0; i < b.N; i++ {
					ipc = runOnce(b, m, p).IPC()
				}
				b.ReportMetric(ipc, "ipc")
			})
		}
	}
}

// BenchmarkFig6FaultSweep regenerates Figure 6: simulated IPC of the R=2
// and R=3-majority designs under increasing fault frequency (fpppp).
func BenchmarkFig6FaultSweep(b *testing.B) {
	rates := []float64{0, 100, 1000, 10_000, 50_000} // faults per M copies
	for _, rate := range rates {
		for _, mk := range []struct {
			name  string
			model ftsim.Model
		}{{"R2", ftsim.ModelSS2}, {"R3maj", ftsim.ModelSS3}} {
			b.Run(fmt.Sprintf("%s/faultsPerM=%.0f", mk.name, rate), func(b *testing.B) {
				p := benchProgram(b, "fpppp")
				cfg := mk.model.Config()
				cfg.Fault = ftsim.FaultConfig{Rate: rate / 1e6, Seed: 9, Targets: ftsim.AllFaultTargets()}
				m := benchMachine(b, cfg)
				b.ResetTimer()
				var ipc, rewinds float64
				for i := 0; i < b.N; i++ {
					st := runOnce(b, m, p)
					ipc = st.IPC()
					rewinds = float64(st.FaultRewinds)
				}
				b.ReportMetric(ipc, "ipc")
				b.ReportMetric(rewinds, "rewinds")
			})
		}
	}
}

// BenchmarkSensitivity regenerates the Section 5.2 resource-sensitivity
// observations for three representative benchmarks: an FU-limited one
// (fpppp), an ILP-limited one (go) and the divide-bound ammp.
func BenchmarkSensitivity(b *testing.B) {
	for _, name := range []string{"fpppp", "go", "ammp"} {
		b.Run(name, func(b *testing.B) {
			p := benchProgram(b, name)
			ss1 := benchMachine(b, ftsim.ModelSS1.Config())
			cfg := ftsim.ModelSS1.Config()
			c := &cfg.Pipeline
			c.IntALU *= 2
			c.IntMult *= 2
			c.FPAdd *= 2
			c.FPMult *= 2
			c.MemPorts *= 2
			doubled := benchMachine(b, cfg)
			b.ResetTimer()
			var base, fu2 float64
			for i := 0; i < b.N; i++ {
				base = runOnce(b, ss1, p).IPC()
				fu2 = runOnce(b, doubled, p).IPC()
			}
			b.ReportMetric(base, "ipc-base")
			b.ReportMetric(100*(fu2/base-1), "fu2x-gain%")
		})
	}
}

// BenchmarkAblateCoSchedule measures the Section 3.5 co-scheduling
// option's throughput effect on SS-2.
func BenchmarkAblateCoSchedule(b *testing.B) {
	for _, cosched := range []bool{false, true} {
		b.Run(fmt.Sprintf("cosched=%v", cosched), func(b *testing.B) {
			p := benchProgram(b, "gcc")
			cfg := ftsim.ModelSS2.Config()
			cfg.CoSchedule = cosched
			m := benchMachine(b, cfg)
			b.ResetTimer()
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = runOnce(b, m, p).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblateCommitWidth measures the commit-bandwidth tax of
// replication (Section 3.2) as the provisioned width varies.
func BenchmarkAblateCommitWidth(b *testing.B) {
	for _, w := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			p := benchProgram(b, "gcc")
			withWidth := func(cfg ftsim.Config) ftsim.Config {
				cfg.Pipeline.CommitWidth = w
				return cfg
			}
			ss1 := benchMachine(b, withWidth(ftsim.ModelSS1.Config()))
			ss2 := benchMachine(b, withWidth(ftsim.ModelSS2.Config()))
			b.ResetTimer()
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = runOnce(b, ss2, p).IPC() / runOnce(b, ss1, p).IPC()
			}
			b.ReportMetric(ratio, "ss2/ss1")
		})
	}
}

// BenchmarkCampaign measures the evaluation-campaign engine on the
// Figure 5 grid (11 benchmarks x 3 machine models): the same spec run
// with one worker versus GOMAXPROCS workers. The reported
// "gridTrials/s" metric is the campaign throughput; on a multi-core
// host the parallel case scales with the core count while producing
// identical rows. The metrics sink is attached, so the recorded
// trajectory numbers carry the cost of a fully instrumented engine —
// the configuration the daemon actually runs.
func BenchmarkCampaign(b *testing.B) {
	// The parallel case is named without the worker count so recorded
	// trajectories stay comparable across hosts (the bench-diff gate
	// matches benchmarks by name).
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			opt := experiments.Options{MaxInsts: 4_000, Campaign: []ftsim.CampaignOption{
				ftsim.WithWorkers(c.workers),
				ftsim.WithMetricsSink(ftsim.NewCampaignMetrics(ftsim.NewMetricsRegistry())),
			}}
			trials := 0
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig5(opt)
				if err != nil {
					b.Fatal(err)
				}
				trials += 3 * len(rows)
			}
			b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "gridTrials/s")
		})
	}
}

// BenchmarkPipelineHot measures the scheduler's inner loop in isolation:
// one pipeline simulated end to end, across the redundancy degrees and
// window sizes that stress the issue/wakeup/writeback machinery. The
// "simCycles/s" metric is the one a scheduling regression moves; it is
// independent of campaign-engine overhead.
func BenchmarkPipelineHot(b *testing.B) {
	p := benchProgram(b, "gcc")
	cases := []struct {
		name  string
		model ftsim.Model
		ruu   int
	}{
		{"R1/RUU64", ftsim.ModelSS1, 64},
		{"R1/RUU256", ftsim.ModelSS1, 256},
		{"R3/RUU64", ftsim.ModelSS3, 64},
		{"R3/RUU256", ftsim.ModelSS3, 256},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.model.Config()
			cfg.Pipeline.RUUSize = c.ruu
			cfg.Pipeline.LSQSize = c.ruu / 2
			m := benchMachine(b, cfg)
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles += runOnce(b, m, p).Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simCycles/s")
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// instructions per second of wall time (not a paper artifact, but the
// number that bounds experiment turnaround).
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := benchProgram(b, "bzip")
	m := benchMachine(b, ftsim.ModelSS1.Config())
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		total += runOnce(b, m, p).Committed
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "simInsts/s")
}
