package main

import (
	"strings"
	"testing"
)

func res(name string, allocs float64, metrics map[string]float64) Result {
	return Result{Name: name, Iterations: 1, AllocsOp: allocs, Metrics: metrics}
}

func TestGatePasses(t *testing.T) {
	base := []Result{
		res("BenchmarkCampaign/serial", 2781, map[string]float64{"gridTrials/s": 328}),
		res("BenchmarkPipelineHot/R1/RUU64", 124, map[string]float64{"simCycles/s": 1.2e6}),
	}
	cur := []Result{
		res("BenchmarkCampaign/serial", 2800, map[string]float64{"gridTrials/s": 310}), // within 10%
		res("BenchmarkPipelineHot/R1/RUU64", 124, map[string]float64{"simCycles/s": 1.3e6}),
	}
	regs, skipped, compared := gate(cur, base, 0.10, 0.10)
	if len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}
	if len(skipped) != 0 {
		t.Errorf("unexpected skips: %v", skipped)
	}
	if compared != 4 {
		t.Errorf("compared %d, want 4", compared)
	}
}

func TestGateCatchesAllocRegression(t *testing.T) {
	base := []Result{res("BenchmarkPipelineHot/R1/RUU64", 124, nil)}
	cur := []Result{res("BenchmarkPipelineHot/R1/RUU64", 1500, nil)}
	regs, _, _ := gate(cur, base, 0.10, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Errorf("alloc regression not caught: %v", regs)
	}
}

func TestGateCatchesThroughputRegression(t *testing.T) {
	base := []Result{res("BenchmarkCampaign/serial", 0, map[string]float64{"gridTrials/s": 328})}
	cur := []Result{res("BenchmarkCampaign/serial", 0, map[string]float64{"gridTrials/s": 175})}
	regs, _, _ := gate(cur, base, 0.10, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "gridTrials/s") {
		t.Errorf("throughput regression not caught: %v", regs)
	}
	// A looser threshold admits the same drop.
	regs, _, _ = gate(cur, base, 0.10, 0.60)
	if len(regs) != 0 {
		t.Errorf("60%% threshold should admit a 47%% drop: %v", regs)
	}
}

func TestGateIgnoresNonThroughputMetricsAndNewBenchmarks(t *testing.T) {
	base := []Result{res("BenchmarkFig5/gcc", 0, map[string]float64{"ipc": 2.5})}
	cur := []Result{
		res("BenchmarkFig5/gcc", 0, map[string]float64{"ipc": 0.1}), // paper metric, not perf
		res("BenchmarkBrandNew", 9999, nil),
	}
	regs, skipped, compared := gate(cur, base, 0.10, 0.10)
	if len(regs) != 0 {
		t.Errorf("gated a non-throughput metric or a new benchmark: %v", regs)
	}
	if len(skipped) != 1 || skipped[0] != "BenchmarkBrandNew" {
		t.Errorf("skipped = %v, want [BenchmarkBrandNew]", skipped)
	}
	if compared != 0 {
		t.Errorf("compared %d, want 0", compared)
	}
}

func TestGateAllocSlackForTinyCounts(t *testing.T) {
	// 3 -> 5 allocs is +67% but within the +2 absolute slack; tiny
	// counts must not flap the gate.
	base := []Result{res("BenchmarkX", 3, nil)}
	cur := []Result{res("BenchmarkX", 5, nil)}
	if regs, _, _ := gate(cur, base, 0.10, 0.10); len(regs) != 0 {
		t.Errorf("tiny alloc delta tripped the gate: %v", regs)
	}
	cur = []Result{res("BenchmarkX", 6, nil)}
	if regs, _, _ := gate(cur, base, 0.10, 0.10); len(regs) != 1 {
		t.Errorf("6 allocs vs baseline 3 should trip the gate: %v", regs)
	}
}

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkCampaign/parallel-8   12   196372755 ns/op   170359959 B/op   331577 allocs/op   168.0 gridTrials/s")
	if !ok {
		t.Fatal("parseLine rejected a valid line")
	}
	if r.Name != "BenchmarkCampaign/parallel" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", r.Name)
	}
	if r.AllocsOp != 331577 || r.NsPerOp != 196372755 || r.BytesPerOp != 170359959 {
		t.Errorf("parsed fields wrong: %+v", r)
	}
	if r.Metrics["gridTrials/s"] != 168.0 {
		t.Errorf("custom metric wrong: %+v", r.Metrics)
	}
	if _, ok := parseLine("not a benchmark line"); ok {
		t.Error("parseLine accepted garbage")
	}
}

func TestParseRecordsHost(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 1.00GHz
BenchmarkCampaign/serial-4   	      20	 110804812 ns/op	47176520 B/op	    2795 allocs/op	       297.8 gridTrials/s
PASS
`
	f := &File{}
	results, err := parse(strings.NewReader(out), f)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "BenchmarkCampaign/serial" {
		t.Fatalf("results %+v", results)
	}
	if f.Goos != "linux" || f.Goarch != "amd64" || f.CPU != "Test CPU @ 1.00GHz" || f.Gomaxprocs != 4 {
		t.Errorf("header %+v", f)
	}
	// go test appends no suffix at GOMAXPROCS=1.
	if _, err := parse(strings.NewReader("BenchmarkX   1   5 ns/op\n"), f); err != nil || f.Gomaxprocs != 1 {
		t.Errorf("unsuffixed line: gomaxprocs %d, err %v", f.Gomaxprocs, err)
	}

	same := &File{CPU: f.CPU, Nproc: 2, Gomaxprocs: 1}
	if msg := hostMismatch(same, &File{CPU: f.CPU, Nproc: 2, Gomaxprocs: 1}); msg != "" {
		t.Errorf("same host reported as %q", msg)
	}
	if msg := hostMismatch(&File{CPU: f.CPU}, same); msg != "" {
		t.Errorf("baseline without host fields reported as %q", msg)
	}
	if msg := hostMismatch(same, &File{CPU: f.CPU, Nproc: 8, Gomaxprocs: 8}); !strings.Contains(msg, "nproc 2 vs 8") || !strings.Contains(msg, "gomaxprocs 1 vs 8") {
		t.Errorf("host mismatch reported as %q", msg)
	}
}
