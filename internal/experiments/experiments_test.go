package experiments

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/ftsim"
)

// testOpt keeps simulation budgets small enough for the test suite while
// still past the warm-up transient.
var testOpt = Options{MaxInsts: 25_000}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 33-point Figure 5 grid; skipped in -short")
	}
	rows, err := Fig5(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	byName := map[string]Fig5Row{}
	for _, r := range rows {
		byName[r.Bench] = r
		// The paper's global claims: SS-2 always loses to SS-1, and the
		// penalty stays within (roughly) the 2%-45% band.
		if r.SS2 >= r.SS1 {
			t.Errorf("%s: SS-2 IPC %.3f >= SS-1 %.3f", r.Bench, r.SS2, r.SS1)
		}
		if r.Penalty < 0.0 || r.Penalty > 0.55 {
			t.Errorf("%s: penalty %.1f%% outside the plausible band", r.Bench, 100*r.Penalty)
		}
		// Section 4's bound: the redundant machine keeps at least about
		// half the baseline throughput.
		if r.SS2 < r.SS1/2*0.85 {
			t.Errorf("%s: SS-2 %.3f below IPC1/2 bound %.3f", r.Bench, r.SS2, r.SS1/2)
		}
	}
	// "ammp, go and vpr suffer less IPC penalty in SS-2 than the rest."
	mean := MeanPenalty(rows)
	for _, name := range []string{"ammp", "go", "vpr"} {
		if byName[name].Penalty >= mean {
			t.Errorf("%s penalty %.1f%% not below the mean %.1f%%",
				name, 100*byName[name].Penalty, 100*mean)
		}
	}
	// ammp is the extreme case (divisions in its critical path).
	for _, r := range rows {
		if r.Bench != "ammp" && r.Penalty < byName["ammp"].Penalty {
			t.Errorf("%s penalty %.1f%% below ammp's %.1f%%",
				r.Bench, 100*r.Penalty, 100*byName["ammp"].Penalty)
		}
	}
	// "For fpppp, swim, and art Static-2 outperforms SS-2 due to the
	// extra FP Mult/Div unit" — allow swim a little noise, require the
	// clear cases.
	for _, name := range []string{"fpppp", "art"} {
		if byName[name].Static2 <= byName[name].SS2 {
			t.Errorf("%s: Static-2 %.3f not above SS-2 %.3f",
				name, byName[name].Static2, byName[name].SS2)
		}
	}
	// Mean penalty in the paper's ballpark (30%-ish).
	if mean < 0.15 || mean > 0.45 {
		t.Errorf("mean penalty %.1f%% far from the paper's ~30%%", 100*mean)
	}
}

func TestTable2Measured(t *testing.T) {
	rows, err := Table2(Options{MaxInsts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Measured.MemPct-r.Profile.MemPct) > 3.5 {
			t.Errorf("%s: mem %.2f%% vs target %.2f%%", r.Bench, r.Measured.MemPct, r.Profile.MemPct)
		}
		if math.Abs(r.Measured.IntPct-r.Profile.IntPct) > 3.5 {
			t.Errorf("%s: int %.2f%% vs target %.2f%%", r.Bench, r.Measured.IntPct, r.Profile.IntPct)
		}
	}
}

func TestFig3Fig4Curves(t *testing.T) {
	c3, c4 := Fig3(), Fig4()
	if c3.Rewind != 20 || c4.Rewind != 2000 {
		t.Fatalf("rewind penalties: %g, %g", c3.Rewind, c4.Rewind)
	}
	// Plateaus at 1/2 and 1/3 of the normalised bottleneck.
	if math.Abs(c3.R2[0].IPC-0.5) > 1e-3 || math.Abs(c3.R3[0].IPC-1.0/3) > 1e-3 {
		t.Errorf("figure 3 plateaus: %g, %g", c3.R2[0].IPC, c3.R3[0].IPC)
	}
	// Figure 4's knee sits ~2 decades below Figure 3's: at f=1e-4 the
	// rw=2000 curve has visibly dropped while rw=20 has not.
	idx := indexOfFreq(c3.Freqs, 1e-4)
	if c3.R2[idx].IPC < 0.5*0.93 {
		t.Errorf("figure 3 R2 dropped too early: %g", c3.R2[idx].IPC)
	}
	if c4.R2[idx].IPC > 0.5*0.93 {
		t.Errorf("figure 4 R2 did not drop at f=1e-4: %g", c4.R2[idx].IPC)
	}
	// Majority curve dominates plain R=3 everywhere.
	for i := range c3.Freqs {
		if c3.R3Maj[i].IPC < c3.R3[i].IPC-1e-9 {
			t.Fatalf("majority below plain R=3 at f=%g", c3.Freqs[i])
		}
	}
}

func indexOfFreq(freqs []float64, f float64) int {
	best, dist := 0, math.Inf(1)
	for i, v := range freqs {
		if d := math.Abs(math.Log10(v) - math.Log10(f)); d < dist {
			best, dist = i, d
		}
	}
	return best
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault-frequency sweep; skipped in -short (TestCampaignDeterminism covers the fig6 path)")
	}
	rows, err := Fig6("fpppp", Options{MaxInsts: 20_000, Campaign: []ftsim.CampaignOption{ftsim.WithCampaignSeed(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Fault-free: R=2 beats R=3 (paper: "IPC of the R=3 design is
	// lower").
	if first.R2IPC <= first.R3IPC {
		t.Errorf("fault-free: R2 %.3f <= R3 %.3f", first.R2IPC, first.R3IPC)
	}
	// R=2 drops sharply at the top of the sweep.
	if last.R2IPC > 0.7*first.R2IPC {
		t.Errorf("R2 did not degrade: %.3f -> %.3f", first.R2IPC, last.R2IPC)
	}
	// The R=3 majority design holds its IPC longer (relative loss at the
	// midpoint of the sweep is smaller than R=2's).
	mid := rows[len(rows)/2+1]
	r2loss := 1 - mid.R2IPC/first.R2IPC
	r3loss := 1 - mid.R3IPC/first.R3IPC
	if r3loss >= r2loss {
		t.Errorf("majority lost more at midpoint: R3 %.2f%% vs R2 %.2f%%", 100*r3loss, 100*r2loss)
	}
	// "IPC of the more efficient R=2 design eventually drops below the
	// R=3 design" — the crossover exists at some high frequency.
	crossed := false
	for _, r := range rows[1:] {
		if r.R3IPC > r.R2IPC {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("no R=2/R=3 crossover in the sweep")
	}
	// Majority election is actually electing.
	if mid.R3Majority == 0 {
		t.Error("no majority commits at mid sweep")
	}
	// Recovery penalty is tens of cycles, not thousands (fine-grain
	// rewind, the paper's central recovery claim).
	if last.R2Recovery <= 2 || last.R2Recovery > 100 {
		t.Errorf("R2 recovery penalty %.1f cycles", last.R2Recovery)
	}
}

func TestSensitivityClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("77-point sensitivity grid; skipped in -short")
	}
	rows, err := Sensitivity(Options{MaxInsts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SensRow{}
	for _, r := range rows {
		byName[r.Bench] = r
		// More resources never hurt much (allowing small scheduling
		// noise).
		if r.FU2x < r.Base*0.97 || r.RUU2x < r.Base*0.97 {
			t.Errorf("%s: scaling resources reduced IPC (%.3f -> FU %.3f, RUU %.3f)",
				r.Bench, r.Base, r.FU2x, r.RUU2x)
		}
		// Fewer resources never help much.
		if r.FUHalf > r.Base*1.03 || r.RUUHalf > r.Base*1.03 {
			t.Errorf("%s: halving resources raised IPC", r.Bench)
		}
	}
	// Section 5.2's named cases.
	for _, name := range []string{"go", "vpr", "ammp"} {
		if byName[name].Limiter != LimitILP {
			t.Errorf("%s classified %s, want ILP-limited (gains FU %.1f%% RUU %.1f%%)",
				name, byName[name].Limiter, 100*byName[name].FUGain, 100*byName[name].RUUGain)
		}
	}
	for _, name := range []string{"gcc", "vortex", "fpppp"} {
		if byName[name].Limiter != LimitFU {
			t.Errorf("%s classified %s, want FU-limited (gains FU %.1f%% RUU %.1f%%)",
				name, byName[name].Limiter, 100*byName[name].FUGain, 100*byName[name].RUUGain)
		}
	}
}

func TestAblations(t *testing.T) {
	cs, err := AblateCoSchedule([]string{"gcc"}, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].IPCBase <= 0 || cs[0].IPCCoSched <= 0 {
		t.Fatalf("cosched rows: %+v", cs)
	}
	// Co-scheduling restricts the scheduler; it must not dramatically
	// change throughput either way.
	ratio := cs[0].IPCCoSched / cs[0].IPCBase
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("co-scheduling changed IPC by %.1f%%", 100*(ratio-1))
	}

	cw, err := AblateCommitWidth("gcc", []int{4, 8, 16}, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 3 {
		t.Fatalf("commit width rows: %d", len(cw))
	}
	// Wider commit never hurts.
	for i := 1; i < len(cw); i++ {
		if cw[i].IPC2 < cw[i-1].IPC2*0.97 {
			t.Errorf("SS-2 IPC fell when widening commit: %+v", cw)
		}
	}

	checkUnknownBenchmark(t, "ablate-cosched", func(opt Options) error {
		_, err := AblateCoSchedule([]string{"nope"}, opt)
		return err
	})
	checkUnknownBenchmark(t, "ablate-commit", func(opt Options) error {
		_, err := AblateCommitWidth("nope", []int{8}, opt)
		return err
	})
	checkUnknownBenchmark(t, "fig6", func(opt Options) error {
		_, err := Fig6("nope", opt)
		return err
	})
}

// checkUnknownBenchmark asserts that run rejects the benchmark name
// "nope" with ftsim.ErrUnknownBenchmark before it opens a checkpoint
// journal.
func checkUnknownBenchmark(t *testing.T, what string, run func(Options) error) {
	t.Helper()
	opt := testOpt
	opt.CheckpointDir = t.TempDir()
	if err := run(opt); !errors.Is(err, ftsim.ErrUnknownBenchmark) {
		t.Errorf("%s: unknown benchmark gave %v, want ErrUnknownBenchmark", what, err)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(opt.CheckpointDir, "*.ckpt")); len(ckpts) > 0 {
		t.Errorf("%s: unknown benchmark left journals %v", what, ckpts)
	}
}

func TestPrinters(t *testing.T) {
	var sb strings.Builder
	PrintTable1(&sb)
	if !strings.Contains(sb.String(), "RUU / LSQ size") {
		t.Error("table 1 output missing parameters")
	}
	sb.Reset()
	PrintCurves(&sb, "fig3", Fig3())
	if !strings.Contains(sb.String(), "IPC R=3 majority") {
		t.Error("curves output missing header")
	}

	rows, err := Table2(Options{MaxInsts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "gcc") {
		t.Error("table 2 output missing benchmarks")
	}
}

// TestRecoveryGrainAblation: at a fault rate near the knee, fine-grain
// rewind keeps most of the error-free throughput while checkpoint-style
// penalties (the paper's Figure 4 scenario) destroy it.
func TestRecoveryGrainAblation(t *testing.T) {
	rows, err := AblateRecoveryGrain("fpppp", 1000, []int{0, 2000}, Options{MaxInsts: 25_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fine, coarse := rows[0], rows[1]
	if fine.Rewinds == 0 {
		t.Skip("no recoveries at this budget")
	}
	if coarse.IPC >= fine.IPC*0.7 {
		t.Errorf("coarse recovery too cheap: fine %.3f vs coarse %.3f", fine.IPC, coarse.IPC)
	}
	if fine.AvgPenalty > 100 {
		t.Errorf("fine-grain recovery cost %.1f cycles, expected tens", fine.AvgPenalty)
	}
	if coarse.AvgPenalty < 1500 {
		t.Errorf("coarse recovery cost %.1f cycles, expected ~2000", coarse.AvgPenalty)
	}
	checkUnknownBenchmark(t, "ablate-recovery", func(opt Options) error {
		_, err := AblateRecoveryGrain("nope", 1000, []int{0}, opt)
		return err
	})
}
