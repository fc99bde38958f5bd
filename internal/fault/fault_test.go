package fault

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

func TestDisabled(t *testing.T) {
	if in := Renew(nil, Config{Rate: 0}); in != nil {
		t.Error("zero rate returned a non-nil injector")
	}
	var nilInj *Injector
	if _, hit := nilInj.Roll(); hit {
		t.Error("nil injector injected")
	}
}

func TestRateStatistics(t *testing.T) {
	const n = 200_000
	const rate = 0.01
	in := Renew(nil, Config{Rate: rate, Seed: 7})
	hits := 0
	for i := 0; i < n; i++ {
		if _, hit := in.Roll(); hit {
			hits++
		}
	}
	got := float64(hits) / n
	// Binomial std dev ~ sqrt(p(1-p)/n) ~ 2.2e-4; allow 5 sigma.
	if math.Abs(got-rate) > 5*math.Sqrt(rate*(1-rate)/n) {
		t.Errorf("observed rate %.5f, want ~%.5f", got, rate)
	}
	if in.Stats.Injected != uint64(hits) {
		t.Errorf("stats injected = %d, want %d", in.Stats.Injected, hits)
	}
}

// TestDeterminism: a seed fixes the fault schedule, whether the
// injector is fresh or a used one renewed for the same seed.
func TestDeterminism(t *testing.T) {
	cfg := Config{Rate: 0.05, Seed: 99, Targets: AllTargets}
	roll := func(in *Injector) []uint64 {
		var seq []uint64
		for i := 0; i < 1000; i++ {
			if tgt, hit := in.Roll(); hit {
				seq = append(seq, uint64(i)<<8|uint64(tgt))
			}
		}
		return seq
	}
	used := Renew(nil, Config{Rate: 0.5, Seed: 1})
	roll(used)
	a, b, c := roll(Renew(nil, cfg)), roll(Renew(nil, cfg)), roll(Renew(used, cfg))
	if !slices.Equal(a, b) || !slices.Equal(a, c) {
		t.Fatalf("schedules differ: fresh %d hits, fresh %d, renewed %d", len(a), len(b), len(c))
	}
	if used.Stats.Injected != uint64(len(c)) {
		t.Errorf("renewed injector counts %d faults, want %d", used.Stats.Injected, len(c))
	}
}

func TestTargetSelection(t *testing.T) {
	in := Renew(nil, Config{Rate: 1.0, Seed: 3, Targets: AllTargets})
	var seen [numTargets]bool
	for i := 0; i < 200; i++ {
		tgt, hit := in.Roll()
		if !hit {
			t.Fatal("rate-1.0 injector did not inject")
		}
		seen[tgt] = true
	}
	for _, tgt := range AllTargets {
		if !seen[tgt] {
			t.Errorf("target %v never selected", tgt)
		}
		if in.Stats.Count(tgt) == 0 {
			t.Errorf("target %v has zero count", tgt)
		}
	}
}

func TestDefaultTargetIsResult(t *testing.T) {
	in := Renew(nil, Config{Rate: 1.0, Seed: 1})
	for i := 0; i < 50; i++ {
		tgt, _ := in.Roll()
		if tgt != TargetResult {
			t.Fatalf("default target = %v, want result", tgt)
		}
	}
}

func TestFlipBit(t *testing.T) {
	in := Renew(nil, Config{Rate: 1, Seed: 11})
	for i := 0; i < 100; i++ {
		v := uint64(0xAAAA_5555_AAAA_5555)
		got := in.FlipBit(v)
		if bits.OnesCount64(got^v) != 1 {
			t.Fatalf("FlipBit changed %d bits", bits.OnesCount64(got^v))
		}
	}
	if in.Stats.BitsFlips != 100 {
		t.Errorf("flip count = %d", in.Stats.BitsFlips)
	}
}

func TestFlipLowBit(t *testing.T) {
	in := Renew(nil, Config{Rate: 1, Seed: 13})
	for i := 0; i < 100; i++ {
		got := in.FlipLowBit(0, 16)
		if got == 0 || got >= 1<<16 {
			t.Fatalf("FlipLowBit(0, 16) = %#x outside low 16 bits", got)
		}
	}
}

func TestTargetStrings(t *testing.T) {
	for _, tgt := range AllTargets {
		if tgt.String() == "unknown" || tgt.String() == "" {
			t.Errorf("target %d has no name", tgt)
		}
	}
	if Target(99).String() != "unknown" {
		t.Error("invalid target string")
	}
}
