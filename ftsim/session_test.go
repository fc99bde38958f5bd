package ftsim_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/ftsim"
)

// TestSerializedConfigRoundTrip closes the persistence loop: a config
// marshalled to JSON and restored with ParseConfig must drive the
// simulator to the identical Stats.
func TestSerializedConfigRoundTrip(t *testing.T) {
	cfg := ftsim.ModelSS2.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-4, Seed: 42, Targets: ftsim.AllFaultTargets()}
	cfg.MaxInsts, cfg.MaxCycles = 8_000, 800_000
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Config().JSON()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ftsim.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ftsim.NewFromConfig(restored)
	if err != nil {
		t.Fatal(err)
	}

	p, err := ftsim.Benchmark("fpppp")
	if err != nil {
		t.Fatal(err)
	}
	st1, err := m.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m2.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("restored config diverges:\noriginal: %s\nrestored: %s", st1.Summary(), st2.Summary())
	}
}

// TestRunContextCancel: cancelling mid-simulation returns promptly with
// context.Canceled and partial statistics.
func TestRunContextCancel(t *testing.T) {
	m, err := ftsim.NewFromConfig(ftsim.ModelSS2.Config())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ftsim.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Load(p)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st, err := s.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// The run had no limits: only the cancellation can have stopped it,
	// and it must do so promptly (the loop polls every 1024 cycles).
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if st == nil || st.Cycles == 0 {
		t.Error("cancelled run returned no partial statistics")
	}
	if st.Halted {
		t.Error("cancelled run claims to have halted")
	}
}

// TestRunContextDeadline: a deadline behaves like cancellation with
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	m, err := ftsim.NewFromConfig(ftsim.ModelSS1.Config())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ftsim.Benchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = m.Run(ctx, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
}

// TestObserverDoesNotPerturb: an instrumented run must produce the
// identical Stats as an unobserved one, and the interval stream must be
// monotonic and end with exactly one Final sample.
func TestObserverDoesNotPerturb(t *testing.T) {
	build := func(obs ftsim.Observer) *ftsim.Machine {
		cfg := ftsim.ModelSS2.Config()
		cfg.Fault = ftsim.FaultConfig{Rate: 1e-4, Seed: 9}
		cfg.MaxInsts, cfg.MaxCycles = 20_000, 2_000_000
		var opts []ftsim.Option
		if obs != nil {
			opts = append(opts, ftsim.WithObserver(obs), ftsim.WithObserveEvery(1000))
		}
		m, err := ftsim.NewFromConfig(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	p, err := ftsim.Benchmark("vortex")
	if err != nil {
		t.Fatal(err)
	}

	plain, err := build(nil).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	var ivs []ftsim.Interval
	observed, err := build(ftsim.ObserverFunc(func(iv ftsim.Interval) {
		ivs = append(ivs, iv)
	})).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observation perturbed the simulation:\nplain:    %s\nobserved: %s",
			plain.Summary(), observed.Summary())
	}
	if len(ivs) < 2 {
		t.Fatalf("got %d interval samples, want a stream", len(ivs))
	}
	finals := 0
	for i, iv := range ivs {
		if iv.Final {
			finals++
			if i != len(ivs)-1 {
				t.Error("Final interval not last")
			}
		}
		if i > 0 {
			prev := ivs[i-1]
			if iv.Cycles < prev.Cycles || iv.Committed < prev.Committed {
				t.Errorf("interval %d went backwards: %+v -> %+v", i, prev, iv)
			}
			if iv.DeltaCommitted != iv.Committed-prev.Committed {
				t.Errorf("interval %d delta mismatch", i)
			}
		}
	}
	if finals != 1 {
		t.Errorf("got %d Final samples, want 1", finals)
	}
	last := ivs[len(ivs)-1]
	if last.Cycles != observed.Cycles || last.Committed != observed.Committed {
		t.Errorf("final interval (%d cycles, %d insts) != final stats (%d, %d)",
			last.Cycles, last.Committed, observed.Cycles, observed.Committed)
	}
}

// TestConcurrentSessions: one Machine, many concurrent sessions — the
// pattern a service would use — must race cleanly (run under -race) and
// produce identical results on every goroutine. The sessions load one
// Program at once, so they also build and map its shared image
// concurrently, each copying the pages it stores to.
func TestConcurrentSessions(t *testing.T) {
	cfg := ftsim.ModelSS2.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 2e-4, Seed: 5, Targets: ftsim.AllFaultTargets()}
	cfg.MaxInsts, cfg.MaxCycles = 5_000, 500_000
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ftsim.Benchmark("ijpeg")
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([]*ftsim.Stats, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.Run(context.Background(), p)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("session %d diverged from session 0", i)
		}
	}
}

// TestSessionSingleUse: a session cannot be run twice.
func TestSessionSingleUse(t *testing.T) {
	cfg := ftsim.ModelSS1.Config()
	cfg.MaxInsts = 1_000
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ftsim.Benchmark("go")
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); !errors.Is(err, ftsim.ErrSessionUsed) {
		t.Fatalf("second Run returned %v, want ErrSessionUsed", err)
	}
}

// TestStrictOracle: under WithStrictOracle an unprotected machine
// bombarded with faults aborts with the typed oracle-mismatch error.
func TestStrictOracle(t *testing.T) {
	cfg := ftsim.ModelSS1.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-2, Seed: 3, Targets: ftsim.AllFaultTargets()}
	cfg.MaxInsts, cfg.MaxCycles = 50_000, 50_000_000
	m, err := ftsim.NewFromConfig(cfg, ftsim.WithStrictOracle())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ftsim.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(context.Background(), p)
	if !errors.Is(err, ftsim.ErrOracleMismatch) {
		t.Fatalf("strict run returned %v, want ErrOracleMismatch", err)
	}
	var oe *ftsim.OracleError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v is not an *OracleError", err)
	}
	if oe.Cycle == 0 || oe.Diff == "" {
		t.Errorf("divergence detail missing: %+v", oe)
	}
	if st == nil || st.EscapedFaults == 0 {
		t.Error("escaped fault not counted alongside the error")
	}
	if err := ftsim.CheckEscapes(st); !errors.Is(err, ftsim.ErrFaultEscape) {
		t.Errorf("CheckEscapes = %v, want ErrFaultEscape", err)
	}

	// The protected design under the same storm detects instead of
	// escaping: strict mode stays silent and the audit passes.
	cfg2 := ftsim.ModelSS2.Config()
	cfg2.Fault = ftsim.FaultConfig{Rate: 1e-3, Seed: 3}
	cfg2.MaxInsts, cfg2.MaxCycles = 20_000, 50_000_000
	m2, err := ftsim.NewFromConfig(cfg2, ftsim.WithStrictOracle())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m2.Run(context.Background(), p)
	if err != nil {
		t.Fatalf("protected strict run failed: %v", err)
	}
	if st2.FaultsDetected == 0 {
		t.Error("no faults detected at rate 1e-3")
	}
	if err := ftsim.CheckEscapes(st2); err != nil {
		t.Errorf("protected run audit failed: %v", err)
	}
}

// TestUnknownNames: the name-lookup sentinels.
func TestUnknownNames(t *testing.T) {
	if _, err := ftsim.Benchmark("nope"); !errors.Is(err, ftsim.ErrUnknownBenchmark) {
		t.Errorf("Benchmark(nope) = %v, want ErrUnknownBenchmark", err)
	}
	_, err := ftsim.NewFromConfig(ftsim.Model("ss99").Config())
	if !errors.Is(err, ftsim.ErrUnknownModel) {
		t.Errorf("NewFromConfig(ss99) = %v, want ErrUnknownModel", err)
	}
	if !errors.Is(err, ftsim.ErrInvalidConfig) {
		t.Errorf("NewFromConfig(ss99) = %v, want ErrInvalidConfig too", err)
	}
}
