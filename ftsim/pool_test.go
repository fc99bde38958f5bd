package ftsim_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/ftsim"
	"repro/internal/testenv"
)

// faultMachine builds the standard test machine: the given model with
// fault injection on all targets.
func faultMachine(t *testing.T, model ftsim.Model, insts uint64, rate float64, seed int64) *ftsim.Machine {
	t.Helper()
	cfg := model.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: rate, Seed: seed, Targets: ftsim.AllFaultTargets()}
	cfg.MaxInsts, cfg.MaxCycles = insts, insts*100
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dirtyPool returns a pool whose machines have seen real action: a
// completed Static-2 run on one program and a cancelled SS-3 run on
// another, so every subsequent checkout recycles a machine with stale
// caches, predictor state, in-flight window entries and injector RNG
// position. With GOMAXPROCS=1 the underlying sync.Pool hands the most
// recently returned machine straight back, so the recycled path — not
// the fresh-build fallback — is what the equivalence sweep exercises.
func dirtyPool(t *testing.T) *ftsim.MachinePool {
	t.Helper()
	pool := new(ftsim.MachinePool)
	p1, err := ftsim.Benchmark("vortex")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftsim.ModelStatic2.Config()
	cfg.MaxInsts, cfg.MaxCycles = 3_000, 300_000
	m1, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.RunPooled(context.Background(), pool, p1); err != nil {
		t.Fatal(err)
	}
	p2, err := ftsim.Benchmark("ammp")
	if err != nil {
		t.Fatal(err)
	}
	m2 := faultMachine(t, ftsim.ModelSS3, 0, 1e-3, 77) // no limits: only cancellation stops it
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m2.RunPooled(ctx, pool, p2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pooled run returned %v", err)
	}
	return pool
}

// TestPooledMatchesFresh is the pooled-vs-fresh equivalence gate the
// pool's documentation promises: across the Table 2 benchmarks, R in
// {1,2,3} and fault injection, a run on a deliberately dirtied pool
// must produce Stats deeply equal to the same run on a fresh machine.
func TestPooledMatchesFresh(t *testing.T) {
	benches := ftsim.Benchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	models := []ftsim.Model{ftsim.ModelSS1, ftsim.ModelSS2, ftsim.ModelSS3}
	const insts = 10_000
	const rate = 1e-4

	pool := dirtyPool(t)
	for _, bench := range benches {
		for i, model := range models {
			seed := int64(37*i) + int64(len(bench))
			t.Run(bench+"/"+string(model), func(t *testing.T) {
				p, err := ftsim.Benchmark(bench)
				if err != nil {
					t.Fatal(err)
				}
				m := faultMachine(t, model, insts, rate, seed)
				want, err := m.Run(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.RunPooled(context.Background(), pool, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("pooled run diverges from fresh\nfresh:  %s\npooled: %s",
						want.Summary(), got.Summary())
				}
			})
		}
	}
}

// TestPooledObserver: session features (observers, trace buffers) work
// identically on pooled machines — same final Stats as an unobserved
// fresh run, and a live interval stream.
func TestPooledObserver(t *testing.T) {
	p, err := ftsim.Benchmark("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	want, err := faultMachine(t, ftsim.ModelSS2, 10_000, 1e-4, 5).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	var ivs []ftsim.Interval
	cfg := ftsim.ModelSS2.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-4, Seed: 5, Targets: ftsim.AllFaultTargets()}
	cfg.MaxInsts, cfg.MaxCycles = 10_000, 1_000_000
	m, err := ftsim.NewFromConfig(cfg,
		ftsim.WithObserver(ftsim.ObserverFunc(func(iv ftsim.Interval) { ivs = append(ivs, iv) })),
		ftsim.WithObserveEvery(1000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RunPooled(context.Background(), dirtyPool(t), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("observed pooled run diverges:\nfresh:  %s\npooled: %s", want.Summary(), got.Summary())
	}
	if len(ivs) < 2 || !ivs[len(ivs)-1].Final {
		t.Errorf("observer stream broken on pooled run: %d intervals", len(ivs))
	}
}

// TestRunPooledAllocBudget pins the pooled campaign trial's allocation
// ceiling: once the pool is warm, one complete trial — checkout, reset,
// full simulation, stats snapshot, return — must stay within a fixed
// budget, two orders of magnitude under the old build-per-trial cost.
func TestRunPooledAllocBudget(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 64
	p, err := ftsim.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	m := faultMachine(t, ftsim.ModelSS2, 5_000, 1e-4, 3)
	pool := new(ftsim.MachinePool)
	run := func() {
		if _, err := m.RunPooled(context.Background(), pool, p); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: first checkout builds the machine
	run() // second: slabs past their growth tail
	got := testing.AllocsPerRun(5, run)
	t.Logf("%.1f allocs per warm pooled trial", got)
	if got > ceiling {
		t.Errorf("warm pooled trial allocates %.1f/run, budget %d", got, ceiling)
	}
}

// TestMachinePoolRace hammers one shared pool from many goroutines with
// heterogeneous configurations and mid-run cancellation — the campaign
// engine's worst case. Run under -race (CI does); beyond race-freedom
// it asserts that every completed run matches its fresh-machine
// reference regardless of which goroutine's cast-offs it recycled.
func TestMachinePoolRace(t *testing.T) {
	const insts = 2_000
	benches := []string{"gcc", "swim", "bzip"}
	models := []ftsim.Model{ftsim.ModelSS1, ftsim.ModelSS2, ftsim.ModelSS3}

	type point struct {
		bench string
		model ftsim.Model
		seed  int64
	}
	var pts []point
	want := map[point]*ftsim.Stats{}
	for i, b := range benches {
		for j, mo := range models {
			pt := point{b, mo, int64(10*i + j + 1)}
			p, err := ftsim.Benchmark(b)
			if err != nil {
				t.Fatal(err)
			}
			st, err := faultMachine(t, mo, insts, 1e-4, pt.seed).Run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, pt)
			want[pt] = st
		}
	}

	pool := new(ftsim.MachinePool)
	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pt := pts[(w*rounds+r)%len(pts)]
				p, err := ftsim.Benchmark(pt.bench)
				if err != nil {
					errs <- err
					return
				}
				// Odd rounds first poison the pool with a cancelled run.
				if r%2 == 1 {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					mc := faultMachine(t, pt.model, 0, 1e-3, pt.seed)
					if _, err := mc.RunPooled(ctx, pool, p); !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("worker %d: cancelled run returned %v", w, err)
						return
					}
				}
				m := faultMachine(t, pt.model, insts, 1e-4, pt.seed)
				got, err := m.RunPooled(context.Background(), pool, p)
				if err != nil {
					errs <- fmt.Errorf("worker %d %s/%s: %v", w, pt.bench, pt.model, err)
					return
				}
				if !reflect.DeepEqual(want[pt], got) {
					errs <- fmt.Errorf("worker %d %s/%s: pooled run diverged", w, pt.bench, pt.model)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
