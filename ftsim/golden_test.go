package ftsim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/ftsim"
	"repro/internal/snap"
)

// statsGolden is the layout of testdata/golden/stats.json. It lives
// below testdata/ rather than in it because every testdata/*.json is a
// machine configuration.
type statsGolden struct {
	// Fingerprints maps each preset model to the cpu-layer
	// configuration fingerprint its converted machine carries (the
	// value a snapshot records and Restore compares).
	Fingerprints map[ftsim.Model]string `json:"fingerprints"`
	// Stats maps "bench/model" and "bench/model/faults" to the SHA-256
	// of the run's Stats JSON.
	Stats map[string]string `json:"stats"`
}

const (
	goldenInsts     = 10_000
	goldenFaultRate = 1e-4
	goldenFaultSeed = 1
)

// machineFingerprint reads the configuration fingerprint from the
// header of a snapshot of a freshly loaded session: it is the
// fingerprint of the cpu.Config the machine was converted to.
func machineFingerprint(t *testing.T, m *ftsim.Machine, p *ftsim.Program) string {
	t.Helper()
	s, err := m.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.NewReader(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#016x", r.U64())
}

// TestStatsGolden pins the simulator's results for every preset model
// on every Table 2 workload, with and without fault injection, to
// digests recorded in testdata/golden/stats.json. Any change to how a
// configuration reaches the datapath that moves a single Stats counter
// or a preset's fingerprint fails here, printing the digest it got.
// Run with -update to regenerate after an intentional change of
// results.
func TestStatsGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden", "stats.json")
	var want statsGolden
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./ftsim -run TestStatsGolden -update` to create)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, what, got, golden string) {
		t.Helper()
		if !*update && got != golden {
			t.Errorf("%s: got %s, golden %s", what, got, golden)
		}
	}

	got := statsGolden{Fingerprints: map[ftsim.Model]string{}, Stats: map[string]string{}}
	for _, bench := range ftsim.Benchmarks() {
		p, err := ftsim.Benchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range ftsim.Models() {
			t.Run(bench+"/"+string(model), func(t *testing.T) {
				for _, faulty := range []bool{false, true} {
					cfg := model.Config()
					cfg.MaxInsts, cfg.MaxCycles = goldenInsts, goldenInsts*100
					key := bench + "/" + string(model)
					if faulty {
						cfg.Fault = ftsim.FaultConfig{Rate: goldenFaultRate, Seed: goldenFaultSeed,
							Targets: ftsim.AllFaultTargets()}
						key += "/faults"
					}
					m, err := ftsim.NewFromConfig(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := got.Fingerprints[model]; !ok && !faulty {
						fp := machineFingerprint(t, m, p)
						got.Fingerprints[model] = fp
						check(t, string(model)+" fingerprint", fp, want.Fingerprints[model])
					}
					st, err := m.Run(context.Background(), p)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					data, err := json.Marshal(st)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(data)
					got.Stats[key] = hex.EncodeToString(sum[:])
					check(t, key+" Stats digest", got.Stats[key], want.Stats[key])
				}
			})
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got.Stats) != len(want.Stats) || len(got.Fingerprints) != len(want.Fingerprints) {
		t.Errorf("golden file covers %d runs and %d presets, the test %d and %d",
			len(want.Stats), len(want.Fingerprints), len(got.Stats), len(got.Fingerprints))
	}
}
