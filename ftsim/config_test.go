package ftsim_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/ftsim"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestConfigGoldens pins the serialized form of the four paper machine
// models: the golden JSON must both match what the presets marshal to
// and parse back into the identical configuration. Run with -update to
// regenerate after an intentional schema change.
func TestConfigGoldens(t *testing.T) {
	for _, model := range []ftsim.Model{ftsim.ModelSS1, ftsim.ModelSS2, ftsim.ModelSS3, ftsim.ModelStatic2} {
		t.Run(string(model), func(t *testing.T) {
			cfg := model.Config()
			data, err := cfg.JSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", string(model)+".json")
			if *update {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./ftsim -update` to create)", err)
			}
			if !bytes.Equal(data, want) {
				t.Errorf("%s: serialized config differs from golden file\ngot:\n%s\nwant:\n%s", model, data, want)
			}

			parsed, err := ftsim.ParseConfig(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parsed, cfg) {
				t.Errorf("%s: round-trip mismatch\nparsed: %+v\npreset: %+v", model, parsed, cfg)
			}
		})
	}
}

// TestParseConfigDefaults: a minimal hand-written description gets
// Table 1 defaults for everything omitted.
func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ftsim.ParseConfig([]byte(`{"model": "ss2", "r": 2, "max_insts": 1000}`))
	if err != nil {
		t.Fatal(err)
	}
	ss2 := ftsim.ModelSS2.Config()
	if cfg.Pipeline != ss2.Pipeline {
		t.Errorf("pipeline defaults not applied: %+v", cfg.Pipeline)
	}
	if cfg.Memory != ss2.Memory {
		t.Errorf("memory defaults not applied: %+v", cfg.Memory)
	}
	if cfg.MaxInsts != 1000 {
		t.Errorf("explicit field lost: MaxInsts = %d", cfg.MaxInsts)
	}
	if cfg.Name != "SS-2" {
		t.Errorf("display name = %q", cfg.Name)
	}
}

// TestParseConfigRejectsUnknownFields: typos in a persisted machine
// description must fail loudly, not silently default.
func TestParseConfigRejectsUnknownFields(t *testing.T) {
	_, err := ftsim.ParseConfig([]byte(`{"model": "ss2", "r": 2, "fualt": {"rate": 0.1}}`))
	if !errors.Is(err, ftsim.ErrInvalidConfig) {
		t.Fatalf("unknown field accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "fualt") {
		t.Errorf("error does not name the unknown field: %v", err)
	}
}

// TestParseConfigRejectsUnknownNames: enum values travel by name, and a
// name outside the set fails the parse as a configuration error.
func TestParseConfigRejectsUnknownNames(t *testing.T) {
	for name, body := range map[string]string{
		"fault target": `{"r": 2, "fault": {"rate": 0.001, "targets": ["result", "cosmic"]}}`,
		"unit pool":    `{"r": 2, "persistent": {"pool": "gpu", "unit": 0, "bit": 3}}`,
		"no unit pool": `{"r": 2, "persistent": {"pool": "none", "unit": 0, "bit": 3}}`,
	} {
		if _, err := ftsim.ParseConfig([]byte(body)); !errors.Is(err, ftsim.ErrInvalidConfig) {
			t.Errorf("%s: ParseConfig = %v, want ErrInvalidConfig", name, err)
		}
	}
}

// TestValidationErrors covers the required failure cases: R < 1, zero
// widths, bad fault rates — plus the model/threshold/geometry checks.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ftsim.Config)
		field  string
		// normalizes marks defects Normalized legitimately repairs (an
		// omitted field taking its default), so only raw Validate — not
		// machine construction — rejects them.
		normalizes bool
	}{
		{"R zero", func(c *ftsim.Config) { c.R = 0 }, "r", true},
		{"R negative", func(c *ftsim.Config) { c.R = -2 }, "r", false},
		{"zero commit width", func(c *ftsim.Config) { c.Pipeline.CommitWidth = 0 }, "pipeline", false},
		{"zero fetch width", func(c *ftsim.Config) { c.Pipeline.FetchWidth = 0 }, "pipeline", false},
		{"zero RUU", func(c *ftsim.Config) { c.Pipeline.RUUSize = 0 }, "pipeline.ruu_size", false},
		{"zero LSQ", func(c *ftsim.Config) { c.Pipeline.LSQSize = 0 }, "pipeline.lsq_size", false},
		{"no int ALU", func(c *ftsim.Config) { c.Pipeline.IntALU = 0 }, "pipeline", false},
		{"fault rate negative", func(c *ftsim.Config) { c.Fault.Rate = -0.5 }, "fault.rate", false},
		{"fault rate above one", func(c *ftsim.Config) { c.Fault.Rate = 1.5 }, "fault.rate", false},
		{"bad fault target", func(c *ftsim.Config) { c.Fault.Targets = []ftsim.FaultTarget{99} }, "fault.targets", false},
		{"majority needs R3", func(c *ftsim.Config) { c.R = 2; c.Majority = true }, "majority", false},
		{"threshold above R", func(c *ftsim.Config) { c.MajorityThreshold = 9 }, "majority_threshold", false},
		{"commit narrower than R", func(c *ftsim.Config) { c.R = 3; c.Pipeline.CommitWidth = 2 }, "pipeline", false},
		{"fetch queue under width", func(c *ftsim.Config) { c.Pipeline.FetchQueue = 1 }, "pipeline.fetch_queue", false},
		{"bad cache geometry", func(c *ftsim.Config) { c.Memory.DL1.Ways = 7 }, "memory.dl1", false},
		{"bad predictor kind", func(c *ftsim.Config) { c.BranchPred.Kind = "psychic" }, "branch_pred.kind", false},
		{"bad persistent pool", func(c *ftsim.Config) { c.Persistent = &ftsim.PersistentFault{Pool: 99} }, "persistent.pool", false},
		{"no persistent pool", func(c *ftsim.Config) { c.Persistent = &ftsim.PersistentFault{Bit: 3} }, "persistent.pool", false},
		{"unknown model", func(c *ftsim.Config) { c.Model = "ss9" }, "model", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ftsim.ModelSS2.Config()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if !errors.Is(err, ftsim.ErrInvalidConfig) {
				t.Fatalf("Validate() = %v, want ErrInvalidConfig", err)
			}
			var ce *ftsim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("no *ConfigError in %v", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %q", err, tc.field)
			}
			// The same bad config must be rejected at machine build,
			// unless normalization legitimately repairs it.
			if _, err := ftsim.NewFromConfig(cfg); err == nil && !tc.normalizes {
				t.Error("NewFromConfig accepted the invalid config")
			}
		})
	}

	if err := ftsim.ModelSS3.Config().Validate(); err != nil {
		t.Errorf("valid preset rejected: %v", err)
	}
}

// TestValidationJoinsAllProblems: multiple defects are all reported.
func TestValidationJoinsAllProblems(t *testing.T) {
	cfg := ftsim.ModelSS2.Config()
	cfg.R = 0
	cfg.Fault.Rate = 2
	cfg.Pipeline.LSQSize = 0
	err := cfg.Validate()
	if err == nil {
		t.Fatal("no error")
	}
	for _, want := range []string{"r:", "fault.rate", "pipeline.lsq_size"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestConfigCloneIsolation: a machine shares no state with the config
// it was built from, nor with the config Machine.Config returns.
func TestConfigCloneIsolation(t *testing.T) {
	cfg := ftsim.ModelSS2.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 0.001, Targets: ftsim.AllFaultTargets()}
	cfg.Persistent = &ftsim.PersistentFault{Pool: ftsim.PoolIntALU, Unit: 0, Bit: 5}
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aliased := func(c ftsim.Config) bool {
		return c.Fault.Targets[0] == ftsim.FaultBranch || c.Persistent.Bit == 63
	}
	cfg.Fault.Targets[0] = ftsim.FaultBranch
	cfg.Persistent.Bit = 63
	if aliased(m.Config()) {
		t.Error("NewFromConfig aliases its argument")
	}
	got := m.Config()
	got.Fault.Targets[0] = ftsim.FaultBranch
	got.Persistent.Bit = 63
	if aliased(m.Config()) {
		t.Error("Machine.Config aliases internal state")
	}
}

// TestStrictOracleForcesOracle: WithStrictOracle needs the oracle, so it
// turns it on even when the config leaves it off.
func TestStrictOracleForcesOracle(t *testing.T) {
	cfg := ftsim.ModelSS1.Config()
	cfg.Oracle = false
	m, err := ftsim.NewFromConfig(cfg, ftsim.WithStrictOracle())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Config().Oracle {
		t.Error("WithStrictOracle left Config().Oracle false")
	}
}

// TestRuntimeOptionsNotSerialized: the runtime hooks are not part of the
// machine description, so they leave Config().JSON() unchanged.
func TestRuntimeOptionsNotSerialized(t *testing.T) {
	cfg := ftsim.ModelSS2.Config()
	cfg.Oracle = true
	js := func(opts ...ftsim.Option) string {
		t.Helper()
		m, err := ftsim.NewFromConfig(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.Config().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := js()
	got := js(ftsim.WithStrictOracle(),
		ftsim.WithObserver(ftsim.ObserverFunc(func(ftsim.Interval) {})),
		ftsim.WithObserveEvery(100),
		ftsim.WithTraceBuffer(64))
	if got != want {
		t.Errorf("runtime options changed the serialized config:\n got %s\nwant %s", got, want)
	}
}

// TestModelsListed: every listed model has a valid, runnable preset.
func TestModelsListed(t *testing.T) {
	for _, m := range ftsim.Models() {
		cfg := m.Config()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
	if len(ftsim.Models()) != 5 {
		t.Errorf("Models() = %v", ftsim.Models())
	}
}
