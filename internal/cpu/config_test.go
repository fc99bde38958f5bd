package cpu

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"R=0":                      func(c *Config) { c.R = 0 },
		"RUU 0":                    func(c *Config) { c.RUUSize = 0 },
		"RUU below R":              func(c *Config) { c.R, c.RUUSize = 4, 3 },
		"LSQ 0":                    func(c *Config) { c.LSQSize = 0 },
		"commit width 0":           func(c *Config) { c.CommitWidth = 0 },
		"no int ALU":               func(c *Config) { c.IntALU = 0 },
		"fetch queue below width":  func(c *Config) { c.FetchQueue = 1 },
		"dispatch width below R":   func(c *Config) { c.R = 2; c.DispatchWidth = 1 },
		"majority with R=2":        func(c *Config) { c.R, c.Majority, c.MajorityThreshold = 2, true, 2 },
		"majority threshold 0":     func(c *Config) { c.R, c.Majority = 3, true },
		"majority threshold above": func(c *Config) { c.R, c.Majority, c.MajorityThreshold = 3, true, 4 },
	}
	for name, mutate := range cases {
		cfg := Baseline()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	for name, cfg := range map[string]Config{
		"baseline":           Baseline(),
		"halved":             Halved(),
		"R=3 on RUU 128":     func() Config { c := Baseline(); c.R = 3; return c }(),
		"R=3 majority of 2":  func() Config { c := Baseline(); c.R, c.Majority, c.MajorityThreshold = 3, true, 2; return c }(),
		"R=4 unanimous vote": func() Config { c := Baseline(); c.R, c.Majority, c.MajorityThreshold = 4, true, 4; return c }(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

// TestRUURoundedToMultipleOfR: the machine rounds the RUU down to a
// multiple of R itself, so an R=3 machine asked for 128 entries
// provisions 126 and runs exactly as one asked for 126.
func TestRUURoundedToMultipleOfR(t *testing.T) {
	wl, _ := workload.ByName("gcc")
	program, err := wl.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ruu int) *Stats {
		cfg := Baseline()
		cfg.R, cfg.RUUSize = 3, ruu
		cfg.Fault = fault.Config{Rate: 1e-3, Seed: 7, Targets: fault.AllTargets}
		cfg.MaxInsts = 5_000
		m, err := New(cfg, program)
		if err != nil {
			t.Fatal(err)
		}
		if m.ruu.limit != 126 {
			t.Fatalf("RUU %d at R=3 provisions %d entries, want 126", ruu, m.ruu.limit)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	asked, provisioned := run(128), run(126)
	if provisioned.DispatchRUUFull == 0 {
		t.Fatal("the RUU never filled, so its size was not exercised")
	}
	if !reflect.DeepEqual(asked, provisioned) {
		t.Errorf("RUU 128 at R=3 diverges from RUU 126\n128: %+v\n126: %+v", asked, provisioned)
	}
}

// TestFingerprintStable pins Fingerprint for configurations the ftsim
// golden file does not cover. Snapshots and campaign checkpoints on
// disk carry these values, so a change here makes them unrestorable.
func TestFingerprintStable(t *testing.T) {
	with := func(f func(*Config)) Config { c := Baseline(); f(&c); return c }
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"SS-1", Baseline(), 0xcd1ab40761dae6c},
		{"R=2 rewind", with(func(c *Config) { c.R = 2 }), 0xe29077cd94361e50},
		{"R=3 majority of 2", with(func(c *Config) { c.R, c.Majority, c.MajorityThreshold = 3, true, 2 }), 0x6ff9f77e1117f6e},
		{"R=4 majority of 3", with(func(c *Config) { c.R, c.Majority, c.MajorityThreshold = 4, true, 3 }), 0xa7661fbefe69393},
		{"R=3 rewind, RUU 128", with(func(c *Config) { c.R = 3 }), 0xb2debca7ab30edb9},
		{"R=3 rewind, RUU 126", with(func(c *Config) { c.R, c.RUUSize = 3, 126 }), 0xb2debca7ab30edb9},
		{"R=2 rewind, faults", with(func(c *Config) {
			c.R = 2
			c.Fault = fault.Config{Rate: 1e-3, Seed: 7, Targets: fault.AllTargets}
		}), 0xbe50e144a3ffc8d1},
		{"SS-1, rate 0 seed 9", with(func(c *Config) { c.Fault = fault.Config{Seed: 9} }), 0xcd1ab40761dae6c},
		{"R=2 rewind, stuck bit", with(func(c *Config) {
			c.R, c.TransformOperands = 2, true
			c.Persistent = &fault.Persistent{Pool: isa.PoolIntALU, Unit: 1, Bit: 5}
		}), 0x3bde1a3a1a905fb8},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
