// Package core holds the end-to-end tests of the paper's fault-tolerant
// core: the cpu datapath with its commit-stage checkers and fault
// injector, run as the Section 5 machine models — fault-free agreement,
// detection and recovery under injection, the workload oracle sweep,
// pooled reset and snapshot restore. The package has no non-test code.
// Its machines are built below the public API so the tests can reach
// cpu.Machine state (registers, memory, in-place reset); ftsim lowers
// its Config to the same cpu.Config, which TestModelsMatchFacade pins.
package core

import (
	"cmp"
	"context"
	"reflect"
	"testing"

	"repro/ftsim"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/workload"
)

// Config is a test machine: the cpu configuration plus the two parts
// the cpu layer takes as built objects — the commit checker, chosen
// from R and Majority, and the fault injector, built from Fault for
// every machine so no two runs share RNG state.
type Config struct {
	cpu.Config
	// Majority selects majority election over rewind for R >= 3.
	Majority bool
	// MajorityThreshold is the election threshold; zero means a simple
	// majority, R/2+1.
	MajorityThreshold int
	Fault             fault.Config
}

// SS1 is the unprotected Table 1 baseline.
func SS1() Config { return Config{Config: cpu.Baseline()} }

// SS2 is the 2-way redundant design with rewind recovery.
func SS2() Config {
	c := SS1()
	c.Name, c.R = "SS-2", 2
	return c
}

// SS3 is the 3-way redundant design with majority election.
func SS3() Config {
	c := SS1()
	c.Name, c.R, c.Majority = "SS-3", 3, true
	return c
}

// SS3Rewind is the 3-way design that rewinds on any mismatch.
func SS3Rewind() Config {
	c := SS1()
	c.Name, c.R = "SS-3-rewind", 3
	return c
}

// Static2 is one pipeline of the statically partitioned lock-step pair.
func Static2() Config { return Config{Config: cpu.Halved()} }

// assemble lowers c as ftsim does: the RUU rounded down to a multiple
// of R, the checker for R and Majority, and an injector that reuses
// prev's RNG storage when non-nil.
func (c Config) assemble(prev *fault.Injector) cpu.Config {
	cfg := c.Config
	cfg.Checker = nil
	if c.R > 1 {
		cfg.RUUSize -= cfg.RUUSize % c.R
		if c.Majority {
			cfg.Checker = &cpu.MajorityChecker{R: c.R, Threshold: cmp.Or(c.MajorityThreshold, c.R/2+1)}
		} else {
			cfg.Checker = cpu.RewindChecker{}
		}
	}
	cfg.Injector = fault.Renew(prev, c.Fault)
	return cfg
}

// Build returns a fresh machine loaded with p.
func (c Config) Build(p *prog.Program) (*cpu.Machine, error) {
	return cpu.New(c.assemble(nil), p)
}

// Rebuild resets m in place for a run of p, as a machine pool does; a
// nil m builds fresh.
func (c Config) Rebuild(m *cpu.Machine, p *prog.Program) (*cpu.Machine, error) {
	if m == nil {
		return c.Build(p)
	}
	if err := m.Reset(c.assemble(m.Injector()), p); err != nil {
		return nil, err
	}
	return m, nil
}

// Restore resumes a snapshot on m, or on a fresh machine when m is nil.
func (c Config) Restore(m *cpu.Machine, data []byte) (*cpu.Machine, error) {
	var prev *fault.Injector
	if m == nil {
		m = new(cpu.Machine)
	} else {
		prev = m.Injector()
	}
	if err := m.Restore(c.assemble(prev), data); err != nil {
		return nil, err
	}
	return m, nil
}

// Run builds c's machine for p and runs it to completion.
func Run(p *prog.Program, c Config) (*cpu.Stats, error) {
	m, err := c.Build(p)
	if err != nil {
		return nil, err
	}
	return m.RunContext(context.Background())
}

// TestModelsMatchFacade pins the test machines to ftsim's: each model,
// with and without fault injection, produces Stats deeply equal to the
// same run through the public API.
func TestModelsMatchFacade(t *testing.T) {
	wl, _ := workload.ByName("gcc")
	program, err := wl.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	facadeProgram, err := ftsim.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg   Config
		model ftsim.Model
	}{
		{SS1(), ftsim.ModelSS1},
		{SS2(), ftsim.ModelSS2},
		{SS3(), ftsim.ModelSS3},
		{SS3Rewind(), ftsim.ModelSS3Rewind},
		{Static2(), ftsim.ModelStatic2},
	} {
		for _, faulty := range []bool{false, true} {
			cfg, fc := tc.cfg, tc.model.Config()
			cfg.MaxInsts, fc.MaxInsts = 5_000, 5_000
			if faulty {
				cfg.Fault = fault.Config{Rate: 1e-3, Seed: 7, Targets: fault.AllTargets}
				fc.Fault = ftsim.FaultConfig{Rate: 1e-3, Seed: 7, Targets: ftsim.AllFaultTargets()}
			}
			want, err := Run(program, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ftsim.NewFromConfig(fc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Run(context.Background(), facadeProgram)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s faulty=%v: facade diverges from the test machine\ntest:   %+v\nfacade: %+v",
					cfg.Name, faulty, want, got)
			}
		}
	}
}
