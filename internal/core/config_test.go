// Package core holds the end-to-end tests of the paper's fault-tolerant
// core: the cpu datapath with its commit-stage checkers and fault
// injector, run as the Section 5 machine models — fault-free agreement,
// detection and recovery under injection, the workload oracle sweep,
// pooled reset and snapshot restore. The package has no non-test code.
// Its machines are cpu.Config values built with cpu.New, below the
// public API, so the tests can reach cpu.Machine state (registers,
// memory, in-place reset and restore); TestModelsMatchFacade pins them
// to ftsim's models.
package core

import (
	"context"
	"reflect"
	"testing"

	"repro/ftsim"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/workload"
)

// SS1 is the unprotected Table 1 baseline.
func SS1() cpu.Config { return cpu.Baseline() }

// SS2 is the 2-way redundant design with rewind recovery.
func SS2() cpu.Config {
	c := SS1()
	c.Name, c.R = "SS-2", 2
	return c
}

// SS3 is the 3-way redundant design with simple-majority election.
func SS3() cpu.Config {
	c := SS1()
	c.Name, c.R, c.Majority, c.MajorityThreshold = "SS-3", 3, true, 2
	return c
}

// SS3Rewind is the 3-way design that rewinds on any mismatch.
func SS3Rewind() cpu.Config {
	c := SS1()
	c.Name, c.R = "SS-3-rewind", 3
	return c
}

// Static2 is one pipeline of the statically partitioned lock-step pair.
func Static2() cpu.Config { return cpu.Halved() }

// Run builds c's machine for p and runs it to completion.
func Run(p *prog.Program, c cpu.Config) (*cpu.Stats, error) {
	m, err := cpu.New(c, p)
	if err != nil {
		return nil, err
	}
	return m.RunContext(context.Background())
}

// TestModelsMatchFacade pins the test presets to ftsim's models: each
// one, with and without fault injection, produces Stats deeply equal to
// the same run through the public API.
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
		cfg   cpu.Config
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
