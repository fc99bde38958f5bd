// Package core holds the end-to-end tests of the paper's fault-tolerant
// core: the cpu datapath with its commit-stage checkers and fault
// injector, run as the Section 5 machine models — fault-free agreement,
// detection and recovery under injection, the workload oracle sweep,
// pooled reset and snapshot restore. The package has no non-test code.
// Its machines are the paper's models (cpu.Model.Config, the same
// values ftsim.Model.Config returns) built with cpu.New, below the
// public API, so the tests can reach cpu.Machine state (registers,
// memory, in-place reset and restore).
package core

import (
	"context"

	"repro/internal/cpu"
	"repro/internal/prog"
)

// SS1 is the unprotected Table 1 baseline.
func SS1() cpu.Config { return cpu.ModelSS1.Config() }

// SS2 is the 2-way redundant design with rewind recovery.
func SS2() cpu.Config { return cpu.ModelSS2.Config() }

// SS3 is the 3-way redundant design with simple-majority election.
func SS3() cpu.Config { return cpu.ModelSS3.Config() }

// SS3Rewind is the 3-way design that rewinds on any mismatch.
func SS3Rewind() cpu.Config { return cpu.ModelSS3Rewind.Config() }

// Static2 is one pipeline of the statically partitioned lock-step pair.
func Static2() cpu.Config { return cpu.ModelStatic2.Config() }

// Run builds c's machine for p and runs it to completion.
func Run(p *prog.Program, c cpu.Config) (*cpu.Stats, error) {
	m, err := cpu.New(c, p)
	if err != nil {
		return nil, err
	}
	return m.RunContext(context.Background())
}
