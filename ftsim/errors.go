package ftsim

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
)

// The package's error taxonomy. Every error returned by ftsim either is
// one of these sentinels, wraps one (test with errors.Is), or is a
// context error propagated from Session.Run.
var (
	// ErrInvalidConfig is the root of all configuration validation
	// failures; the concrete errors are *ConfigError values naming the
	// offending field.
	ErrInvalidConfig = cpu.ErrInvalidConfig

	// ErrUnknownModel reports a Model label that names none of the
	// paper's machine designs.
	ErrUnknownModel = cpu.ErrUnknownModel

	// ErrUnknownBenchmark reports a benchmark name outside the Table 2
	// suite; Benchmarks lists the valid names.
	ErrUnknownBenchmark = errors.New("ftsim: unknown benchmark")

	// ErrDeadlock reports that the pipeline stopped committing
	// instructions — a simulator invariant violation, not a program
	// property.
	ErrDeadlock = cpu.ErrDeadlock

	// ErrOracleMismatch reports that the in-order oracle co-simulation
	// diverged from the pipeline's committed state: corruption escaped
	// the commit-stage checks. Returned (as a wrapping *OracleError)
	// only by sessions built with WithStrictOracle.
	ErrOracleMismatch = cpu.ErrOracleMismatch

	// ErrFaultEscape is the post-run form of the same condition,
	// reported by CheckEscapes when a completed run counted escaped
	// faults.
	ErrFaultEscape = errors.New("ftsim: faults escaped detection (corrupted state committed)")
)

// OracleError carries the first divergence of a strict-oracle run: the
// cycle and program counter of the diverging commit and which
// architectural effect disagreed. It unwraps to ErrOracleMismatch.
type OracleError = cpu.OracleError

// ConfigError is one configuration validation failure: Field names the
// offending field in JSON path form ("fault.rate") and Reason says what
// is wrong. Validate returns an errors.Join of every failure it finds,
// each a *ConfigError satisfying errors.Is(err, ErrInvalidConfig).
type ConfigError = cpu.ConfigError

// EscapeError reports that a run committed corrupted state: the oracle
// observed Escaped divergences. It unwraps to ErrFaultEscape.
type EscapeError struct {
	Escaped uint64
}

func (e *EscapeError) Error() string {
	return fmt.Sprintf("%v: %d escaped fault(s)", ErrFaultEscape, e.Escaped)
}

// Unwrap makes errors.Is(err, ErrFaultEscape) hold.
func (e *EscapeError) Unwrap() error { return ErrFaultEscape }

// CheckEscapes audits a completed run: it returns a *EscapeError when
// the oracle co-simulation counted committed corruption, and nil
// otherwise (including when the run had no oracle to count with).
func CheckEscapes(st *Stats) error {
	if st != nil && st.EscapedFaults > 0 {
		return &EscapeError{Escaped: st.EscapedFaults}
	}
	return nil
}
