// Package cpu implements the out-of-order superscalar performance
// simulator that the paper's fault-tolerance extensions attach to. It is
// the Go analogue of SimpleScalar's sim-outorder, with an execute-in-
// pipeline model: operand values really flow through the RUU, so
// redundant copies of an instruction can genuinely disagree when the
// fault injector corrupts one of them.
//
// The machine model follows the paper's Section 3.1 baseline: a Register
// Update Unit (RUU) holds all in-flight instructions in program order and
// doubles as reservation stations and reorder buffer; a separate load/
// store queue (LSQ) handles memory disambiguation and store-to-load
// forwarding; instructions issue out of order to the Table 1 functional
// unit mix and retire strictly in order.
//
// Redundant execution (R >= 2) implements Section 3.2: each fetched
// instruction dispatches into R consecutive RUU entries, renaming only
// the first copy and deriving copy k's operand tags by adding an offset
// of k; the commit stage checks the R copies against each other before a
// single instruction retires, and a rejected group rewinds the machine.
// Config is plain data: on every build, reset and restore the machine
// rounds the RUU down to a multiple of R, picks its commit checker
// (RewindChecker, or MajorityChecker under Majority) and seeds its own
// fault injector from Fault.
package cpu

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Config describes a simulated machine. Widths that count RUU entries
// (dispatch, issue, commit) are shared by the R copies of each
// instruction, which is exactly how the paper's scheme loses throughput:
// an R-redundant machine dispatches and retires R entries per
// architectural instruction.
type Config struct {
	Name string

	// Front end.
	FetchWidth      int // instructions fetched per cycle (one branch prediction per cycle)
	FetchQueue      int // fetch queue depth, in instructions
	RedirectPenalty int // extra front-end bubble cycles after any fetch redirect

	// RecoveryPenalty adds this many cycles to every fault-triggered
	// rewind, modelling coarser-grain recovery schemes (the paper's
	// Figure 4 evaluates r = 2000 for checkpoint-style recovery; the
	// fine-grain rewind design keeps this at 0 and pays only the
	// pipeline refill).
	RecoveryPenalty int

	// Window.
	DispatchWidth int // RUU entries allocated per cycle
	IssueWidth    int // RUU entries issued per cycle
	CommitWidth   int // RUU entries retired per cycle
	RUUSize       int
	LSQSize       int

	// Functional unit mix (Table 1).
	IntALU   int
	IntMult  int // integer multiply/divide units
	FPAdd    int
	FPMult   int // FP multiply/divide/sqrt units
	MemPorts int // D-cache read/write ports

	Hierarchy cache.HierarchyConfig
	Bpred     bpred.Config

	// R is the degree of redundancy: 1 disables replication. The
	// machine rounds RUUSize down to a multiple of R (128 -> 126 at R=3).
	R int
	// CoSchedule makes copies of the same instruction prefer distinct
	// physical functional-unit instances (Section 3.5, "Multi-cycle and
	// Correlated Faults").
	CoSchedule bool
	// Majority selects the commit check for R >= 3: majority election
	// (MajorityChecker) instead of rewinding on any mismatch
	// (RewindChecker, the R = 2 design).
	Majority bool
	// MajorityThreshold is how many copies must agree for an election
	// to commit; it must lie in [1, R] when Majority is set.
	MajorityThreshold int
	// Fault is the transient-fault programme; a zero Rate disables
	// injection.
	Fault fault.Config
	// Persistent models a hard stuck-bit fault in one physical unit's
	// bitwise-logic slice (Section 2.2's indiscernible-error scenario).
	Persistent *fault.Persistent
	// TransformOperands enables the Patel & Fung defence the paper cites
	// for persistent faults under time redundancy: redundant copy k
	// executes bitwise operations with operands rotated left by k and
	// un-rotates the result, so identical hard faults corrupt different
	// result bits in different copies and the commit check exposes them.
	TransformOperands bool
	// Oracle enables the in-order co-simulation sanity check from
	// Section 5.1.1.
	Oracle bool
	// StrictOracle makes the first oracle divergence abort the run with
	// an *OracleError instead of only counting an escaped fault. It has
	// no effect unless Oracle is set.
	StrictOracle bool
	// Tracer, when non-nil, receives per-copy pipeline events
	// (dispatch, issue, complete, commit, squash).
	Tracer trace.Recorder

	// Observe, when non-nil, is called from the run loop every
	// ObserveEvery cycles with the live statistics. The callback must
	// treat the Stats as read-only and must not retain the pointer past
	// the call: observation is a pure tap and never perturbs simulation
	// results.
	Observe func(*Stats)
	// ObserveEvery is the observation period in cycles; 0 disables
	// periodic observation even when Observe is set.
	ObserveEvery uint64

	// Run limits. Zero means unlimited.
	MaxInsts  uint64 // committed (architectural) instructions
	MaxCycles uint64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.R < 1:
		return fmt.Errorf("cpu: redundancy R=%d < 1", c.R)
	case c.Majority && c.R < 3:
		return fmt.Errorf("cpu: majority election needs R >= 3, have R=%d", c.R)
	case c.Majority && (c.MajorityThreshold < 1 || c.MajorityThreshold > c.R):
		return fmt.Errorf("cpu: majority threshold %d outside [1, R=%d]", c.MajorityThreshold, c.R)
	case c.RUUSize < c.R:
		return fmt.Errorf("cpu: RUU size %d cannot hold one R=%d group", c.RUUSize, c.R)
	case c.LSQSize < 1:
		return fmt.Errorf("cpu: LSQ size %d < 1", c.LSQSize)
	case c.FetchWidth < 1 || c.DispatchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("cpu: widths must be >= 1")
	case c.DispatchWidth < c.R || c.CommitWidth < c.R:
		return fmt.Errorf("cpu: dispatch/commit width must be >= R to make progress")
	case c.IntALU < 1 || c.IntMult < 1 || c.FPAdd < 1 || c.FPMult < 1 || c.MemPorts < 1:
		return fmt.Errorf("cpu: every functional unit pool needs at least one unit")
	case c.FetchQueue < c.FetchWidth:
		return fmt.Errorf("cpu: fetch queue %d smaller than fetch width %d", c.FetchQueue, c.FetchWidth)
	}
	return nil
}

// ruuSize is the architectural RUU capacity: Section 3.2 provisions
// the RUU as a multiple of R so a group's R copies always fit together.
// (The storage ring is a power of two regardless of R.)
func (c *Config) ruuSize() int { return c.RUUSize - c.RUUSize%c.R }

// Baseline returns the paper's Table 1 machine: an 8-way out-of-order
// superscalar with a 128-entry RUU, 64-entry LSQ, 4 integer ALUs, 2
// integer multipliers, 2 FP adders, 1 FP multiplier/divider and 2 D-cache
// ports, with the combined branch predictor and the Table 1 cache
// hierarchy.
func Baseline() Config {
	return Config{
		Name:            "SS-1",
		FetchWidth:      8,
		FetchQueue:      16,
		RedirectPenalty: 2,
		DispatchWidth:   8,
		IssueWidth:      8,
		CommitWidth:     8,
		RUUSize:         128,
		LSQSize:         64,
		IntALU:          4,
		IntMult:         2,
		FPAdd:           2,
		FPMult:          1,
		MemPorts:        2,
		Hierarchy:       cache.DefaultHierarchy(),
		Bpred:           bpred.Default(),
		R:               1,
	}
}

// Halved returns the Static-2 pipeline of Section 5.1.2: one of the two
// statically partitioned lock-step pipelines, with half of every Table 1
// resource except the caches and branch predictor. Because FP multiply/
// divide cannot be split below one unit, each half keeps a full FPMult —
// the "extra FP Mult/Div unit" advantage the paper notes for Static-2.
func Halved() Config {
	c := Baseline()
	c.Name = "Static-2"
	c.FetchWidth = 4
	c.FetchQueue = 8
	c.DispatchWidth = 4
	c.IssueWidth = 4
	c.CommitWidth = 4
	c.RUUSize = 64
	c.LSQSize = 32
	c.IntALU = 2
	c.IntMult = 1
	c.FPAdd = 1
	c.FPMult = 1 // indivisible: Static-2's advantage
	c.MemPorts = 1
	return c
}
