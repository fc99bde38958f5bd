// Package fault implements the transient-fault injection module from the
// paper's Section 5.1.1: "a fault injection module that can randomly
// corrupt some instructions based on a user-specified probability
// distribution function ... at any stage of the pipeline".
//
// Faults are single-event upsets: one bit flip in one speculative value
// belonging to one dynamically executed instruction copy. The injector
// never touches committed state (register file, memory, caches, rename
// table, committed next-PC), which the paper assumes is ECC-protected.
//
// The rate is expressed in faults per executed instruction copy, matching
// the analytical model's definition of f ("we expect 1 instruction
// execution to produce an incorrect result in 1/f instructions"), so an
// R-redundant machine sees group-level corruption at roughly R·f per
// retired instruction.
package fault

import (
	"fmt"
	"math/rand"
)

// Target selects which speculative value a fault corrupts.
type Target uint8

const (
	// TargetResult flips a bit in an instruction copy's computed result
	// as it is written back.
	TargetResult Target = iota
	// TargetAddress flips a bit in a memory instruction copy's computed
	// effective address.
	TargetAddress
	// TargetResident flips a bit in a completed result while it waits in
	// the ROB to commit (the paper's "value becomes corrupted while
	// waiting to commit" case, which forces re-checking at commit time).
	TargetResident
	// TargetBranch flips the computed outcome of a control-flow
	// instruction copy (its next-PC).
	TargetBranch

	// NumTargets counts the injection points; larger values name none.
	NumTargets
)

func (t Target) String() string {
	switch t {
	case TargetResult:
		return "result"
	case TargetAddress:
		return "address"
	case TargetResident:
		return "rob-resident"
	case TargetBranch:
		return "branch"
	}
	return "unknown"
}

// wireNames are the targets' names in a serialized machine
// description. They differ from String only for TargetResident, whose
// String form ("rob-resident") is part of the machine fingerprint.
var wireNames = [NumTargets]string{"result", "address", "resident", "branch"}

// MarshalText encodes a target by its wire name.
func (t Target) MarshalText() ([]byte, error) {
	if t >= NumTargets {
		return nil, fmt.Errorf("unknown fault target %d", uint8(t))
	}
	return []byte(wireNames[t]), nil
}

// UnmarshalText decodes a wire name: result, address, resident or
// branch.
func (t *Target) UnmarshalText(text []byte) error {
	for i, name := range wireNames {
		if name == string(text) {
			*t = Target(i)
			return nil
		}
	}
	return fmt.Errorf("unknown fault target %q", text)
}

// AllTargets lists every injection point.
var AllTargets = []Target{TargetResult, TargetAddress, TargetResident, TargetBranch}

// Config parameterises an Injector.
type Config struct {
	// Rate is the probability that a given executed instruction copy is
	// corrupted. Zero disables injection.
	Rate float64 `json:"rate,omitempty"`
	// Seed makes runs reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Targets are the enabled injection points; empty means
	// {TargetResult}.
	Targets []Target `json:"targets,omitempty"`
}

// Enabled reports whether the configuration injects any faults.
func (c Config) Enabled() bool { return c.Rate > 0 }

// Stats counts injected faults by target.
type Stats struct {
	Injected  uint64
	ByTarget  [NumTargets]uint64
	BitsFlips uint64
}

// Count returns the number of faults injected into the given target.
func (s *Stats) Count(t Target) uint64 { return s.ByTarget[t] }

// countedSource wraps a rand.Source and counts raw Int63 draws. It
// deliberately implements only rand.Source (not Source64): every
// generator method the injector uses — Float64, Intn — routes through
// src.Int63() exactly once per draw, so the count plus the seed is a
// complete, replayable description of the RNG state. That is what
// makes a machine snapshot able to capture "where the fault schedule
// is" without access to math/rand's unexported generator state.
type countedSource struct {
	src   rand.Source
	draws uint64
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// Injector decides, per executed instruction copy, whether to corrupt it
// and how. It is deterministic for a fixed seed.
type Injector struct {
	cfg     Config
	rng     *rand.Rand
	src     *countedSource
	targets []Target

	Stats Stats
}

// Renew returns an injector for cfg, or nil when cfg disables
// injection. A nil old builds a fresh injector; otherwise old's RNG
// storage is reseeded and reused. Reseeding a rand.Rand reproduces
// exactly the stream a fresh rand.New(rand.NewSource(seed)) would draw,
// so a recycled injector's fault schedule is bit-identical to a fresh
// injector's — the property the pooled-machine equivalence tests
// assert. The alternative, a new injector per trial, costs a ~5 KB
// generator state allocation each time.
func Renew(old *Injector, cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if old == nil {
		src := &countedSource{src: rand.NewSource(cfg.Seed)}
		old = &Injector{rng: rand.New(src), src: src}
	} else {
		old.rng.Seed(cfg.Seed)
	}
	old.cfg = cfg
	old.targets = cfg.Targets
	if len(old.targets) == 0 {
		old.targets = []Target{TargetResult}
	}
	old.Stats = Stats{}
	return old
}

// Draws reports how many raw RNG values the injector has consumed
// since its last (re)seed; nil-safe. Together with Config().Seed it
// pins the injector's exact position in the fault schedule.
func (in *Injector) Draws() uint64 {
	if in == nil {
		return 0
	}
	return in.src.draws
}

// RestoreState rewinds the injector to "seeded with cfg.Seed, then
// draws raw values consumed, with the given statistics". Replaying
// the counted draws against a fresh seed reproduces the generator
// state exactly, because every injector decision consumes whole
// Int63 draws (see countedSource).
func (in *Injector) RestoreState(draws uint64, stats Stats) {
	in.rng.Seed(in.cfg.Seed)
	for i := uint64(0); i < draws; i++ {
		in.src.src.Int63()
	}
	in.src.draws = draws
	in.Stats = stats
}

// Roll decides whether the current instruction copy suffers an upset and,
// if so, at which target. The injector is nil-safe: a nil injector never
// injects.
func (in *Injector) Roll() (Target, bool) {
	if in == nil || in.rng.Float64() >= in.cfg.Rate {
		return 0, false
	}
	t := in.targets[in.rng.Intn(len(in.targets))]
	in.Stats.Injected++
	in.Stats.ByTarget[t]++
	return t, true
}

// FlipBit returns v with one uniformly random bit inverted.
func (in *Injector) FlipBit(v uint64) uint64 {
	in.Stats.BitsFlips++
	return v ^ (1 << uint(in.rng.Intn(64)))
}

// FlipLowBit returns v with one random bit among the low n bits inverted;
// used for values like next-PC where high-bit flips would be
// indistinguishable from address wrap.
func (in *Injector) FlipLowBit(v uint64, n int) uint64 {
	in.Stats.BitsFlips++
	return v ^ (1 << uint(in.rng.Intn(n)))
}
