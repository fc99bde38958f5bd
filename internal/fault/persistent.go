package fault

import "repro/internal/isa"

// Persistent models a hard (non-transient) fault: a stuck-at-1 bit in
// the bitwise-logic slice of one physical functional unit. Unlike the
// transient injector, it corrupts *every* logical operation executed on
// that unit, in the same way — the failure mode Section 2.2 warns makes
// errors "indiscernible" to space- or time-redundant execution unless
// the redundant computations are made non-identical.
//
// The paper's cited workaround (Patel & Fung: recomputing with shifted/
// rotated operands) is implemented by the datapath's TransformOperands
// option: redundant copy k of a bitwise operation executes with both
// operands rotated left by k and its result rotated back, so a stuck bit
// in the shared unit lands on different result bits in different copies
// and the commit-stage cross-check exposes it.
type Persistent struct {
	// Pool and Unit name the damaged physical unit instance.
	Pool isa.Pool `json:"pool"`
	Unit int      `json:"unit"`
	// Bit is the stuck-at-1 position in the unit's result.
	Bit uint `json:"bit"`
}

// Affects reports whether the fault corrupts an operation of the given
// opcode executed on the given pool/unit. Only register-register bitwise
// logic flows through the damaged slice.
func (p *Persistent) Affects(op isa.Op, pool isa.Pool, unit int) bool {
	if p == nil || pool != p.Pool || unit != p.Unit {
		return false
	}
	switch op {
	case isa.OpAnd, isa.OpOr, isa.OpXor:
		return true
	}
	return false
}

// Apply forces the stuck bit in a raw result value.
func (p *Persistent) Apply(v uint64) uint64 {
	return v | 1<<(p.Bit&63)
}
