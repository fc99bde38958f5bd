package cpu

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Issue: select ready entries oldest-first, allocate functional units,
// compute results (execute-in-pipeline) and schedule completion. The
// selection loop lives in sched.go (issueEvent); the per-entry issue
// attempt below is shared with the reference scan scheduler.

// issueResult classifies one issue attempt for the scheduler.
type issueResult uint8

const (
	// issueOK: the entry started executing and consumed issue width.
	issueOK issueResult = iota
	// issueStall: a structural hazard (busy functional unit, blocked
	// load) with no completion event tied to its resolution; the
	// scheduler retries next cycle.
	issueStall
	// issueParked: a redundant load copy gated on its group's single
	// memory access; copy 0's completion re-queues it, so the scheduler
	// need not retry in between.
	issueParked
)

// tryIssueEntry attempts to start execution of one entry this cycle.
func (m *Machine) tryIssueEntry(idx int, e *Entry) issueResult {
	oi := e.OI

	// Redundant copies of loads consume the single memory access's
	// result; they become eligible only once the group's access is done
	// (Section 5.1.2: addresses are computed redundantly, but only one
	// memory access is performed).
	if oi.IsLoad && e.Copy != 0 {
		c0 := m.groupCopy0(idx, e)
		if c0 == nil || !c0.Done {
			return issueParked
		}
		if c0.LSQ < 0 || !m.lsq.at(c0.LSQ).dataValid {
			return issueStall
		}
	}

	pool := m.fus.get(oi.Pool)
	unit := -1
	if pool != nil {
		prefer := -1
		if m.cfg.CoSchedule && m.cfg.R > 1 && e.Copy > 0 {
			if c0 := m.groupCopy0(idx, e); c0 != nil && c0.Issued && c0.FUUnit >= 0 {
				prefer = (c0.FUUnit + e.Copy) % pool.units()
			}
		}
		unit = pool.tryIssue(m.cycle, oi.Latency, oi.Pipelined, prefer)
		if unit < 0 {
			return issueStall
		}
	}

	// Loads must pass disambiguation before the port reservation is
	// real; compute the address first.
	a, b := e.Ops[0].Value, e.Ops[1].Value
	latency := oi.Latency

	// Decide fault injection for this executed copy.
	if tgt, hit := m.injector.Roll(); hit {
		e.Inject = true
		e.InjectTarget = m.mapInjectTarget(tgt, oi)
	}

	switch {
	case oi.IsLoad:
		e.EA = isa.EffAddr(e.Inst.Imm, a)
		if e.Inject && e.InjectTarget == fault.TargetAddress {
			e.EA = m.injector.FlipLowBit(e.EA, 32)
		}
		if e.Copy == 0 {
			lat, ok := m.issueLoad(e)
			if !ok {
				// Blocked on an older store: release nothing (the port
				// reservation for this cycle is wasted, as in a real
				// replay) and retry next cycle.
				e.Inject = false
				return issueStall
			}
			latency += lat
		} else {
			le := m.lsq.at(m.groupCopy0(idx, e).LSQ)
			e.Result = le.loadVal
			if e.Inject && e.InjectTarget == fault.TargetResult {
				e.Result = m.injector.FlipBit(e.Result)
			}
		}
		e.NextPC = e.PC + isa.InstBytes
	case oi.IsStore:
		e.EA = isa.EffAddr(e.Inst.Imm, a)
		if e.Inject && e.InjectTarget == fault.TargetAddress {
			e.EA = m.injector.FlipLowBit(e.EA, 32)
		}
		e.StoreVal = b
		if e.Inject && e.InjectTarget == fault.TargetResult {
			e.StoreVal = m.injector.FlipBit(e.StoreVal)
		}
		if e.Copy == 0 {
			le := m.lsq.at(e.LSQ)
			le.addrReady = true
			le.addr = e.EA
			size, _ := isa.LoadWidth(e.Inst.Op)
			le.size = size
			le.dataReady = true
			le.data = e.StoreVal
		}
		e.NextPC = e.PC + isa.InstBytes
	case oi.IsCtrl():
		taken, next, link := isa.EvalCtrl(e.Inst.Op, e.PC, e.Inst.Imm, a, b)
		e.Taken, e.NextPC, e.Result = taken, next, link
		if e.Inject && e.InjectTarget == fault.TargetBranch {
			e.NextPC = m.injector.FlipLowBit(e.NextPC, 32)
			e.Taken = true
		}
	default:
		e.Result = m.evalALU(e, a, b, unit)
		if e.Inject && e.InjectTarget == fault.TargetResult {
			e.Result = m.injector.FlipBit(e.Result)
		}
		e.NextPC = e.PC + isa.InstBytes
	}

	e.Issued = true
	e.InFlight = true
	e.FUPool = oi.Pool
	e.FUUnit = unit
	e.DoneAt = m.cycle + uint64(latency)
	m.cal.insert(m.cycle, e.DoneAt, int32(idx), e.Seq)
	m.emit(trace.StageIssue, e)
	m.stats.Issued++
	return issueOK
}

// issueLoad performs disambiguation and, if clear, the single memory
// access for copy 0 of a load group. It returns the extra latency beyond
// address generation and whether the load could proceed.
func (m *Machine) issueLoad(e *Entry) (int, bool) {
	le := m.lsq.at(e.LSQ)
	le.addrReady = true
	le.addr = e.EA
	size, signExt := isa.LoadWidth(e.Inst.Op)
	le.size = size

	conflict, fwd := m.lsq.checkLoad(e.LSQ, e.EA, size)
	switch conflict {
	case loadBlocked:
		le.addrReady = false // recompute next attempt
		return 0, false
	case loadForward:
		val := fwd
		if signExt {
			val = isa.SignExtend(val, size)
		}
		le.dataValid = true
		le.loadVal = val
		le.performed = true
		e.Result = val
	default: // loadClear
		lat := m.caches.DAccess(e.EA, false)
		val := m.mem.Read(e.EA, size)
		if signExt {
			val = isa.SignExtend(val, size)
		}
		le.dataValid = true
		le.loadVal = val
		le.performed = true
		e.Result = val
		if e.Inject && e.InjectTarget == fault.TargetResult {
			e.Result = m.injector.FlipBit(e.Result)
		}
		return lat, true
	}
	if e.Inject && e.InjectTarget == fault.TargetResult {
		e.Result = m.injector.FlipBit(e.Result)
	}
	return 0, true
}

// evalALU computes a non-memory, non-control result, modelling the
// optional operand-rotation transform and any persistent stuck-bit fault
// in the executing unit. Rotation is applied only to register-register
// bitwise logic, for which it commutes exactly; the stuck bit corrupts
// the raw (rotated-domain) result, which is how a real damaged slice
// behaves and why the transform makes the corruption visible.
func (m *Machine) evalALU(e *Entry, a, b uint64, unit int) uint64 {
	op := e.Inst.Op
	rot := 0
	if m.cfg.TransformOperands && e.Copy > 0 && isBitwise(op) {
		rot = e.Copy
		a = bits.RotateLeft64(a, rot)
		b = bits.RotateLeft64(b, rot)
	}
	raw := isa.Eval(op, e.Inst.Imm, a, b)
	if m.cfg.Persistent.Affects(op, e.OI.Pool, unit) {
		raw = m.cfg.Persistent.Apply(raw)
	}
	if rot != 0 {
		raw = bits.RotateLeft64(raw, -rot)
	}
	return raw
}

func isBitwise(op isa.Op) bool {
	return op == isa.OpAnd || op == isa.OpOr || op == isa.OpXor
}

// mapInjectTarget narrows a rolled fault target to one that exists for
// this instruction class, so the configured rate applies uniformly.
func (m *Machine) mapInjectTarget(t fault.Target, oi *isa.OpInfo) fault.Target {
	switch t {
	case fault.TargetAddress:
		if !oi.IsMem() {
			return fault.TargetResult
		}
	case fault.TargetBranch:
		if !oi.IsCtrl() {
			return fault.TargetResult
		}
	}
	return t
}

// groupCopy0 returns copy 0 of the group containing entry e at ring
// index idx. Copies are allocated consecutively, so copy 0 sits e.Copy
// slots earlier in the ring.
func (m *Machine) groupCopy0(idx int, e *Entry) *Entry {
	c0 := m.ruu.at(m.ruu.wrap(idx - e.Copy))
	if !c0.Valid || c0.GID != e.GID {
		return nil
	}
	return c0
}

// ---------------------------------------------------------------------
// Writeback: publish completed results, wake up consumers, and resolve
// control flow (triggering branch rewinds on mispredictions). The
// event-driven drain lives in sched.go (writebackEvent); completion of
// one entry is handled by Machine.complete.

// branchRewind squashes every entry younger than the resolving branch's
// group and redirects fetch to the resolved target. All copies of the
// group adopt the new expected path so identical resolutions do not
// re-trigger. The event structures (wait-lists, ready set, calendar)
// are repaired lazily: stale records and bits are dropped when they
// next surface (see sched.go).
func (m *Machine) branchRewind(idx int, e *Entry) {
	// The group occupies copies 0..R-1; the boundary is the last copy.
	copy0Idx := m.ruu.wrap(idx - e.Copy)
	lastSeq := m.ruu.at(copy0Idx).Seq + uint64(m.cfg.R-1)

	m.emitSquashes(lastSeq, false)
	squashed := m.ruu.truncateAfter(lastSeq, false)
	m.stats.SquashedUops += uint64(squashed)
	m.lsq.truncateAfter(lastSeq, false)
	m.rebuildMapTable()
	m.redirect(e.NextPC)
	m.stats.BranchRewinds++

	for k := 0; k < m.cfg.R; k++ {
		ce := m.ruu.at(m.ruu.wrap(copy0Idx + k))
		if ce.Valid && ce.GID == e.GID {
			ce.PredNext = e.NextPC
		}
	}
}

// rebuildMapTable reconstructs the rename map from the surviving RUU
// contents after a squash (walk oldest to youngest; the youngest copy-0
// writer of each register wins).
func (m *Machine) rebuildMapTable() {
	for i := range m.mapTable {
		m.mapTable[i] = mapRef{}
	}
	m.ruu.forEach(func(idx int, e *Entry) bool {
		if e.Copy == 0 && e.OI.WritesRd && e.Inst.Rd != isa.RegZero {
			m.mapTable[e.Inst.Rd] = mapRef{valid: true, idx: idx, seq: e.Seq}
		}
		return true
	})
}
