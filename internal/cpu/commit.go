package cpu

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/trace"
)

// commit retires instruction groups in order from the RUU head, up to
// CommitWidth entries per cycle. In redundant mode each group's R copies
// are cross-checked (Section 3.2, "Fault Detection") and a mismatch
// triggers rewind-based recovery; an "R = 1" machine commits unchecked.
func (m *Machine) commit() error {
	budget := m.cfg.CommitWidth
	// The group scratch is a machine field: a local make() here escapes
	// (the Checker interface call keeps it from being stack-allocated)
	// and was, at one allocation per simulated cycle, by far the largest
	// allocation source in the whole simulator. Its capacity is >= R, so
	// the appends below never grow it.
	group := m.commitGroup[:0]
	for budget >= m.cfg.R && !m.ruu.empty() {
		group = group[:0]
		headIdx := m.ruu.head
		c0 := m.ruu.at(headIdx)
		if !c0.Valid || c0.Copy != 0 {
			return fmt.Errorf("cpu: corrupt RUU head (valid=%v copy=%d)", c0.Valid, c0.Copy)
		}
		allDone := true
		for k := 0; k < m.cfg.R; k++ {
			e := m.ruu.at(m.ruu.wrap(headIdx + k))
			if !e.Valid || e.GID != c0.GID || e.Copy != k {
				return fmt.Errorf("cpu: group %d misaligned at commit", c0.GID)
			}
			if !e.Done {
				allDone = false
				break
			}
			group = append(group, e)
		}
		if !allDone {
			break
		}

		// Apply any pending ROB-resident corruption now, so the commit
		// stage's re-check is what catches it (Section 3.2: copies "must
		// still be rechecked at commit time in case a value becomes
		// corrupted while waiting to commit").
		for _, e := range group {
			if e.Inject && e.InjectTarget == fault.TargetResident && !e.ResidentDone {
				e.ResidentDone = true
				m.corruptResident(e)
			}
		}

		oi := c0.OI

		if m.cfg.R > 1 {
			// Control-flow continuity: every retiring instruction's PC is
			// checked against the ECC-protected committed next-PC.
			if c0.PC != m.committedNextPC() {
				m.stats.PCCheckFails++
				m.stats.FaultsDetected++
				m.faultRewind()
				return nil
			}
			verdict := m.checker.Check(group)
			if verdict.Mismatch {
				m.stats.FaultsDetected++
			}
			if !verdict.OK {
				m.faultRewind()
				return nil
			}
			if verdict.Majority {
				m.stats.MajorityCommits++
			}
			if err := m.retire(c0, group[verdict.Copy], oi); err != nil {
				return err
			}
		} else {
			if err := m.retire(c0, c0, oi); err != nil {
				return err
			}
		}

		for _, e := range group {
			m.emit(trace.StageCommit, e)
		}
		// Free the group's resources. Note: release zeroes the ring
		// slots, so read everything needed from c0 first.
		isHalt := c0.Inst.Op == isa.OpHalt
		if c0.LSQ >= 0 {
			m.lsq.releaseHead(c0.GID)
		}
		for k := 0; k < m.cfg.R; k++ {
			m.ruu.release()
		}
		budget -= m.cfg.R
		m.stats.Committed++
		m.stats.Copies += uint64(m.cfg.R)
		m.lastCommitCycle = m.cycle
		if m.pendingRecovery {
			m.stats.RecoveryCycles += m.cycle - m.recoveryStart
			m.pendingRecovery = false
		}
		if isHalt {
			m.halted = true
			return nil
		}
		if m.cfg.MaxInsts > 0 && m.stats.Committed >= m.cfg.MaxInsts {
			m.stopped = true
			return nil
		}
	}
	return nil
}

// corruptResident flips a bit in the value the commit stage will check,
// modelling an upset of a completed result sitting in the RUU.
func (m *Machine) corruptResident(e *Entry) {
	oi := e.OI
	switch {
	case oi.IsCtrl():
		e.NextPC = m.injector.FlipLowBit(e.NextPC, 32)
	case oi.IsStore:
		e.StoreVal = m.injector.FlipBit(e.StoreVal)
	default:
		e.Result = m.injector.FlipBit(e.Result)
	}
}

// retire applies one instruction's architectural effects, using the
// values of the chosen (cross-checked or majority) copy, and steps the
// oracle. The returned error is non-nil only under StrictOracle, when
// the co-simulation diverges.
func (m *Machine) retire(c0, chosen *Entry, oi *isa.OpInfo) error {
	in := c0.Inst

	// Release the map table reference if this group is still the latest
	// producer; younger consumers will then read the committed value.
	if oi.WritesRd && in.Rd != isa.RegZero {
		ref := m.mapTable[in.Rd]
		if ref.valid && ref.seq == c0.Seq {
			m.mapTable[in.Rd] = mapRef{}
		}
		m.regs[in.Rd] = chosen.Result
	}

	size := 0
	if oi.IsMem() {
		size, _ = isa.LoadWidth(in.Op)
	}
	if oi.IsStore {
		// The single, checked memory write (write port traffic is
		// absorbed by the store buffer and does not stall commit).
		m.mem.Write(chosen.EA, size, chosen.StoreVal)
		m.caches.DAccess(chosen.EA, true)
		// Keep the decoded-instruction cache coherent with committed
		// memory in case the store landed on fetched code.
		m.decInvalidate(chosen.EA, size)
	}
	if in.Op == isa.OpOut {
		m.stats.Output = append(m.stats.Output, chosen.Result)
	}
	if oi.IsCtrl() {
		m.bp.Update(c0.PC, in, chosen.Taken, chosen.NextPC, c0.Pred)
	}
	m.nextPC.Set(chosen.NextPC)

	if m.oracleLive {
		return m.checkOracle(c0, chosen, oi, size)
	}
	return nil
}

// checkOracle steps the in-order co-simulation one instruction and
// compares every architectural effect, per Section 5.1.1. The first
// divergence marks an escaped fault; comparison stops afterwards because
// the two states can no longer agree. Under StrictOracle the divergence
// additionally aborts the run with an *OracleError.
func (m *Machine) checkOracle(c0, chosen *Entry, oi *isa.OpInfo, size int) error {
	got := funcsim.Effect{
		PC:     c0.PC,
		Inst:   c0.Inst,
		NextPC: chosen.NextPC,
		Halted: c0.Inst.Op == isa.OpHalt,
	}
	if oi.WritesRd && c0.Inst.Rd != isa.RegZero {
		got.WritesReg = true
		got.Reg = c0.Inst.Rd
		got.RegVal = chosen.Result
	}
	if oi.IsLoad {
		got.IsLoad = true
		got.MemAddr = chosen.EA
		got.MemSize = size
	}
	if oi.IsStore {
		got.IsStore = true
		got.MemAddr = chosen.EA
		got.MemSize = size
		got.StoreVal = chosen.StoreVal
	}
	if c0.Inst.Op == isa.OpOut {
		got.Out = true
		got.OutVal = chosen.Result
	}

	want, err := m.oracle.Step()
	if err != nil {
		m.stats.EscapedFaults++
		m.oracleLive = false
		if m.cfg.StrictOracle {
			return &OracleError{Cycle: m.cycle, PC: c0.PC, Diff: "oracle: " + err.Error()}
		}
		return nil
	}
	if diff := want.Mismatch(got); diff != "" {
		m.stats.EscapedFaults++
		m.oracleLive = false
		if m.cfg.StrictOracle {
			return &OracleError{Cycle: m.cycle, PC: c0.PC, Diff: diff}
		}
	}
	return nil
}

// ErrOracleMismatch is the sentinel every *OracleError unwraps to: the
// in-order co-simulation of Section 5.1.1 diverged from the pipeline's
// committed architectural state, meaning corrupted state escaped the
// commit-stage checks and was committed.
var ErrOracleMismatch = errors.New("cpu: oracle co-simulation diverged (corrupted state committed)")

// OracleError reports the first oracle divergence of a StrictOracle run.
type OracleError struct {
	Cycle uint64 // cycle of the diverging commit
	PC    uint64 // program counter of the diverging instruction
	Diff  string // which architectural effect disagreed
}

func (e *OracleError) Error() string {
	return fmt.Sprintf("%v at cycle %d (pc %#x): %s", ErrOracleMismatch, e.Cycle, e.PC, e.Diff)
}

// Unwrap makes errors.Is(err, ErrOracleMismatch) hold.
func (e *OracleError) Unwrap() error { return ErrOracleMismatch }

// faultRewind is the paper's recovery action: discard the entire RUU and
// restart execution by refetching from the committed next-PC register.
func (m *Machine) faultRewind() {
	m.stats.FaultRewinds++
	m.emitSquashes(0, true)
	m.stats.SquashedUops += uint64(m.ruu.count)
	m.ruu.truncateAfter(0, true)
	m.lsq.truncateAfter(0, true)
	for i := range m.mapTable {
		m.mapTable[i] = mapRef{}
	}
	m.redirect(m.committedNextPC())
	m.stallUntil += uint64(m.cfg.RecoveryPenalty)
	m.pendingRecovery = true
	m.recoveryStart = m.cycle
}

// committedNextPC reads the ECC-protected next-PC register, scrubbing a
// single-bit upset if one has occurred since the last read.
func (m *Machine) committedNextPC() uint64 {
	v, ok := m.nextPC.Get()
	if !ok {
		// A double-bit upset of the recovery anchor is outside the
		// paper's fault model (committed state is information-redundant);
		// reaching this line means the simulator itself is broken.
		panic("cpu: uncorrectable upset in the committed next-PC register")
	}
	return v
}

// UpsetNextPC flips one bit of the stored committed next-PC, for tests
// demonstrating that the ECC domain absorbs single-event upsets that
// would otherwise break recovery.
func (m *Machine) UpsetNextPC(bit uint) { m.nextPC.Upset(bit) }
