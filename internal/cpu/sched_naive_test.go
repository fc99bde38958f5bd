package cpu

import "repro/internal/trace"

// This file retains the original scan-based scheduler as a reference
// implementation, exactly as it ran before the event-driven kernel
// replaced it: issue scanned the whole RUU for ready entries, writeback
// scanned it for completions, and every completion broadcast to every
// entry. It exists only so TestScanVsEventEquivalence can prove the two
// kernels produce identical results; it is not built into the simulator.

// useNaiveScheduler switches a freshly built machine onto the reference
// scan scheduler. It must be called before Run. The datapath still
// feeds the event structures; the reference stages ignore the ready
// set and wait-lists, whose slots dispatch clears on reuse, and drain
// the calendar so it stays bounded.
func useNaiveScheduler(m *Machine) {
	m.issueFn = (*Machine).issueScanRef
	m.writebackFn = (*Machine).writebackScanRef
}

// issueScanRef is the original issue stage: scan all valid entries
// oldest to youngest, attempting each un-issued ready one until the
// issue width is spent.
func (m *Machine) issueScanRef() {
	budget := m.cfg.IssueWidth
	m.ruu.forEach(func(idx int, e *Entry) bool {
		if budget == 0 {
			return false
		}
		if e.Issued || !e.ready() {
			return true
		}
		if m.tryIssueEntry(idx, e) == issueOK {
			budget--
		}
		return true
	})
}

// writebackScanRef is the original writeback stage: scan for entries
// whose DoneAt has arrived, oldest first so the eldest mispredicted
// branch squashes before younger completions are looked at.
func (m *Machine) writebackScanRef() {
	m.cal.drain(m.cycle)
	m.ruu.forEach(func(idx int, e *Entry) bool {
		if !e.InFlight || e.DoneAt > m.cycle {
			return true
		}
		e.InFlight = false
		e.Done = true
		m.emit(trace.StageComplete, e)
		m.broadcastScanRef(idx, e)
		if e.OI.IsCtrl() && e.NextPC != e.PredNext {
			m.branchRewind(idx, e)
			// The squash may have invalidated everything younger;
			// continue the scan (they are skipped via the Valid check).
		}
		return true
	})
}

// broadcastScanRef delivers a completed result by scanning every entry
// for waiting operands, as the original kernel did.
func (m *Machine) broadcastScanRef(idx int, producer *Entry) {
	m.ruu.forEach(func(_ int, e *Entry) bool {
		for i := range e.Ops {
			op := &e.Ops[i]
			if op.Used && !op.Ready && op.Producer == idx && op.ProducerSeq == producer.Seq {
				op.Ready = true
				op.Value = producer.Result
			}
		}
		return true
	})
}
