package ftsim

import (
	"repro/internal/cpu"
	"repro/internal/snap"
)

// Snapshot and restore make long simulations durable: a session's
// complete simulation state — architectural registers and memory,
// fetch front-end, branch predictor and cache contents, fault-injector
// RNG position, and every statistics counter — serialises to a
// versioned, checksummed blob, and a machine of an equivalent
// configuration can later resume the run from exactly that point.
// A restored run's results are bit-identical to the donor continuing
// uninterrupted (the snapshot equivalence suite is the referee).

var (
	// ErrSnapshotMismatch reports a snapshot taken under a machine
	// configuration incompatible with the one restoring it. Run limits
	// (MaxInsts, MaxCycles) are exempt, so a snapshotted workload can
	// resume under a larger budget.
	ErrSnapshotMismatch = cpu.ErrSnapshotMismatch

	// ErrSnapshotCorrupt reports a snapshot blob that is torn,
	// bit-flipped, truncated, or otherwise structurally damaged; the
	// restore rejects it before touching any machine state.
	ErrSnapshotCorrupt = snap.ErrCorrupt
)

// Snapshot serialises the session's simulation state. It may be taken
// at any point — before Run, or after Run returned (including a
// cancelled Run, which is how a checkpoint of an in-flight workload is
// made: cancel, Snapshot, persist). It must not be called while Run is
// executing on another goroutine. Taking a snapshot quiesces the
// pipeline by discarding in-flight speculative work (the same
// ECC-protected rewind the paper's fault recovery uses), which is
// results-invisible: the discarded work replays after restore exactly
// as it would have re-executed after a fault.
func (s *Session) Snapshot() []byte { return s.cm.Snapshot() }

// Restore builds a session that resumes a snapshotted run on this
// machine. The machine's configuration must be equivalent to the
// donor's (same datapath, redundancy, fault model — run limits may
// differ); otherwise ErrSnapshotMismatch. Damaged blobs fail with
// ErrSnapshotCorrupt. The restored session is fresh: its Run executes
// the remainder of the workload, streaming observer samples relative
// to the snapshot point.
func (m *Machine) Restore(data []byte) (*Session, error) {
	cm := new(cpu.Machine)
	if err := cm.Restore(m.cfg, data); err != nil {
		return nil, err
	}
	s := m.newSession(cm)
	// Seed the observer's interval baseline from the restored counters
	// so the first sample reports progress since the snapshot, not a
	// bogus jump from zero.
	st := cm.Stats()
	s.prevCycles, s.prevCommitted = st.Cycles, st.Committed
	s.prevDetected, s.prevRewinds = st.FaultsDetected, st.FaultRewinds
	return s, nil
}
