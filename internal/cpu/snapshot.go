package cpu

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/mem"
	"repro/internal/snap"
)

// ErrSnapshotMismatch reports a snapshot applied to a machine whose
// configuration fingerprint differs from the donor's: same-shaped
// hardware is a precondition for restoring table state in place.
var ErrSnapshotMismatch = errors.New("cpu: snapshot was taken under a different machine configuration")

// maxRestoreDraws bounds the injector RNG replay a snapshot may
// request. Real runs consume on the order of one draw per executed
// instruction copy; the cap (about 10^9) is far beyond any practical
// campaign trial while keeping a hostile snapshot from wedging
// Restore in an unbounded replay loop.
const maxRestoreDraws = 1 << 30

// Fingerprint hashes the configuration fields that determine machine
// behaviour — geometry, widths, penalties, hierarchy, predictor,
// redundancy policy, checker identity, fault programme — into one
// value. Two configurations with equal fingerprints build machines
// that execute identically, so a snapshot is portable between them.
// It hashes what the machine uses, not what was asked for: the RUU
// size rounded down to a multiple of R, and a disabled fault programme
// as the zero fault.Config whatever its seed, so RUU 128 and RUU 126
// give an R=3 machine the same fingerprint.
// Run limits (MaxInsts/MaxCycles) and the cosmetic Name and Model are
// excluded: they affect when a run stops or what a host sees, never
// what the machine computes, and excluding them is what lets a snapshot
// taken under one instruction budget resume under a larger one.
func (c *Config) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fw%d fq%d rp%d rcp%d dw%d iw%d cw%d ruu%d lsq%d",
		c.FetchWidth, c.FetchQueue, c.RedirectPenalty, c.RecoveryPenalty,
		c.DispatchWidth, c.IssueWidth, c.CommitWidth, c.ruuSize(), c.LSQSize)
	fmt.Fprintf(h, " fu%d,%d,%d,%d,%d", c.IntALU, c.IntMult, c.FPAdd, c.FPMult, c.MemPorts)
	// The memory text is the one a named-level hierarchy type once
	// printed, kept verbatim so stored fingerprints stay valid.
	fmt.Fprintf(h, " mem{IL1:il1 %v DL1:dl1 %v L2:ul2 %v MemLatency:%d}",
		c.Memory.IL1, c.Memory.DL1, c.Memory.L2, c.Memory.Latency)
	fmt.Fprintf(h, " bp%+v", c.BranchPred.Canonical())
	fmt.Fprintf(h, " r%d cosched%v transform%v oracle%v", c.R, c.CoSchedule, c.TransformOperands, c.Oracle)
	switch {
	case c.R == 1:
		fmt.Fprint(h, " chk:nil")
	case c.Majority:
		fmt.Fprintf(h, " chk:%#x", 0x6d616a00<<32|uint64(uint32(c.R))<<16|uint64(uint16(c.MajorityThreshold)))
	default:
		fmt.Fprintf(h, " chk:%#x", uint64(0x726577696e6431)) // "rewind1"
	}
	var fc fault.Config
	if c.Fault.Enabled() {
		fc = c.Fault
	}
	fmt.Fprintf(h, " inj:%v/%d/%v", fc.Rate, fc.Seed, fc.Targets)
	if c.Persistent != nil {
		fmt.Fprintf(h, " pers:%+v", *c.Persistent)
	}
	return h.Sum64()
}

// quiesce drains all speculative state so the machine's behaviour is
// fully determined by its committed state plus timing scalars. It is
// the paper's own recovery action (faultRewind) re-purposed: discard
// the entire RUU and LSQ, clear the rename map, refetch from the
// ECC-protected committed next-PC — except that nothing is counted as
// a fault and no recovery penalty is charged, because no fault
// occurred. After quiesce, the wait-lists, ready set, completion
// calendar and decode cache contain only records and bits that the
// scheduler's stale-entry guards make behaviourally invisible, so a
// snapshot need not encode them; the machine that continues past the
// quiesce and a machine restored from the snapshot execute
// byte-identically from here on.
func (m *Machine) quiesce() {
	if m.ruu.count > 0 {
		m.emitSquashes(0, true)
	}
	m.ruu.truncateAfter(0, true)
	m.lsq.truncateAfter(0, true)
	for i := range m.mapTable {
		m.mapTable[i] = mapRef{}
	}
	// redirect imposes the front-end refill bubble; a longer stall
	// already in force (an I-cache miss in flight, an unfinished
	// recovery penalty) must survive it, or the quiesce would shorten
	// a stall the uninterrupted machine pays in full.
	stall := m.stallUntil
	m.redirect(m.committedNextPC())
	if stall > m.stallUntil {
		m.stallUntil = stall
	}
}

// Snapshot quiesces the machine (see quiesce) and returns a versioned
// binary encoding of its complete post-quiesce state: committed
// registers and memory, the ECC next-PC, front-end and run counters,
// functional-unit timing, branch predictor and cache contents, the
// fault injector's RNG position, and the accumulated statistics.
//
// Snapshot is deterministic and restartable: the machine remains
// usable and continues from exactly the encoded state, so a run
// interrupted by Snapshot + Restore on a fresh machine is
// byte-identical (same statistics, same output) to the donor
// continuing without the serialisation round-trip. The quiesce does
// perturb microarchitectural timing relative to a run that never
// snapshotted — it squashes in-flight work, exactly as the paper's
// recovery does — so snapshots cost a pipeline refill, not silent
// divergence.
func (m *Machine) Snapshot() []byte {
	m.quiesce()
	w := snap.NewWriter(4096)
	w.U64(m.cfg.Fingerprint())
	m.state(snap.Codec{W: w})
	return w.Finish()
}

// Restore re-initialises the machine in place from a snapshot taken
// under a configuration with the same Fingerprint, reusing the Reset
// slab machinery. On success the machine continues exactly where the
// donor's Snapshot call left it. On error the machine may be left
// partially overwritten and must be Reset (or discarded) before use.
//
// cfg may differ from the donor's in the non-fingerprinted fields —
// notably MaxInsts/MaxCycles, so a workload snapshotted at one budget
// can resume under a larger one. The machine's fault injector is
// reseeded from cfg.Fault and then rewound to the donor's RNG
// position.
func (m *Machine) Restore(cfg Config, data []byte) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r, err := snap.NewReader(data)
	if err != nil {
		return err
	}
	if fp := r.U64(); fp != cfg.Fingerprint() {
		return fmt.Errorf("%w (snapshot %#x, config %#x)", ErrSnapshotMismatch, fp, cfg.Fingerprint())
	}
	m.resetHardware(cfg)
	m.state(snap.Codec{R: r})
	if err := r.Done(); err != nil {
		return err
	}

	// The oracle co-simulation tracks the committed state exactly while
	// it is live (a diverged oracle is abandoned), so it can be rebuilt
	// from the restored committed state instead of being serialised.
	m.oracleLive = m.oracleLive && cfg.Oracle
	if m.oracleLive {
		m.oracle = &funcsim.Machine{
			Regs:   m.regs,
			PC:     m.committedNextPC(),
			Mem:    m.mem.Clone(),
			Halted: m.halted,
			Insts:  m.stats.Committed,
		}
	}
	return nil
}

// state transfers the machine's post-quiesce state through c, in the
// order of snap format version 1. Snapshot runs it with a Writer on a
// quiesced machine; Restore runs it with a Reader on a machine that
// resetHardware has just cleared. The steps that differ by direction
// branch on c.R.
func (m *Machine) state(c snap.Codec) {
	// Run counters and front end. A machine's history cannot postdate
	// its clock: the run loop measures progress and recovery as cycle
	// differences, which a later lastCommitCycle or recoveryStart would
	// wrap around.
	c.U64(&m.cycle, &m.seq, &m.gid)
	c.Bool(&m.halted)
	c.Bool(&m.pendingRecovery)
	c.U64(&m.recoveryStart, &m.lastCommitCycle, &m.fetchPC, &m.stallUntil)
	c.Bool(&m.fetchHalt)
	if m.lastCommitCycle > m.cycle {
		c.Corruptf("last commit at cycle %d after cycle %d", m.lastCommitCycle, m.cycle)
	}
	if m.pendingRecovery && m.recoveryStart > m.cycle {
		c.Corruptf("recovery started at cycle %d after cycle %d", m.recoveryStart, m.cycle)
	}

	// Committed architectural state.
	c.U64s("register file", m.regs[:])
	pc := m.committedNextPC() // 0 on a machine being restored
	c.U64(&pc)
	if c.R != nil {
		m.nextPC.Set(pc)
	}
	c.U64(&m.nextPC.CorrectedCount)
	m.pages(c)

	// Functional-unit timing: units stay busy across the quiesce, as
	// pipelined hardware drains rather than resets. pools[PoolNone] is
	// nil and skipped.
	for _, p := range m.fus.pools {
		if p != nil {
			c.U64s(fmt.Sprint("pool ", p.pool, " units"), p.busyUntil)
		}
	}

	m.bp.Snapshot(c)
	m.caches.Snapshot(c)
	m.injectorState(c)
	m.stats.transfer(c)
	c.Bool(&m.oracleLive)
}

// pages transfers the non-zero memory pages: their count, then each
// page's index and bytes in ascending index order.
func (m *Machine) pages(c snap.Codec) {
	if c.R == nil {
		pages := m.mem.NonZeroPages()
		c.W.U32(uint32(len(pages)))
		for _, idx := range pages {
			c.W.U64(idx)
			c.W.Bytes(m.mem.PageData(idx))
		}
		return
	}
	r := c.R
	n := r.U32()
	if uint64(n) > uint64(r.Len()/(8+4)) {
		r.Corruptf("page count %d exceeds payload", n)
		return
	}
	var prev uint64
	for i := uint32(0); i < n; i++ {
		idx := r.U64()
		if i > 0 && idx <= prev {
			r.Corruptf("page indices not strictly increasing at %#x", idx)
			return
		}
		prev = idx
		data := r.Bytes()
		if len(data) != mem.PageSize {
			r.Corruptf("page %#x has %d bytes, want %d", idx, len(data), mem.PageSize)
			return
		}
		m.mem.LoadPage(idx, data)
	}
}

// injectorState transfers the fault injector's position. Its seed lives
// in the config (fingerprinted); the draw count pins the RNG's exact
// position in the fault schedule.
func (m *Machine) injectorState(c snap.Codec) {
	has := m.injector != nil
	c.Bool(&has)
	switch {
	case has && m.injector == nil:
		// Unreachable past a fingerprint match (the injector config
		// is hashed), but a decoder must not trust that.
		c.Corruptf("snapshot has injector state but config has no injector")
	case !has && m.injector != nil:
		c.Corruptf("config has an injector but snapshot has no injector state")
	case has:
		draws, fs := m.injector.Draws(), m.injector.Stats
		c.U64(&draws)
		if draws > maxRestoreDraws {
			c.Corruptf("injector draw count %d exceeds restore limit", draws)
		}
		faultStats(c, "injector", &fs)
		if c.R != nil && c.R.Err() == nil {
			m.injector.RestoreState(draws, fs)
		}
	}
}

// faultStats transfers fault statistics, which a snapshot holds twice:
// the injector's own and the run's Stats.Fault.
func faultStats(c snap.Codec, what string, s *fault.Stats) {
	c.U64(&s.Injected)
	c.U64s(what+" targets", s.ByTarget[:])
	c.U64(&s.BitsFlips)
}

// transfer moves every Stats field through c in declaration order. The
// subsystem aggregates (Bpred, caches, Fault) are included even though
// finishStats refreshes them from the live components, so a snapshot
// round-trips a finished run's Stats exactly.
func (s *Stats) transfer(c snap.Codec) {
	c.U64(&s.Cycles, &s.Committed, &s.Copies, &s.Fetched, &s.Dispatched, &s.Issued,
		&s.FetchICacheStall, &s.FetchQueueFull, &s.DispatchRUUFull, &s.DispatchLSQFull,
		&s.BranchRewinds, &s.SquashedUops, &s.FaultsDetected, &s.PCCheckFails,
		&s.FaultRewinds, &s.MajorityCommits, &s.RecoveryCycles, &s.EscapedFaults,
		&s.RUUOccupancy, &s.LSQOccupancy)
	s.Bpred.Snapshot(c)
	s.IL1.Snapshot(c)
	s.DL1.Snapshot(c)
	s.L2.Snapshot(c)
	faultStats(c, "fault", &s.Fault)
	// Output is the one field the geometry does not size: decoding
	// allocates it from its count, which the bytes left must cover.
	n := uint32(len(s.Output))
	c.U32(&n)
	if c.R != nil {
		if uint64(n) > uint64(c.R.Len()/8) {
			c.Corruptf("output length %d exceeds payload", n)
			return
		}
		if n > 0 {
			s.Output = make([]uint64, n)
		}
	}
	for i := range s.Output {
		c.U64(&s.Output[i])
	}
	c.Bool(&s.Halted)
}
