package cpu

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/isa"
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
// Run limits (MaxInsts/MaxCycles), the cosmetic Name, StrictOracle
// and the observation/trace hooks are excluded: they affect when a
// run stops or what a host sees, never what the machine computes, and
// excluding them is what lets a snapshot taken under one instruction
// budget resume under a larger one.
func (c *Config) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fw%d fq%d rp%d rcp%d dw%d iw%d cw%d ruu%d lsq%d",
		c.FetchWidth, c.FetchQueue, c.RedirectPenalty, c.RecoveryPenalty,
		c.DispatchWidth, c.IssueWidth, c.CommitWidth, c.ruuSize(), c.LSQSize)
	fmt.Fprintf(h, " fu%d,%d,%d,%d,%d", c.IntALU, c.IntMult, c.FPAdd, c.FPMult, c.MemPorts)
	fmt.Fprintf(h, " mem%+v", c.Hierarchy)
	fmt.Fprintf(h, " bp%+v", c.Bpred.Canonical())
	fmt.Fprintf(h, " r%d cosched%v transform%v oracle%v", c.R, c.CoSchedule, c.TransformOperands, c.Oracle)
	switch {
	case c.R == 1:
		fmt.Fprint(h, " chk:nil")
	case c.Majority:
		fmt.Fprintf(h, " chk:%#x", 0x6d616a00<<32|uint64(uint32(c.R))<<16|uint64(uint16(c.MajorityThreshold)))
	default:
		fmt.Fprintf(h, " chk:%#x", 0x726577696e6431) // "rewind1"
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

	// Run counters and front end.
	w.U64(m.cycle)
	w.U64(m.seq)
	w.U64(m.gid)
	w.Bool(m.halted)
	w.Bool(m.pendingRecovery)
	w.U64(m.recoveryStart)
	w.U64(m.lastCommitCycle)
	w.U64(m.fetchPC)
	w.U64(m.stallUntil)
	w.Bool(m.fetchHalt)

	// Committed architectural state.
	w.U32(uint32(isa.NumRegs))
	for _, v := range m.regs {
		w.U64(v)
	}
	pc := m.committedNextPC()
	w.U64(pc)
	w.U64(m.nextPC.CorrectedCount)
	pages := m.mem.NonZeroPages()
	w.U32(uint32(len(pages)))
	for _, idx := range pages {
		w.U64(idx)
		w.Bytes(m.mem.PageData(idx))
	}

	// Functional-unit timing: units stay busy across the quiesce, as
	// pipelined hardware drains rather than resets. pools[PoolNone] is
	// nil and skipped on both sides.
	for _, p := range m.fus.pools {
		if p == nil {
			continue
		}
		w.U32(uint32(len(p.busyUntil)))
		for _, b := range p.busyUntil {
			w.U64(b)
		}
	}

	m.bp.EncodeSnapshot(w)
	m.caches.EncodeSnapshot(w)

	// Fault injector: seed lives in the config (fingerprinted); the
	// draw count pins the RNG's exact position in the fault schedule.
	w.Bool(m.injector != nil)
	if m.injector != nil {
		w.U64(m.injector.Draws())
		fs := &m.injector.Stats
		w.U64(fs.Injected)
		w.U32(uint32(len(fs.ByTarget)))
		for _, v := range fs.ByTarget {
			w.U64(v)
		}
		w.U64(fs.BitsFlips)
	}

	encodeStats(w, &m.stats)
	w.Bool(m.oracleLive)

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

	m.cycle = r.U64()
	m.seq = r.U64()
	m.gid = r.U64()
	m.halted = r.Bool()
	m.pendingRecovery = r.Bool()
	m.recoveryStart = r.U64()
	m.lastCommitCycle = r.U64()
	m.fetchPC = r.U64()
	m.stallUntil = r.U64()
	m.fetchHalt = r.Bool()

	if n := int(r.U32()); n == isa.NumRegs {
		for i := range m.regs {
			m.regs[i] = r.U64()
		}
	} else {
		r.Corruptf("register file size %d, want %d", n, isa.NumRegs)
	}
	committedPC := r.U64()
	m.nextPC.Set(committedPC)
	m.nextPC.CorrectedCount = r.U64()
	npages := int(r.U32())
	if npages > r.Len()/(8+4) {
		r.Corruptf("page count %d exceeds payload", npages)
	}
	prev, first := uint64(0), true
	for i := 0; i < npages && r.Err() == nil; i++ {
		idx := r.U64()
		if !first && idx <= prev {
			r.Corruptf("page indices not strictly increasing at %#x", idx)
			break
		}
		prev, first = idx, false
		data := r.Bytes()
		if len(data) != mem.PageSize {
			r.Corruptf("page %#x has %d bytes, want %d", idx, len(data), mem.PageSize)
			break
		}
		m.mem.LoadPage(idx, data)
	}

	for _, p := range m.fus.pools {
		if p == nil {
			continue
		}
		if n := int(r.U32()); n == len(p.busyUntil) {
			for i := range p.busyUntil {
				p.busyUntil[i] = r.U64()
			}
		} else {
			r.Corruptf("pool %v has %d units in snapshot, want %d", p.pool, n, len(p.busyUntil))
		}
	}

	m.bp.DecodeSnapshot(r)
	m.caches.DecodeSnapshot(r)

	if hasInjector := r.Bool(); hasInjector {
		if m.injector == nil {
			// Unreachable past a fingerprint match (the injector config
			// is hashed), but a decoder must not trust that.
			r.Corruptf("snapshot has injector state but config has no injector")
		} else {
			draws := r.U64()
			if draws > maxRestoreDraws {
				r.Corruptf("injector draw count %d exceeds restore limit", draws)
			}
			var fs struct {
				injected  uint64
				byTarget  []uint64
				bitsFlips uint64
			}
			fs.injected = r.U64()
			nt := int(r.U32())
			if nt != len(m.injector.Stats.ByTarget) {
				r.Corruptf("injector target count %d, want %d", nt, len(m.injector.Stats.ByTarget))
			} else {
				fs.byTarget = make([]uint64, nt)
				for i := range fs.byTarget {
					fs.byTarget[i] = r.U64()
				}
			}
			fs.bitsFlips = r.U64()
			if r.Err() == nil {
				stats := m.injector.Stats
				stats.Injected = fs.injected
				copy(stats.ByTarget[:], fs.byTarget)
				stats.BitsFlips = fs.bitsFlips
				m.injector.RestoreState(draws, stats)
			}
		}
	} else if m.injector != nil {
		r.Corruptf("config has an injector but snapshot has no injector state")
	}

	decodeStats(r, &m.stats)
	snapOracleLive := r.Bool()

	if err := r.Done(); err != nil {
		return err
	}

	// The oracle co-simulation tracks the committed state exactly while
	// it is live (a diverged oracle is abandoned), so it can be rebuilt
	// from the restored committed state instead of being serialised.
	if cfg.Oracle && snapOracleLive {
		m.oracle = &funcsim.Machine{
			Regs:   m.regs,
			PC:     committedPC,
			Mem:    m.mem.Clone(),
			Halted: m.halted,
			Insts:  m.stats.Committed,
		}
		m.oracleLive = true
	}
	return nil
}

// encodeStats writes every Stats field in declaration order. The
// subsystem aggregates (Bpred, caches, Fault) are included even
// though finishStats refreshes them from the live components, so a
// snapshot round-trips a finished run's Stats exactly.
func encodeStats(w *snap.Writer, s *Stats) {
	w.U64(s.Cycles)
	w.U64(s.Committed)
	w.U64(s.Copies)
	w.U64(s.Fetched)
	w.U64(s.Dispatched)
	w.U64(s.Issued)
	w.U64(s.FetchICacheStall)
	w.U64(s.FetchQueueFull)
	w.U64(s.DispatchRUUFull)
	w.U64(s.DispatchLSQFull)
	w.U64(s.BranchRewinds)
	w.U64(s.SquashedUops)
	w.U64(s.FaultsDetected)
	w.U64(s.PCCheckFails)
	w.U64(s.FaultRewinds)
	w.U64(s.MajorityCommits)
	w.U64(s.RecoveryCycles)
	w.U64(s.EscapedFaults)
	w.U64(s.RUUOccupancy)
	w.U64(s.LSQOccupancy)
	bp := &s.Bpred
	w.U64(bp.CondLookups)
	w.U64(bp.CondMispredict)
	w.U64(bp.IndirLookups)
	w.U64(bp.IndirMispred)
	w.U64(bp.RASPushes)
	w.U64(bp.RASPops)
	w.U64(bp.BTBHits)
	w.U64(bp.BTBMisses)
	for _, cs := range []*struct {
		a, m, wb uint64
	}{
		{s.IL1.Accesses, s.IL1.Misses, s.IL1.Writebacks},
		{s.DL1.Accesses, s.DL1.Misses, s.DL1.Writebacks},
		{s.L2.Accesses, s.L2.Misses, s.L2.Writebacks},
	} {
		w.U64(cs.a)
		w.U64(cs.m)
		w.U64(cs.wb)
	}
	w.U64(s.Fault.Injected)
	w.U32(uint32(len(s.Fault.ByTarget)))
	for _, v := range s.Fault.ByTarget {
		w.U64(v)
	}
	w.U64(s.Fault.BitsFlips)
	w.U32(uint32(len(s.Output)))
	for _, v := range s.Output {
		w.U64(v)
	}
	w.Bool(s.Halted)
}

// decodeStats is the inverse of encodeStats, into a zeroed Stats.
func decodeStats(r *snap.Reader, s *Stats) {
	s.Cycles = r.U64()
	s.Committed = r.U64()
	s.Copies = r.U64()
	s.Fetched = r.U64()
	s.Dispatched = r.U64()
	s.Issued = r.U64()
	s.FetchICacheStall = r.U64()
	s.FetchQueueFull = r.U64()
	s.DispatchRUUFull = r.U64()
	s.DispatchLSQFull = r.U64()
	s.BranchRewinds = r.U64()
	s.SquashedUops = r.U64()
	s.FaultsDetected = r.U64()
	s.PCCheckFails = r.U64()
	s.FaultRewinds = r.U64()
	s.MajorityCommits = r.U64()
	s.RecoveryCycles = r.U64()
	s.EscapedFaults = r.U64()
	s.RUUOccupancy = r.U64()
	s.LSQOccupancy = r.U64()
	bp := &s.Bpred
	bp.CondLookups = r.U64()
	bp.CondMispredict = r.U64()
	bp.IndirLookups = r.U64()
	bp.IndirMispred = r.U64()
	bp.RASPushes = r.U64()
	bp.RASPops = r.U64()
	bp.BTBHits = r.U64()
	bp.BTBMisses = r.U64()
	for _, cs := range []*struct {
		a, m, wb *uint64
	}{
		{&s.IL1.Accesses, &s.IL1.Misses, &s.IL1.Writebacks},
		{&s.DL1.Accesses, &s.DL1.Misses, &s.DL1.Writebacks},
		{&s.L2.Accesses, &s.L2.Misses, &s.L2.Writebacks},
	} {
		*cs.a = r.U64()
		*cs.m = r.U64()
		*cs.wb = r.U64()
	}
	s.Fault.Injected = r.U64()
	if n := int(r.U32()); n == len(s.Fault.ByTarget) {
		for i := range s.Fault.ByTarget {
			s.Fault.ByTarget[i] = r.U64()
		}
	} else {
		r.Corruptf("fault target count %d, want %d", n, len(s.Fault.ByTarget))
	}
	s.Fault.BitsFlips = r.U64()
	n := int(r.U32())
	if n > r.Len()/8 {
		r.Corruptf("output length %d exceeds payload", n)
		return
	}
	if n > 0 {
		s.Output = make([]uint64, n)
		for i := range s.Output {
			s.Output[i] = r.U64()
		}
	}
	s.Halted = r.Bool()
}
