package cpu

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/trace"
)

// ErrDeadlock is returned when the machine stops committing instructions,
// which indicates a simulator bug rather than a program property.
var ErrDeadlock = errors.New("cpu: no commit progress (pipeline deadlock)")

// fetched is one slot of the fetch queue.
type fetchedInst struct {
	pc       uint64
	inst     isa.Inst
	oi       *isa.OpInfo // cached decode, carried into the RUU entry
	predNext uint64
	pred     bpred.Prediction
}

// Machine is one simulated processor core plus its committed
// architectural state.
type Machine struct {
	cfg   Config
	hooks Hooks

	// Committed (ECC-protected, outside the sphere of replication)
	// architectural state. The committed next-PC register is the one
	// structure Section 3.2 explicitly requires to be ECC protected —
	// it is the recovery anchor — so it really is stored under SECDED.
	regs   [isa.NumRegs]uint64
	nextPC ecc.Reg
	mem    *mem.Memory

	// Speculative machinery.
	ruu      *ruu
	lsq      *lsq
	fus      *fuSet
	bp       *bpred.Predictor
	caches   *cache.Hierarchy
	injector *fault.Injector

	// checker cross-checks each retiring group; nil when R = 1, and
	// &majority under Majority, so its scratch survives resets.
	checker  Checker
	majority MajorityChecker

	mapTable [isa.NumRegs]mapRef

	// Event-driven scheduling state (see sched.go). issueFn and
	// writebackFn are the issue and writeback stages, method
	// expressions so Reset installs them without allocating; the
	// retained scan-based reference scheduler (test files only)
	// installs its own.
	issueFn     func(*Machine)
	writebackFn func(*Machine)
	waitlists   [][]waiter // per-RUU-slot consumer lists
	ready       readySet
	cal         calendar
	dec         *decCache

	// Fetch state.
	fetchPC    uint64
	fetchQ     *fetchRing
	stallUntil uint64
	fetchHalt  bool

	cycle   uint64
	seq     uint64
	gid     uint64
	halted  bool
	stopped bool

	// Fault-recovery bookkeeping.
	pendingRecovery bool
	recoveryStart   uint64

	// Oracle co-simulation (Section 5.1.1).
	oracle     *funcsim.Machine
	oracleLive bool

	lastCommitCycle uint64

	// commitGroup is the commit stage's per-cycle scratch for the R
	// entries of the retiring group (see commit); capacity >= cfg.R.
	commitGroup []*Entry

	stats Stats
}

// New builds a machine for the given program. The program image is loaded
// into a fresh memory; the oracle, if enabled, gets an identical clone.
// New is Reset applied to an empty machine, which is what makes a
// recycled machine provably identical to a fresh one: both states are
// produced by the same code path.
func New(cfg Config, p *prog.Program) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, p); err != nil {
		return nil, err
	}
	return m, nil
}

// Stats returns the statistics gathered so far.
func (m *Machine) Stats() *Stats { return &m.stats }

// emit records a pipeline event for one entry when tracing is enabled.
// It is small enough to inline, so an untraced machine pays one nil
// test per event and no call.
func (m *Machine) emit(stage trace.Stage, e *Entry) {
	if m.hooks.Tracer != nil {
		m.record(stage, e)
	}
}

// record sends one entry's pipeline event to the tracer.
func (m *Machine) record(stage trace.Stage, e *Entry) {
	m.hooks.Tracer.Record(trace.Event{
		Cycle: m.cycle, Stage: stage,
		Seq: e.Seq, GID: e.GID, Copy: e.Copy, PC: e.PC, Inst: e.Inst,
	})
}

// emitSquashes records squash events for every valid entry younger than
// seq (or all entries when all is set) before they are discarded.
func (m *Machine) emitSquashes(seq uint64, all bool) {
	if m.hooks.Tracer == nil {
		return
	}
	m.ruu.forEach(func(_ int, e *Entry) bool {
		if all || e.Seq > seq {
			m.emit(trace.StageSquash, e)
		}
		return true
	})
}

// Reg returns committed architectural register r.
func (m *Machine) Reg(r uint8) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return m.regs[r]
}

// Memory exposes the committed memory image (for verification).
func (m *Machine) Memory() *mem.Memory { return m.mem }

// Halted reports whether the program's halt instruction committed.
func (m *Machine) Halted() bool { return m.halted }

// Run simulates until the program halts or a run limit is reached, and
// returns the final statistics.
func (m *Machine) Run() (*Stats, error) {
	return m.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context's Done
// channel is polled every cancelCheckPeriod cycles, so cancellation or a
// deadline stops the simulation promptly (well under a millisecond of
// simulated work) and returns ctx.Err() alongside the statistics
// gathered so far. A background context adds no per-cycle overhead
// beyond a nil check, and the simulated results are bit-identical for
// any context that never fires.
func (m *Machine) RunContext(ctx context.Context) (*Stats, error) {
	const deadlockWindow = 200_000
	const cancelCheckPeriod = 1024 // power of two: cheap mask test
	done := ctx.Done()
	for !m.halted && !m.stopped {
		if m.cfg.MaxCycles > 0 && m.cycle >= m.cfg.MaxCycles {
			break
		}
		if m.cfg.MaxInsts > 0 && m.stats.Committed >= m.cfg.MaxInsts {
			break
		}
		if done != nil && m.cycle&(cancelCheckPeriod-1) == 0 {
			select {
			case <-done:
				m.finishStats()
				return &m.stats, ctx.Err()
			default:
			}
		}
		m.cycle++
		m.stats.Cycles = m.cycle
		m.stats.RUUOccupancy += uint64(m.ruu.count)
		m.stats.LSQOccupancy += uint64(m.lsq.count)

		if err := m.commit(); err != nil {
			m.finishStats()
			return &m.stats, err
		}
		if m.halted || m.stopped {
			break
		}
		m.writebackFn(m)
		m.issueFn(m)
		m.dispatch()
		m.fetch()

		if m.hooks.ObserveEvery > 0 && m.hooks.Observe != nil && m.cycle%m.hooks.ObserveEvery == 0 {
			m.hooks.Observe(&m.stats)
		}

		if m.cycle-m.lastCommitCycle > deadlockWindow {
			m.finishStats()
			return &m.stats, fmt.Errorf("%w at cycle %d (pc %#x, ruu %d/%d)",
				ErrDeadlock, m.cycle, m.fetchPC, m.ruu.count, m.ruu.limit)
		}
	}
	m.finishStats()
	return &m.stats, nil
}

// finishStats folds the subsystem counters into the machine statistics.
func (m *Machine) finishStats() {
	m.stats.Halted = m.halted
	m.stats.Bpred = m.bp.Stats
	m.stats.IL1 = m.caches.IL1.Stats
	m.stats.DL1 = m.caches.DL1.Stats
	m.stats.L2 = m.caches.L2.Stats
	if m.injector != nil {
		m.stats.Fault = m.injector.Stats
	}
}

// ---------------------------------------------------------------------
// Fetch

func (m *Machine) fetch() {
	if m.fetchHalt || m.cycle < m.stallUntil {
		return
	}
	if m.fetchQ.full() {
		m.stats.FetchQueueFull++
		return
	}
	// One I-cache access per fetch group; a miss stalls the front end for
	// the full access time.
	lat := m.caches.IFetch(m.fetchPC)
	if lat > m.cfg.Memory.IL1.HitLatency {
		m.stallUntil = m.cycle + uint64(lat)
		m.stats.FetchICacheStall += uint64(lat)
		return
	}
	lineMask := ^uint64(m.cfg.Memory.IL1.LineBytes - 1)
	firstLine := m.fetchPC & lineMask
	secondLine := uint64(0)
	haveSecond := false
	for n := 0; n < m.cfg.FetchWidth && !m.fetchQ.full(); n++ {
		pc := m.fetchPC
		if pc&lineMask != firstLine {
			// Fetch may straddle one line boundary per cycle; the second
			// line costs another I-cache access, and a third ends the
			// group.
			if !haveSecond {
				haveSecond = true
				secondLine = pc & lineMask
				if l2 := m.caches.IFetch(pc); l2 > m.cfg.Memory.IL1.HitLatency {
					m.stallUntil = m.cycle + uint64(l2)
					m.stats.FetchICacheStall += uint64(l2)
					return
				}
			} else if pc&lineMask != secondLine {
				break
			}
		}
		in, oi := m.decode(pc)
		fi := fetchedInst{pc: pc, inst: in, oi: oi}
		if oi.IsCtrl() {
			fi.pred = m.bp.Predict(pc, in)
			fi.predNext = fi.pred.NextPC
			m.fetchQ.push(fi)
			m.stats.Fetched++
			m.fetchPC = fi.predNext
			// Table 1: one branch prediction per cycle ends the group.
			return
		}
		fi.predNext = pc + isa.InstBytes
		m.fetchQ.push(fi)
		m.stats.Fetched++
		m.fetchPC = pc + isa.InstBytes
		if in.Op == isa.OpHalt {
			// Stop fetching past the end of the program until a squash
			// redirects the front end.
			m.fetchHalt = true
			return
		}
	}
}

// redirect clears the front end and restarts fetch at pc.
func (m *Machine) redirect(pc uint64) {
	m.fetchQ.reset()
	m.fetchPC = pc
	m.fetchHalt = false
	m.stallUntil = m.cycle + uint64(m.cfg.RedirectPenalty)
}

// ---------------------------------------------------------------------
// Dispatch: allocate R consecutive RUU entries per instruction, renaming
// copy 0 through the map table and deriving copy k's tags by offset
// (Section 3.2, "Instruction Injection").

func (m *Machine) dispatch() {
	budget := m.cfg.DispatchWidth
	for budget >= m.cfg.R && !m.fetchQ.empty() {
		fi := m.fetchQ.front() // popped once all R copies are written
		oi := fi.oi
		if m.ruu.free() < m.cfg.R {
			m.stats.DispatchRUUFull++
			return
		}
		if oi.IsMem() && m.lsq.free() < 1 {
			m.stats.DispatchLSQFull++
			return
		}
		m.gid++

		var lsqIdx = -1
		if oi.IsMem() {
			lsqIdx = m.lsq.alloc()
		}
		var copy0 *Entry
		for k := 0; k < m.cfg.R; k++ {
			idx := m.ruu.alloc()
			// The slot's previous occupant is gone (committed or
			// squashed); any wait-list it accumulated is dead.
			if wl := m.waitlists[idx]; len(wl) > 0 {
				m.waitlists[idx] = wl[:0]
			}
			m.ready.clearSlot(idx)
			// Free slots are Entry{} (see ruu), so only the non-zero
			// fields are written.
			e := m.ruu.at(idx)
			m.seq++
			e.Valid = true
			e.Seq = m.seq
			e.GID = m.gid
			e.Copy = k
			e.PC = fi.pc
			e.Inst = fi.inst
			e.OI = oi
			e.PredNext = fi.predNext
			e.LSQ = -1
			e.FUUnit = -1
			if k == 0 {
				e.Pred = fi.pred
				e.LSQ = lsqIdx
				copy0 = e
				m.renameCopy0(idx, e)
				if lsqIdx >= 0 {
					*m.lsq.at(lsqIdx) = lsqEntry{
						valid:  true,
						seq:    e.Seq,
						gid:    e.GID,
						isLoad: oi.IsLoad,
					}
				}
				// Writers claim the map table; reads of r0 stay constant.
				if oi.WritesRd && fi.inst.Rd != isa.RegZero {
					m.mapTable[fi.inst.Rd] = mapRef{valid: true, idx: idx, seq: e.Seq}
				}
			} else {
				m.renameCopyK(idx, e, copy0, k)
			}
			if e.ready() {
				m.ready.add(idx, issueClass(e))
			}
			m.emit(trace.StageDispatch, e)
			m.stats.Dispatched++
			budget--
		}
		m.fetchQ.pop()
	}
}

// renameCopy0 resolves copy 0's operands through the map table. idx is
// the entry's own ring index, used to register on producers' wait-lists.
func (m *Machine) renameCopy0(idx int, e *Entry) {
	oi := e.OI
	srcs := [2]struct {
		used bool
		reg  uint8
	}{
		{oi.ReadsRs1, e.Inst.Rs1},
		{oi.ReadsRs2, e.Inst.Rs2},
	}
	for i, s := range srcs {
		op := &e.Ops[i]
		op.Used = s.used
		op.Ready = true
		if !s.used {
			continue
		}
		op.Reg = s.reg
		if s.reg == isa.RegZero {
			op.Value = 0
			continue
		}
		ref := m.mapTable[s.reg]
		if !ref.valid {
			op.Value = m.regs[s.reg] // committed, ECC-protected value
			continue
		}
		producer := m.ruu.at(ref.idx)
		if !producer.Valid || producer.Seq != ref.seq {
			// Stale reference (producer committed); the committed
			// register file has the value.
			op.Value = m.regs[s.reg]
			continue
		}
		op.FromRUU = true
		op.Producer = ref.idx
		op.ProducerSeq = ref.seq
		if producer.Done {
			op.Value = producer.Result
			continue
		}
		op.Ready = false
		m.watch(ref.idx, idx, e.Seq, i)
	}
}

// renameCopyK derives copy k's operand tags from copy 0's (the paper's
// offset rule): a producer at RUU index j becomes index j+k, keeping the
// k-th redundant thread's dataflow inside itself. Operands that copy 0
// read from committed state are read from the same ECC-protected source,
// which is how protected values enter all R threads identically.
func (m *Machine) renameCopyK(idx int, e *Entry, copy0 *Entry, k int) {
	for i := range e.Ops {
		src := &copy0.Ops[i]
		op := &e.Ops[i]
		op.Used = src.Used
		op.Reg = src.Reg
		op.Ready = true
		if !src.Used {
			continue
		}
		if !src.FromRUU {
			op.Value = src.Value
			continue
		}
		// This thread's producer copy completes on its own schedule,
		// independent of copy 0's.
		prodIdx := m.ruu.wrap(src.Producer + k)
		producer := m.ruu.at(prodIdx)
		op.FromRUU = true
		op.Producer = prodIdx
		op.ProducerSeq = producer.Seq
		if producer.Valid && producer.Done {
			op.Value = producer.Result
			continue
		}
		op.Ready = false
		m.watch(prodIdx, idx, e.Seq, i)
	}
}
