package cpu

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/trace"
)

// nextPow2 returns the smallest power of two >= n (n >= 1); the ring
// buffers round their storage up with it so index stepping is mask
// arithmetic.
func nextPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// This file holds the event-driven scheduling kernel. The original
// implementation rescanned the whole RUU once per stage per cycle, which
// made every simulated cycle O(RUUSize) regardless of how many entries
// actually did anything. The structures below make each stage touch only
// the entries with an event this cycle:
//
//   - waitlists: per-producer consumer lists built at rename time, so a
//     completing entry wakes exactly its consumers (replaces the
//     broadcast scan);
//   - calendar: a completion time-wheel keyed on DoneAt (with a min-heap
//     fallback for latencies beyond the wheel), so writeback visits only
//     the entries finishing this cycle (replaces the writeback scan);
//   - readySet: one bitmap per issue class over the RUU ring slots,
//     set by dispatch, wakeup and copy 0 load completion, plus one
//     summary word per 64-slot row holding the OR of the row's classes,
//     so issue visits only ready entries with one load per row, and
//     never visits a functional-unit pool that has no free unit: a
//     pool's class leaves the scan at the start of the cycle when every
//     unit is busy, and as soon as an issue or a stall fills it
//     (replaces the issue scan).
//
// Squash repair is lazy. Wait-list and calendar records carry the (ring
// index, seq) pair of the entry they refer to, and a record whose seq no
// longer matches the entry at its index is dropped when it surfaces.
// This is sound because seqs are never reused: a squashed entry's slot
// is either empty (Valid false) or re-allocated under a strictly larger
// seq, so stale records can never act on the wrong instruction. A ready
// bit needs no seq: dispatch clears a slot's bits and its wait-list when
// it allocates the slot, so a surviving bit either belongs to the
// slot's current entry or sits on an empty slot, where the issue stage
// clears it on sight. Determinism is preserved because every structure
// is drained in seq order: the calendar sorts each cycle's completions,
// and the ready bitmaps are walked in ring order from the RUU head,
// which is seq order. That is exactly the oldest-first order the scans
// enforced, so the sequence of functional-unit reservations, fault-
// injector rolls and branch rewinds is bit-identical to the scan-based
// kernel (TestScanVsEventEquivalence is the referee).

// Issue classes. Each functional-unit pool is one class, so the issue
// stage can stop scanning a pool once it is saturated for the cycle;
// redundant load copies (gated on their group's single memory access)
// form one more class, which is always scanned because their gate check
// runs before the pool check and parks them as a side effect.
const (
	classGated   = int(isa.NumPools)
	readyClasses = classGated + 1
	// classStride is the distance between one class's consecutive
	// bitmap words: readyClasses rounded up to 8, so the row of all
	// classes' words for one 64-slot span fills one cache line.
	classStride = 8
	// summary is the row word after the class words: the OR of them.
	summary    = readyClasses
	allClasses = uint8(1)<<readyClasses - 1
)

// issueClass returns the issue class of a dispatched entry.
func issueClass(e *Entry) int {
	if e.OI.IsLoad && e.Copy != 0 {
		return classGated
	}
	return int(e.OI.Pool)
}

// readySet holds the issuable entries: one bitmap per issue class over
// the RUU ring slots, bit idx set when the entry at ring index idx is
// waiting to issue. The bitmaps are word-interleaved — word w of class
// c lives at words[w*classStride+c] — and word w*classStride+summary is
// the OR of the row's class words, so a row is one cache line and the
// union of all classes is one load. Each class has max(1, storage/64)
// words.
//
// A slot holds at most one class bit: an entry has one issue class for
// its life, and dispatch clears the slot before it places a new entry
// there. So add and remove keep the summary exact by setting and
// clearing the slot's summary bit along with its class bit.
type readySet struct {
	words []uint64
}

// init empties the set for a ring of the given storage size. The
// backing array is reallocated only when the storage size changes.
func (s *readySet) init(storage int) {
	if n := max(1, storage/64) * classStride; len(s.words) != n {
		s.words = make([]uint64, n)
		return
	}
	clear(s.words)
}

func (s *readySet) add(idx, class int) {
	row := s.words[(idx>>6)*classStride:][:classStride]
	bit := uint64(1) << (idx & 63)
	row[class] |= bit
	row[summary] |= bit
}

func (s *readySet) remove(idx, class int) {
	row := s.words[(idx>>6)*classStride:][:classStride]
	bit := uint64(1) << (idx & 63)
	row[class] &^= bit
	row[summary] &^= bit
}

// clearSlot drops slot idx from every class. A slot in no class, the
// common case at dispatch, costs one test of its summary bit.
func (s *readySet) clearSlot(idx int) {
	row := s.words[(idx>>6)*classStride:][:classStride]
	bit := uint64(1) << (idx & 63)
	if row[summary]&bit == 0 {
		return
	}
	for c := range row {
		row[c] &^= bit
	}
}

// union returns word w of the union of the classes in mask: the
// summary word less the words of the classes mask leaves out.
func (s *readySet) union(w int, mask uint8) uint64 {
	row := s.words[w*classStride:][:classStride]
	u := row[summary]
	for out := allClasses &^ mask; out != 0; out &= out - 1 {
		u &^= row[bits.TrailingZeros8(out)]
	}
	return u
}

// waiter records one operand of one consumer waiting on a producer.
type waiter struct {
	idx int32  // consumer ring index
	seq uint64 // consumer seq (slot-reuse guard)
	op  uint8  // which of the consumer's operands
}

// calendar schedules completions. Entries issued with DoneAt within
// wheelSize cycles go into the time-wheel bucket for that cycle; longer
// latencies (deep cache misses) fall back to a small min-heap. Both are
// drained together and sorted by seq so the writeback order — and with
// it the oldest-mispredicted-branch-squashes-first invariant — matches
// the age-ordered scan exactly.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

type calRec struct {
	idx int32
	seq uint64
}

type farRec struct {
	doneAt uint64
	idx    int32
	seq    uint64
}

type calendar struct {
	wheel [wheelSize][]calRec
	far   []farRec // min-heap on doneAt
	due   []calRec // drain scratch, reused across cycles
}

// insert schedules (idx, seq) to surface at cycle doneAt. now is the
// current cycle; doneAt is always strictly in the future, so a bucket
// can never hold records for two different cycles at once.
func (c *calendar) insert(now, doneAt uint64, idx int32, seq uint64) {
	if doneAt-now < wheelSize {
		b := int(doneAt & wheelMask)
		c.wheel[b] = append(c.wheel[b], calRec{idx: idx, seq: seq})
		return
	}
	c.far = append(c.far, farRec{doneAt: doneAt, idx: idx, seq: seq})
	i := len(c.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.far[parent].doneAt <= c.far[i].doneAt {
			break
		}
		c.far[parent], c.far[i] = c.far[i], c.far[parent]
		i = parent
	}
}

// drain returns every record due at cycle now, sorted by seq (oldest
// first). The returned slice is valid until the next drain call.
func (c *calendar) drain(now uint64) []calRec {
	c.due = c.due[:0]
	b := int(now & wheelMask)
	c.due = append(c.due, c.wheel[b]...)
	c.wheel[b] = c.wheel[b][:0]
	for len(c.far) > 0 && c.far[0].doneAt <= now {
		top := c.far[0]
		last := len(c.far) - 1
		c.far[0] = c.far[last]
		c.far = c.far[:last]
		c.farSiftDown(0)
		c.due = append(c.due, calRec{idx: top.idx, seq: top.seq})
	}
	// Records arrive in issue order, not age order (a long-latency old
	// entry and a short-latency young one can share a cycle), so sort.
	// The lists are tiny and nearly sorted; insertion sort is exact and
	// allocation-free.
	for i := 1; i < len(c.due); i++ {
		r := c.due[i]
		j := i - 1
		for j >= 0 && c.due[j].seq > r.seq {
			c.due[j+1] = c.due[j]
			j--
		}
		c.due[j+1] = r
	}
	return c.due
}

func (c *calendar) farSiftDown(i int) {
	n := len(c.far)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && c.far[l].doneAt < c.far[small].doneAt {
			small = l
		}
		if r < n && c.far[r].doneAt < c.far[small].doneAt {
			small = r
		}
		if small == i {
			return
		}
		c.far[i], c.far[small] = c.far[small], c.far[i]
		i = small
	}
}

func (c *calendar) reset() {
	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	c.far = c.far[:0]
}

// calBucketCap pre-sizes each wheel bucket. A bucket holds at most one
// cycle's completions, which the issue stage bounds by IssueWidth
// (Table 1: 8), so 8 covers the steady state; a wider machine merely
// grows the odd bucket once and keeps it.
const calBucketCap = 8

// init makes the calendar empty and fully pre-sized: the first call
// carves all wheel buckets out of one slab (one allocation instead of
// 256) and pre-sizes the far heap and drain scratch; later calls just
// empty the structures, keeping any capacity they have grown.
func (c *calendar) init() {
	if c.wheel[0] == nil {
		slab := make([]calRec, wheelSize*calBucketCap)
		for i := range c.wheel {
			c.wheel[i] = slab[i*calBucketCap : i*calBucketCap : (i+1)*calBucketCap]
		}
		c.far = make([]farRec, 0, 64)
		c.due = make([]calRec, 0, 64)
		return
	}
	c.reset()
	c.due = c.due[:0]
}

// ---------------------------------------------------------------------
// Decoded-instruction cache: fetch used to re-read and re-decode the
// instruction word from memory for every fetched slot; a direct-mapped
// cache keyed on the (8-byte aligned) PC makes that work happen once per
// static instruction. Committed stores invalidate any overlapped slots,
// so self-modifying programs still see their writes.

const (
	decBits = 12
	decSize = 1 << decBits
	decMask = decSize - 1
)

type decCache struct {
	// tags holds pc+1 so the zero value means "empty" (PCs are 8-byte
	// aligned and can never equal ^uint64(0), so pc+1 never collides
	// with 0).
	tags [decSize]uint64
	inst [decSize]isa.Inst
	oi   [decSize]*isa.OpInfo
}

func (d *decCache) slot(pc uint64) int { return int((pc >> 3) & decMask) }

// reset invalidates every slot. Only the tags need clearing — stale
// inst/oi entries are unreachable once their tag is zero — so a machine
// reset costs one 32 KB memclr here, not a rebuild.
func (d *decCache) reset() { clear(d.tags[:]) }

// drop invalidates the slot covering the aligned address a, if cached.
func (d *decCache) drop(a uint64) {
	s := d.slot(a)
	if d.tags[s] == a+1 {
		d.tags[s] = 0
	}
}

// decode returns the instruction at pc, from cache when possible.
// Unaligned PCs — reachable only on wrong paths (a mis-speculated jr on
// a garbage register value, a fault-flipped branch target) — bypass the
// cache: they are rare, and store invalidation only tracks the aligned
// instruction words, so caching them could serve a stale decode.
func (m *Machine) decode(pc uint64) (isa.Inst, *isa.OpInfo) {
	if pc&(isa.InstBytes-1) != 0 {
		in := isa.Decode(m.mem.Read(pc, isa.InstBytes))
		return in, in.Info()
	}
	s := m.dec.slot(pc)
	if m.dec.tags[s] == pc+1 {
		return m.dec.inst[s], m.dec.oi[s]
	}
	in := isa.Decode(m.mem.Read(pc, isa.InstBytes))
	oi := in.Info()
	m.dec.tags[s] = pc + 1
	m.dec.inst[s] = in
	m.dec.oi[s] = oi
	return in, oi
}

// decInvalidate drops decode-cache slots overlapped by a committed store
// to [addr, addr+size). A store can overlap at most two aligned
// instruction words.
func (m *Machine) decInvalidate(addr uint64, size int) {
	a0 := addr &^ uint64(isa.InstBytes-1)
	a1 := (addr + uint64(size) - 1) &^ uint64(isa.InstBytes-1)
	m.dec.drop(a0)
	if a1 != a0 {
		m.dec.drop(a1)
	}
}

// ---------------------------------------------------------------------
// Fetch queue ring: the fetch queue used to be a slice trimmed with
// fetchQ = fetchQ[1:] per dispatched instruction, which marched the
// backing array forward and forced append to reallocate. A fixed ring
// keeps it allocation-free after New.

type fetchRing struct {
	buf   []fetchedInst
	mask  int
	limit int // architectural depth (cfg.FetchQueue)
	head  int
	count int
}

func newFetchRing(depth int) *fetchRing {
	capacity := nextPow2(depth)
	return &fetchRing{buf: make([]fetchedInst, capacity), mask: capacity - 1, limit: depth}
}

func (f *fetchRing) len() int    { return f.count }
func (f *fetchRing) full() bool  { return f.count >= f.limit }
func (f *fetchRing) empty() bool { return f.count == 0 }

func (f *fetchRing) push(fi fetchedInst) {
	if f.full() {
		panic("cpu: fetch queue overflow")
	}
	f.buf[(f.head+f.count)&f.mask] = fi
	f.count++
}

// front returns the oldest queued slot; it must not be empty.
func (f *fetchRing) front() *fetchedInst { return &f.buf[f.head] }

func (f *fetchRing) pop() {
	if f.count == 0 {
		panic("cpu: fetch queue underflow")
	}
	f.buf[f.head] = fetchedInst{}
	f.head = (f.head + 1) & f.mask
	f.count--
}

func (f *fetchRing) reset() {
	for f.count > 0 {
		f.pop()
	}
}

// renew returns a ring of the given depth, reusing f's buffer when the
// storage size matches; the result is as-new (empty, head at zero).
func (f *fetchRing) renew(depth int) *fetchRing {
	if f == nil || nextPow2(depth) != len(f.buf) {
		return newFetchRing(depth)
	}
	clear(f.buf)
	f.limit = depth
	f.head, f.count = 0, 0
	return f
}

// ---------------------------------------------------------------------
// Event-driven stage implementations. New installs these as the
// machine's issue/writeback stages; the retained scan-based reference
// scheduler (test files only) swaps itself in for equivalence testing.

// wakeup delivers a completed result to exactly the consumers registered
// on the producer's wait-list, and adds newly ready consumers to the
// ready set. It replaces the full-RUU broadcast scan.
func (m *Machine) wakeup(idx int, producer *Entry) {
	wl := m.waitlists[idx]
	for i := range wl {
		w := wl[i]
		c := m.ruu.at(int(w.idx))
		if !c.Valid || c.Seq != w.seq {
			continue // consumer squashed; slot empty or re-used
		}
		op := &c.Ops[w.op]
		if !op.Used || op.Ready || op.Producer != idx || op.ProducerSeq != producer.Seq {
			continue
		}
		op.Ready = true
		op.Value = producer.Result
		if !c.Issued && c.ready() {
			m.ready.add(int(w.idx), issueClass(c))
		}
	}
	// Every live waiter has been served (completion is broadcast once),
	// so the list empties; stale waiters died with their entries.
	m.waitlists[idx] = wl[:0]
}

// watch registers consumer (cidx, cseq)'s operand op on the producer at
// ring index pidx. Called at rename time when an operand is not ready.
func (m *Machine) watch(pidx int, cidx int, cseq uint64, op int) {
	m.waitlists[pidx] = append(m.waitlists[pidx], waiter{idx: int32(cidx), seq: cseq, op: uint8(op)})
}

// complete finishes one entry on the event path: publish the result,
// wake consumers, un-park gated redundant load copies, and resolve
// control flow.
func (m *Machine) complete(idx int, e *Entry) {
	e.InFlight = false
	e.Done = true
	m.emit(trace.StageComplete, e)
	m.wakeup(idx, e)

	// A load group's redundant copies are gated on copy 0's single
	// memory access (Section 5.1.2); they were parked by the issue stage
	// and become eligible exactly now. Setting a bit that is already
	// set (a copy not yet attempted) is harmless.
	if e.Copy == 0 && e.OI.IsLoad {
		for k := 1; k < m.cfg.R; k++ {
			sidx := m.ruu.wrap(idx + k)
			s := m.ruu.at(sidx)
			if s.Valid && s.GID == e.GID && !s.Issued && s.ready() {
				m.ready.add(sidx, classGated)
			}
		}
	}

	// Branch resolution (Section 3.2, "Fault Detection"): as soon as one
	// copy of a control instruction disagrees with the current predicted
	// path, rewind immediately on that singular result.
	if e.OI.IsCtrl() && e.NextPC != e.PredNext {
		m.branchRewind(idx, e)
	}
}

// writebackEvent drains the completion calendar for this cycle in seq
// order: only entries finishing now are visited, oldest first, so the
// eldest mispredicted branch squashes before younger completions are
// looked at (squashed younger records fail their seq guard and drop).
func (m *Machine) writebackEvent() {
	due := m.cal.drain(m.cycle)
	for i := range due {
		rec := due[i]
		e := m.ruu.at(int(rec.idx))
		if !e.Valid || e.Seq != rec.seq || !e.InFlight {
			continue // squashed after issue; record is stale
		}
		m.complete(int(rec.idx), e)
	}
}

// issueEvent selects ready entries oldest-first, up to IssueWidth
// successful issues. It walks the ready set's words in ring order from
// the RUU head — the head word from the head's bit upward, the words
// after it, then the head word's low bits — which is seq order, the
// order the age-ordered scan enforced. Within a word it visits the
// union of the classes still being scanned, lowest bit first.
//
// Structural stalls (busy functional unit, blocked load) keep their
// bit and retry next cycle. A pool's class is left out of the walk
// whenever the pool has no free unit: from the start of the cycle when
// an unpipelined unit is still busy, and from the issue or stall that
// fills it. Every attempt on such a pool would fail in pool.tryIssue,
// which returns before the fault-injector roll and any LSQ or cache
// access, so skipping them changes nothing but host time. Gated
// redundant load copies are parked (bit cleared) and re-queued by their
// copy 0's completion; stale bits (squashes, slot reuse) are cleared
// when visited.
func (m *Machine) issueEvent() {
	s := &m.ready
	budget := m.cfg.IssueWidth
	active := allClasses &^ m.fus.fullMask(m.cycle)
	nw := len(s.words) / classStride // words per class
	hw, hb := m.ruu.head>>6, uint(m.ruu.head&63)
	for n := 0; n <= nw; n++ {
		w := hw + n
		if w >= nw {
			w -= nw
		}
		span := ^uint64(0) // the bits of word w this pass covers
		switch n {
		case 0:
			span <<= hb
		case nw:
			span = 1<<hb - 1
		}
		pending := s.union(w, active) & span
		for pending != 0 {
			idx := w<<6 | bits.TrailingZeros64(pending)
			pending &= pending - 1
			e := m.ruu.at(idx)
			if !e.Valid || e.Issued || !e.ready() {
				s.clearSlot(idx) // stale bit (squash or slot reuse)
				continue
			}
			class := issueClass(e)
			switch m.tryIssueEntry(idx, e) {
			case issueOK:
				s.remove(idx, class)
				if budget--; budget == 0 {
					return
				}
			case issueParked:
				s.remove(idx, class)
				continue
			}
			if p := m.fus.get(e.OI.Pool); p != nil && !p.anyFree(m.cycle) {
				active &^= 1 << e.OI.Pool
				pending &= s.union(w, active)
			}
		}
	}
}
