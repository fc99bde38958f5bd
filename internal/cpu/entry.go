package cpu

import (
	"repro/internal/bpred"
	"repro/internal/fault"
	"repro/internal/isa"
)

// Entry is one RUU slot: a dispatched instruction copy with its operand
// state, execution results and bookkeeping. In redundant mode the R
// copies of one architectural instruction occupy R consecutive entries
// sharing a GID.
type Entry struct {
	Valid bool
	Seq   uint64 // global dispatch order, unique per copy
	GID   uint64 // instruction group id, shared by all copies
	Copy  int    // 0..R-1

	PC       uint64
	Inst     isa.Inst
	OI       *isa.OpInfo      // cached isa.Info(Inst.Op), set at dispatch
	PredNext uint64           // front-end predicted next PC
	Pred     bpred.Prediction // predictor state (copy 0 only)

	Ops [2]Operand

	Issued   bool
	InFlight bool // issued, completion pending
	Done     bool
	DoneAt   uint64 // cycle the result becomes available

	// Execution outputs. Result holds the ALU value, loaded value or
	// link address; EA the effective address of a memory access;
	// StoreVal the value a store will write; NextPC the resolved
	// next program counter (PC+8 for non-control instructions).
	Result   uint64
	EA       uint64
	StoreVal uint64
	Taken    bool
	NextPC   uint64

	LSQ    int // LSQ index for copy-0 memory operations, else -1
	FUPool isa.Pool
	FUUnit int // physical unit instance used (for co-scheduling)

	// Fault-injection state for this copy.
	InjectTarget fault.Target
	Inject       bool
	ResidentDone bool // resident flip already applied
}

// Operand is one source operand of an entry.
type Operand struct {
	Used  bool
	Reg   uint8
	Ready bool
	Value uint64
	// FromRUU records that the value comes from an in-flight RUU entry
	// (identified by Producer/ProducerSeq) rather than the committed
	// register file. Redundant copy k uses it to re-derive its own
	// producer at offset +k.
	FromRUU bool
	// Producer identifies the RUU entry that will broadcast this value;
	// ProducerSeq guards against slot reuse.
	Producer    int
	ProducerSeq uint64
}

// ready reports whether all used operands have values.
func (e *Entry) ready() bool {
	for i := range e.Ops {
		if e.Ops[i].Used && !e.Ops[i].Ready {
			return false
		}
	}
	return true
}

// mapRef is a register map table entry: the RUU index (and its seq, to
// guard slot reuse) of the latest copy-0 producer of a register.
type mapRef struct {
	valid bool
	idx   int
	seq   uint64
}

// ruu is the circular Register Update Unit. Storage is rounded up to a
// power of two so every ring-index step is a mask instead of a divide;
// the architectural capacity (how many entries may be live at once) stays
// the configured size, enforced by free()/alloc(). Every free slot is
// Entry{}: release, truncateAfter and reset zero the slots they free,
// and dispatch relies on it to write only an entry's non-zero fields.
type ruu struct {
	entries []Entry
	mask    int // len(entries) - 1
	limit   int // architectural capacity (cfg.RUUSize)
	head    int // oldest valid entry
	tail    int // next free slot
	count   int
}

func newRUU(size int) *ruu {
	capacity := nextPow2(size)
	return &ruu{entries: make([]Entry, capacity), mask: capacity - 1, limit: size}
}

// reset empties the ring in place, zeroing every slot (a cancelled or
// budget-stopped run leaves live entries behind) and re-arming it under
// a possibly different architectural limit. Storage must already fit:
// callers reallocate when nextPow2 of the new size differs.
func (r *ruu) reset(size int) {
	clear(r.entries)
	r.limit = size
	r.head, r.tail, r.count = 0, 0, 0
}

func (r *ruu) size() int   { return len(r.entries) }
func (r *ruu) free() int   { return r.limit - r.count }
func (r *ruu) empty() bool { return r.count == 0 }

// wrap reduces a ring index offset into range. Because the storage size
// is a power of two, a two's-complement AND handles negative offsets
// (e.g. idx-copy) as well as overflowing ones (idx+k).
func (r *ruu) wrap(i int) int { return i & r.mask }

// alloc takes the next slot; the caller fills it.
func (r *ruu) alloc() int {
	if r.count == r.limit {
		panic("cpu: RUU overflow")
	}
	idx := r.tail
	r.tail = (r.tail + 1) & r.mask
	r.count++
	return idx
}

// release frees the head entry.
func (r *ruu) release() {
	if r.count == 0 {
		panic("cpu: RUU underflow")
	}
	r.entries[r.head] = Entry{}
	r.head = (r.head + 1) & r.mask
	r.count--
}

// at returns the entry at ring index idx.
func (r *ruu) at(idx int) *Entry { return &r.entries[idx] }

// forEach visits valid entries oldest to youngest. The callback returns
// false to stop early. The entry count is snapshotted so callbacks may
// squash younger entries mid-scan (they are skipped via the Valid check).
func (r *ruu) forEach(f func(idx int, e *Entry) bool) {
	idx := r.head
	n := r.count
	for i := 0; i < n; i++ {
		e := &r.entries[idx]
		if e.Valid && !f(idx, e) {
			return
		}
		idx = (idx + 1) & r.mask
	}
}

// truncateAfter invalidates every entry younger than seq (strictly
// greater) and rewinds the tail, returning how many entries were
// squashed. Passing seq 0 with squashAll squashes everything.
func (r *ruu) truncateAfter(seq uint64, squashAll bool) int {
	squashed := 0
	for r.count > 0 {
		lastIdx := (r.tail - 1) & r.mask
		e := &r.entries[lastIdx]
		if !squashAll && e.Seq <= seq {
			break
		}
		r.entries[lastIdx] = Entry{}
		r.tail = lastIdx
		r.count--
		squashed++
	}
	return squashed
}
