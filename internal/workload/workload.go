// Package workload provides the 11 synthetic benchmarks standing in for
// the SPEC95/SPEC2000 programs of the paper's Table 2.
//
// SPEC binaries (and the PISA toolchain that compiled them) are not
// available, so each benchmark is generated from a Profile that encodes
// what actually drives the paper's results:
//
//   - the dynamic instruction mix of Table 2 (percent memory, integer,
//     FP add, FP multiply, FP divide), which determines which functional
//     units the workload stresses; and
//   - the behavioural character Section 5.2 attributes to each program:
//     how much instruction-level parallelism it exposes (number of
//     independent dependency chains), whether serialised divides bound
//     its critical path (ammp), how predictable its branches are (go and
//     vpr mispredict often), and how its footprint interacts with the
//     caches (swim streams through memory).
//
// The generated programs are real SRISC programs: a startup section, a
// main loop whose body realises the target mix, and a halt. Their
// measured dynamic mixes are verified against Table 2 by the package
// tests.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Profile describes one synthetic benchmark.
type Profile struct {
	Name string

	// Table 2 dynamic-mix targets, in percent of all instructions.
	MemPct  float64
	IntPct  float64
	FAddPct float64
	FMulPct float64
	FDivPct float64

	// Chains is the number of independent integer dependency chains: the
	// workload's exposed ILP. Low values model go/vpr (ILP-limited);
	// high values model gcc/ijpeg (resource-limited).
	Chains int
	// SerialDivs inserts this many serially dependent integer divides
	// per loop body (ammp's critical-path divisions).
	SerialDivs int
	// MulFrac is the fraction of integer filler that uses the multiplier.
	MulFrac float64

	// BranchEvery inserts one conditional branch per this many body
	// slots; RandomBranchFrac is the fraction of those whose direction is
	// data-random (mispredicted ~half the time).
	BranchEvery      int
	RandomBranchFrac float64

	// FootprintBytes (a power of two) is the data region the memory
	// operations sweep; Stride is the byte distance between consecutive
	// accesses. Footprints beyond the cache sizes produce misses.
	FootprintBytes int
	Stride         int
	// StoreFrac is the fraction of memory operations that are stores.
	StoreFrac float64

	// BodySlots is the number of instruction slots per loop body.
	BodySlots int
	// Seed makes slot shuffling deterministic per profile.
	Seed int64
}

// Table2 returns the 11 benchmark profiles in the paper's order. Mix
// columns are Table 2 verbatim; the behavioural knobs encode Section
// 5.2's characterisation (which benchmarks are functional-unit limited,
// which are ILP limited, which are RUU/memory limited, and ammp's
// divide-bound critical path).
func Table2() []Profile {
	return []Profile{
		{
			Name: "gcc", MemPct: 74.55, IntPct: 25.45,
			Chains: 8, BranchEvery: 14, RandomBranchFrac: 0.15,
			FootprintBytes: 256 << 10, Stride: 24, StoreFrac: 0.33,
			MulFrac: 0.05, BodySlots: 320, Seed: 101,
		},
		{
			Name: "vortex", MemPct: 54.56, IntPct: 45.44,
			Chains: 8, BranchEvery: 12, RandomBranchFrac: 0.08,
			FootprintBytes: 512 << 10, Stride: 40, StoreFrac: 0.35,
			MulFrac: 0.05, BodySlots: 320, Seed: 102,
		},
		{
			Name: "go", MemPct: 29.49, IntPct: 70.50,
			Chains: 2, BranchEvery: 6, RandomBranchFrac: 0.45,
			FootprintBytes: 64 << 10, Stride: 16, StoreFrac: 0.25,
			MulFrac: 0.08, BodySlots: 320, Seed: 103,
		},
		{
			Name: "bzip", MemPct: 29.84, IntPct: 70.16,
			Chains: 12, BranchEvery: 9, RandomBranchFrac: 0.15,
			FootprintBytes: 256 << 10, Stride: 16, StoreFrac: 0.3,
			MulFrac: 0.08, BodySlots: 320, Seed: 104,
		},
		{
			Name: "ijpeg", MemPct: 26.06, IntPct: 73.94,
			Chains: 14, BranchEvery: 16, RandomBranchFrac: 0.05,
			FootprintBytes: 128 << 10, Stride: 8, StoreFrac: 0.3,
			MulFrac: 0.3, BodySlots: 320, Seed: 105,
		},
		{
			Name: "vpr", MemPct: 31.30, IntPct: 63.61, FAddPct: 3.57, FMulPct: 1.38, FDivPct: 0.15,
			Chains: 2, BranchEvery: 7, RandomBranchFrac: 0.4,
			FootprintBytes: 128 << 10, Stride: 24, StoreFrac: 0.25,
			MulFrac: 0.08, BodySlots: 320, Seed: 106,
		},
		{
			Name: "equake", MemPct: 34.55, IntPct: 52.82, FAddPct: 6.06, FMulPct: 6.41, FDivPct: 0.16,
			Chains: 6, BranchEvery: 12, RandomBranchFrac: 0.1,
			FootprintBytes: 1 << 20, Stride: 64, StoreFrac: 0.25,
			MulFrac: 0.1, BodySlots: 320, Seed: 107,
		},
		{
			Name: "ammp", MemPct: 41.35, IntPct: 56.64, FAddPct: 1.49, FMulPct: 0.50, FDivPct: 0.02,
			// Sixteen serially dependent 20-cycle integer divides dominate
			// each body's critical path — the "large number of divisions in
			// its critical path" that Section 5.2 blames for ammp's low,
			// resource-insensitive IPC. The two redundant divide chains of
			// SS-2 land on the two IntMult units and proceed in parallel,
			// which is why ammp loses almost nothing to redundancy.
			Chains: 4, SerialDivs: 16, BranchEvery: 12, RandomBranchFrac: 0.12,
			FootprintBytes: 512 << 10, Stride: 32, StoreFrac: 0.3,
			MulFrac: 0.01, BodySlots: 320, Seed: 108,
		},
		{
			Name: "fpppp", MemPct: 52.43, IntPct: 15.03, FAddPct: 15.53, FMulPct: 16.84, FDivPct: 0.16,
			Chains: 10, BranchEvery: 64, RandomBranchFrac: 0,
			FootprintBytes: 64 << 10, Stride: 8, StoreFrac: 0.35,
			MulFrac: 0.05, BodySlots: 320, Seed: 109,
		},
		{
			Name: "swim", MemPct: 32.71, IntPct: 37.41, FAddPct: 19.31, FMulPct: 10.12, FDivPct: 0.47,
			Chains: 12, BranchEvery: 40, RandomBranchFrac: 0,
			FootprintBytes: 2 << 20, Stride: 128, StoreFrac: 0.3,
			MulFrac: 0.05, BodySlots: 320, Seed: 110,
		},
		{
			Name: "art", MemPct: 35.29, IntPct: 43.50, FAddPct: 11.07, FMulPct: 8.39, FDivPct: 1.36,
			Chains: 6, BranchEvery: 14, RandomBranchFrac: 0.1,
			FootprintBytes: 1 << 20, Stride: 32, StoreFrac: 0.25,
			MulFrac: 0.08, BodySlots: 320, Seed: 111,
		},
	}
}

// ByName returns the profile with the given benchmark name.
func ByName(name string) (Profile, bool) {
	for _, p := range Table2() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names lists the benchmark names in Table 2 order.
func Names() []string {
	ps := Table2()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Register allocation for generated programs.
const (
	regIters = 1 // loop counter
	regLCG   = 2 // per-iteration pseudo-random state
	regTmp   = 3 // scratch for branch bits
	regBase  = 4 // data segment base
	regOff   = 5 // sweep offset
	regMask  = 6 // footprint mask
	regDenom = 7 // divisor for serial divides
	regAddr  = 8 // base + offset, recomputed once per iteration
	regChain = 10
	maxChain = 25
	// Loads land in a small rotating pool that integer filler reads, so
	// memory latency couples into the dependency chains without cutting
	// them.
	regLoad    = 26
	numLoadReg = 4

	fpOne   = isa.FPBase     // f0: multiplicative constant near 1
	fpSmall = isa.FPBase + 1 // f1: additive constant
	fpChain = isa.FPBase + 2 // f2..: FP chains
	maxFP   = isa.FPBase + 31
)

// slotKind is one body slot's instruction class.
type slotKind int

const (
	kindInt slotKind = iota
	kindIntMul
	kindLoad
	kindStore
	kindFAdd
	kindFMul
	kindFDiv
	kindBranchPred
	kindBranchRand
	kindSerialDiv
)

// Build generates the benchmark program with the given number of main
// loop iterations. Instruction counts scale as roughly BodySlots *
// iters; use the machine's MaxInsts to bound simulated length instead of
// tuning iters precisely.
func (p Profile) Build(iters int64) (*prog.Program, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	b := prog.NewBuilder(p.Name)
	rng := rand.New(rand.NewSource(p.Seed))

	// Data segment: the sweep window, pre-filled with pseudo-random
	// words so loads return varied values.
	words := p.FootprintBytes / 8
	initWords := make([]uint64, words)
	for i := range initWords {
		initWords[i] = rng.Uint64()
	}
	base := b.Word(initWords...)
	fconsts := b.Float(1.0000001, 1.0/(1<<20))

	// Startup.
	b.Li(regIters, iters)
	b.Li(regLCG, int64(p.Seed)*2654435761+12345)
	b.Li(regBase, int64(base))
	b.Li(regOff, 0)
	b.Li(regMask, int64(p.FootprintBytes-1))
	b.Li(regDenom, 3)
	for r := uint8(regChain); r <= maxChain; r++ {
		b.Li(r, int64(rng.Int63n(1<<40)+1))
	}
	b.Li(regTmp, int64(fconsts))
	b.Load(isa.OpFld, fpOne, regTmp, 0)
	b.Load(isa.OpFld, fpSmall, regTmp, 8)
	for f := uint8(fpChain); f <= maxFP; f++ {
		b.R(isa.OpCvtIF, f, uint8((int(f)-fpChain)%3+1), 0)
	}

	slots := p.planSlots(rng)

	b.Label("loop")
	// Per-iteration overhead: advance the LCG and the sweep window.
	b.Li(regTmp, 1103515245)
	b.R(isa.OpMul, regLCG, regLCG, regTmp)
	b.I(isa.OpAddi, regLCG, regLCG, 12345)
	b.I(isa.OpAddi, regOff, regOff, int32(p.Stride*7+64))
	b.R(isa.OpAnd, regOff, regOff, regMask)
	b.R(isa.OpAdd, regAddr, regBase, regOff)

	p.emitBody(b, slots, rng)

	b.I(isa.OpAddi, regIters, regIters, -1)
	b.Branch(isa.OpBne, regIters, 0, "loop")
	// Fold the chains and load registers into one observable checksum.
	b.Li(regTmp, 0)
	for r := uint8(regChain); r <= maxChain; r++ {
		b.R(isa.OpXor, regTmp, regTmp, r)
	}
	for r := uint8(regLoad); r < regLoad+numLoadReg; r++ {
		b.R(isa.OpXor, regTmp, regTmp, r)
	}
	b.Out(regTmp)
	b.Halt()
	return b.Build()
}

// MustBuild is Build that panics on error (profiles in Table2 are valid
// by construction).
func (p Profile) MustBuild(iters int64) *prog.Program {
	pr, err := p.Build(iters)
	if err != nil {
		panic(err)
	}
	return pr
}

func (p Profile) validate() error {
	switch {
	case p.BodySlots < 50:
		return fmt.Errorf("workload %s: body of %d slots is too small", p.Name, p.BodySlots)
	case p.Chains < 1 || p.Chains > maxChain-regChain+1:
		return fmt.Errorf("workload %s: %d chains out of range", p.Name, p.Chains)
	case p.FootprintBytes&(p.FootprintBytes-1) != 0 || p.FootprintBytes < 4096:
		return fmt.Errorf("workload %s: footprint %d not a power of two >= 4096", p.Name, p.FootprintBytes)
	case p.BranchEvery < 2:
		return fmt.Errorf("workload %s: BranchEvery %d < 2", p.Name, p.BranchEvery)
	}
	total := p.MemPct + p.IntPct + p.FAddPct + p.FMulPct + p.FDivPct
	if total < 99.0 || total > 101.0 {
		return fmt.Errorf("workload %s: mix sums to %.2f%%", p.Name, total)
	}
	return nil
}

// planSlots converts the percentage mix into a concrete multiset of body
// slots using largest-remainder rounding, then shuffles deterministically.
func (p Profile) planSlots(rng *rand.Rand) []slotKind {
	n := p.BodySlots
	// The loop adds fixed overhead instructions we must charge to the
	// integer budget: 6 per iteration of LCG/window maintenance plus the
	// counter decrement and backedge.
	const overhead = 8

	type share struct {
		kind slotKind
		pct  float64
	}
	shares := []share{
		{kindLoad, p.MemPct * (1 - p.StoreFrac)},
		{kindStore, p.MemPct * p.StoreFrac},
		{kindFAdd, p.FAddPct},
		{kindFMul, p.FMulPct},
		{kindFDiv, p.FDivPct},
	}
	counts := make(map[slotKind]int)
	type rem struct {
		kind slotKind
		frac float64
	}
	var rems []rem
	used := 0
	for _, s := range shares {
		exact := float64(n) * s.pct / 100
		whole := int(exact)
		counts[s.kind] += whole
		used += whole
		rems = append(rems, rem{s.kind, exact - float64(whole)})
	}
	sort.Slice(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	// Integer budget gets the remainder; hand out fractional leftovers
	// only to FP classes whose target would otherwise round to zero.
	for _, r := range rems {
		if r.frac > 0.5 && counts[r.kind] == 0 {
			counts[r.kind]++
			used++
		}
	}
	intBudget := n - used

	// Branches come out of the integer budget.
	nBranch := n / p.BranchEvery
	nRand := int(float64(nBranch)*p.RandomBranchFrac + 0.5)
	nPred := nBranch - nRand
	// A random branch costs srli+andi+beq (+ a skipped filler op half
	// the time); a predictable one is a single beq; each serial-divide
	// slot emits a div and a value-repair ori.
	intCost := nPred + nRand*3 + overhead + 2*p.SerialDivs
	filler := intBudget - intCost
	if filler < 0 {
		filler = 0
	}
	nMul := int(float64(filler)*p.MulFrac + 0.5)
	nInt := filler - nMul

	slots := make([]slotKind, 0, n)
	add := func(k slotKind, c int) {
		for i := 0; i < c; i++ {
			slots = append(slots, k)
		}
	}
	add(kindLoad, counts[kindLoad])
	add(kindStore, counts[kindStore])
	add(kindFAdd, counts[kindFAdd])
	add(kindFMul, counts[kindFMul])
	add(kindFDiv, counts[kindFDiv])
	add(kindBranchPred, nPred)
	add(kindBranchRand, nRand)
	add(kindInt, nInt)
	add(kindIntMul, nMul)
	add(kindSerialDiv, p.SerialDivs)
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

// emitBody lowers the slot plan to instructions.
func (p Profile) emitBody(b *prog.Builder, slots []slotKind, rng *rand.Rand) {
	chain := func(i int) uint8 { return uint8(regChain + i%p.Chains) }
	nFPChains := maxFP - fpChain + 1
	fpReg := func(i int) uint8 { return uint8(fpChain + i%nFPChains) }

	intOps := []isa.Op{isa.OpAdd, isa.OpXor, isa.OpSub, isa.OpOr, isa.OpAnd, isa.OpAdd, isa.OpAdd, isa.OpXor}
	memIdx, fpIdx, brIdx, chIdx := 0, 0, 0, 0

	for si, k := range slots {
		switch k {
		case kindInt:
			// Destination stays on its chain (serial dependence defines
			// the exposed ILP); the second source alternates between a
			// sibling chain and a recently loaded value, coupling memory
			// latency into the computation without cutting chains.
			op := intOps[rng.Intn(len(intOps))]
			c := chain(chIdx)
			chIdx++
			src2 := chain(chIdx*7 + 3)
			if si%2 == 0 {
				src2 = uint8(regLoad + (si/2)%numLoadReg)
			}
			b.R(op, c, c, src2)
		case kindIntMul:
			c := chain(chIdx)
			chIdx++
			b.R(isa.OpMul, c, c, chain(chIdx*5+1))
		case kindSerialDiv:
			// Serially dependent divide: the signature ammp bottleneck.
			b.R(isa.OpDiv, regChain, regChain, regDenom)
			b.I(isa.OpOri, regChain, regChain, 5) // keep the value nonzero
		case kindLoad:
			off := (memIdx * p.Stride) & (p.FootprintBytes - 1) &^ 7
			memIdx++
			b.Load(isa.OpLd, uint8(regLoad+memIdx%numLoadReg), regAddr, int32(off))
		case kindStore:
			off := (memIdx*p.Stride + 8) & (p.FootprintBytes - 1) &^ 7
			memIdx++
			b.Store(isa.OpSd, chain(chIdx), regAddr, int32(off))
			chIdx++
		case kindFAdd:
			f := fpReg(fpIdx)
			fpIdx++
			b.R(isa.OpFadd, f, f, fpSmall)
		case kindFMul:
			f := fpReg(fpIdx)
			fpIdx++
			b.R(isa.OpFmul, f, f, fpOne)
		case kindFDiv:
			f := fpReg(fpIdx)
			fpIdx++
			b.R(isa.OpFdiv, f, f, fpOne)
		case kindBranchPred:
			// Always-taken branch to the next instruction: trivially
			// predictable after warmup, but still occupies predictor and
			// issue resources.
			label := fmt.Sprintf("bp%d", si)
			b.Branch(isa.OpBeq, 0, 0, label)
			b.Label(label)
			brIdx++
		case kindBranchRand:
			// Direction depends on an LCG bit: mispredicted roughly half
			// the time, exercising the rewind path.
			bit := brIdx % 16
			label := fmt.Sprintf("br%d", si)
			b.I(isa.OpSrli, regTmp, regLCG, int32(8+bit))
			b.I(isa.OpAndi, regTmp, regTmp, 1)
			b.Branch(isa.OpBeq, regTmp, 0, label)
			c := chain(chIdx)
			b.R(isa.OpXor, c, c, regLCG) // conditionally skipped filler
			b.Label(label)
			brIdx++
		}
	}
}
