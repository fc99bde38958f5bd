// Package bpred implements the branch prediction hardware of the
// simulated machine: a bimodal predictor, a two-level adaptive predictor,
// and the combined (tournament) predictor from the paper's Table 1
// ("combined predictor that selects between a 2K bimodal and a 2-level
// predictor; the 2-level predictor consists of a 2-entry L1 (10-bit
// history), a 1024-entry L2, and 1-bit xor"), plus a branch target buffer
// and a return-address stack.
//
// Direct branch and jump targets are computed exactly by the front end
// (fetch decodes the instruction word), so the BTB is consulted only for
// indirect jumps; direction prediction dominates the misprediction rate,
// as in SimpleScalar.
package bpred

import (
	"fmt"

	"repro/internal/isa"
)

// Kind selects the direction predictor.
type Kind string

const (
	KindNotTaken Kind = "nottaken" // static not-taken
	KindTaken    Kind = "taken"    // static taken
	KindBimodal  Kind = "bimodal"
	KindTwoLevel Kind = "twolevel"
	KindCombined Kind = "comb"
)

// Config describes the predictor; the zero value of any field takes the
// Table 1 default.
type Config struct {
	Kind Kind `json:"kind,omitempty"` // comb|bimodal|twolevel|taken|nottaken

	BimodalSize int  `json:"bimodal_size,omitempty"` // 2-bit counters (default 2048)
	L1Size      int  `json:"l1_size,omitempty"`      // history registers (default 2)
	HistBits    int  `json:"hist_bits,omitempty"`    // history length (default 10)
	L2Size      int  `json:"l2_size,omitempty"`      // pattern counters (default 1024)
	XOR         bool `json:"xor,omitempty"`
	MetaSize    int  `json:"meta_size,omitempty"` // tournament selector counters (default 2048)

	BTBSets int `json:"btb_sets,omitempty"` // default 128
	BTBWays int `json:"btb_ways,omitempty"` // default 4
	RASSize int `json:"ras_size,omitempty"` // default 8
}

// Default returns the Table 1 predictor configuration.
func Default() Config {
	return Config{
		Kind:        KindCombined,
		BimodalSize: 2048,
		L1Size:      2,
		HistBits:    10,
		L2Size:      1024,
		XOR:         true,
		MetaSize:    2048,
		BTBSets:     128,
		BTBWays:     4,
		RASSize:     8,
	}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.Kind == "" {
		c.Kind = d.Kind
	}
	if c.BimodalSize == 0 {
		c.BimodalSize = d.BimodalSize
	}
	if c.L1Size == 0 {
		c.L1Size = d.L1Size
	}
	if c.HistBits == 0 {
		c.HistBits = d.HistBits
	}
	if c.L2Size == 0 {
		c.L2Size = d.L2Size
	}
	if c.MetaSize == 0 {
		c.MetaSize = d.MetaSize
	}
	if c.BTBSets == 0 {
		c.BTBSets = d.BTBSets
	}
	if c.BTBWays == 0 {
		c.BTBWays = d.BTBWays
	}
	if c.RASSize == 0 {
		c.RASSize = d.RASSize
	}
	return c
}

// Prediction is the front end's guess for one control-flow instruction,
// along with the component state needed to update the predictor when the
// branch retires.
type Prediction struct {
	NextPC uint64
	Taken  bool

	bimodalTaken  bool
	twoLevelTaken bool
	usedTwoLevel  bool
	usedRAS       bool
	fromBTB       bool
}

// Stats counts predictor events. Direction statistics cover conditional
// branches only; target statistics cover indirect jumps.
type Stats struct {
	CondLookups    uint64
	CondMispredict uint64
	IndirLookups   uint64
	IndirMispred   uint64
	RASPushes      uint64
	RASPops        uint64
	BTBHits        uint64
	BTBMisses      uint64
}

// MispredictRate returns the conditional-branch misprediction rate.
func (s Stats) MispredictRate() float64 {
	if s.CondLookups == 0 {
		return 0
	}
	return float64(s.CondMispredict) / float64(s.CondLookups)
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// Predictor is the complete branch prediction unit. It is not safe for
// concurrent use; each simulated core owns one.
type Predictor struct {
	cfg Config

	bimodal []uint8 // 2-bit saturating counters
	l1      []uint64
	l2      []uint8
	meta    []uint8 // 2-bit: >=2 prefers the two-level component

	// btb is the branch target buffer as one flat set-major slab
	// (BTBSets * BTBWays entries), so building a predictor costs one
	// allocation for it instead of one per set.
	btb    []btbEntry
	btbAge uint64

	ras    []uint64
	rasTop int // number of valid entries

	Stats Stats
}

// New builds a predictor from cfg (zero fields defaulted).
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	p := &Predictor{cfg: cfg}
	p.bimodal = make([]uint8, cfg.BimodalSize)
	p.meta = make([]uint8, cfg.MetaSize)
	p.l1 = make([]uint64, cfg.L1Size)
	p.l2 = make([]uint8, cfg.L2Size)
	p.btb = make([]btbEntry, cfg.BTBSets*cfg.BTBWays)
	p.ras = make([]uint64, cfg.RASSize)
	p.Reset()
	return p
}

// Renew returns a predictor for cfg, reusing p's table storage when the
// (defaulted) configuration matches; otherwise it builds fresh. Either
// way the result is indistinguishable from New(cfg).
func Renew(p *Predictor, cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	if p == nil || p.cfg != cfg {
		return New(cfg)
	}
	p.Reset()
	return p
}

// Reset restores the just-built predictor state in place: all direction
// counters weakly not-taken, history registers, BTB, RAS and statistics
// cleared.
func (p *Predictor) Reset() {
	initCounters(p.bimodal)
	initCounters(p.meta)
	initCounters(p.l2)
	clear(p.l1)
	clear(p.btb)
	clear(p.ras)
	p.rasTop = 0
	p.btbAge = 0
	p.Stats = Stats{}
}

func initCounters(c []uint8) {
	for i := range c {
		c[i] = 1 // weakly not-taken
	}
}

// Predict returns the front end's next-PC guess for the control-flow
// instruction in at address pc. It speculatively updates the return
// address stack (pushes on calls, pops on returns), as a real fetch
// engine does.
func (p *Predictor) Predict(pc uint64, in isa.Inst) Prediction {
	oi := in.Info()
	fall := pc + isa.InstBytes
	switch {
	case in.Op == isa.OpJ:
		return Prediction{NextPC: pc + uint64(int64(in.Imm)), Taken: true}
	case in.Op == isa.OpJal:
		p.push(fall)
		return Prediction{NextPC: pc + uint64(int64(in.Imm)), Taken: true}
	case in.Op == isa.OpJr || in.Op == isa.OpJalr:
		pr := Prediction{Taken: true}
		if in.Rs1 == isa.RegLink && p.rasTop > 0 {
			pr.NextPC = p.pop()
			pr.usedRAS = true
		} else if target, ok := p.btbLookup(pc); ok {
			pr.NextPC = target
			pr.fromBTB = true
			p.Stats.BTBHits++
		} else {
			// No information: predict fall-through and let the rewind
			// mechanism redirect.
			pr.NextPC = fall
			p.Stats.BTBMisses++
		}
		if in.Op == isa.OpJalr {
			p.push(fall)
		}
		p.Stats.IndirLookups++
		return pr
	case oi.IsBranch:
		pr := p.predictDir(pc)
		p.Stats.CondLookups++
		if pr.Taken {
			pr.NextPC = pc + uint64(int64(in.Imm))
		} else {
			pr.NextPC = fall
		}
		return pr
	}
	return Prediction{NextPC: fall}
}

func (p *Predictor) predictDir(pc uint64) Prediction {
	var pr Prediction
	switch p.cfg.Kind {
	case KindNotTaken:
		return pr
	case KindTaken:
		pr.Taken = true
		return pr
	}
	bi := p.bimodal[p.bimodalIdx(pc)] >= 2
	tl := p.l2[p.twoLevelIdx(pc)] >= 2
	pr.bimodalTaken, pr.twoLevelTaken = bi, tl
	switch p.cfg.Kind {
	case KindBimodal:
		pr.Taken = bi
	case KindTwoLevel:
		pr.Taken = tl
	case KindCombined:
		pr.usedTwoLevel = p.meta[p.metaIdx(pc)] >= 2
		if pr.usedTwoLevel {
			pr.Taken = tl
		} else {
			pr.Taken = bi
		}
	}
	return pr
}

// Update trains the predictor with the resolved outcome of a control-flow
// instruction. The pipeline calls it at commit so wrong-path branches
// never pollute predictor state.
func (p *Predictor) Update(pc uint64, in isa.Inst, taken bool, next uint64, pr Prediction) {
	oi := in.Info()
	if oi.IsBranch {
		if pr.Taken != taken || (taken && pr.NextPC != next) {
			p.Stats.CondMispredict++
		}
		p.updateDir(pc, taken, pr)
		return
	}
	if in.Op == isa.OpJr || in.Op == isa.OpJalr {
		if pr.NextPC != next {
			p.Stats.IndirMispred++
		}
		p.btbUpdate(pc, next)
	}
}

func (p *Predictor) updateDir(pc uint64, taken bool, pr Prediction) {
	switch p.cfg.Kind {
	case KindNotTaken, KindTaken:
		return
	}
	bump(&p.bimodal[p.bimodalIdx(pc)], taken)
	// Two-level: train the pattern entry selected at prediction time,
	// then shift the history register.
	l2i := p.twoLevelIdx(pc)
	bump(&p.l2[l2i], taken)
	l1i := p.l1Idx(pc)
	p.l1[l1i] = ((p.l1[l1i] << 1) | b2u(taken)) & ((1 << p.cfg.HistBits) - 1)
	if p.cfg.Kind == KindCombined {
		// Train the selector toward the component that was right when
		// they disagreed.
		if pr.bimodalTaken != pr.twoLevelTaken {
			bump(&p.meta[p.metaIdx(pc)], pr.twoLevelTaken == taken)
		}
	}
}

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 3) % uint64(p.cfg.BimodalSize))
}

func (p *Predictor) metaIdx(pc uint64) int {
	return int((pc >> 3) % uint64(p.cfg.MetaSize))
}

func (p *Predictor) l1Idx(pc uint64) int {
	return int((pc >> 3) % uint64(p.cfg.L1Size))
}

func (p *Predictor) twoLevelIdx(pc uint64) int {
	hist := p.l1[p.l1Idx(pc)]
	base := pc >> 3
	var idx uint64
	if p.cfg.XOR {
		idx = hist ^ base
	} else {
		idx = (base << p.cfg.HistBits) | hist
	}
	return int(idx % uint64(p.cfg.L2Size))
}

// btbSet returns one BTB set's ways as a slice into the slab.
func (p *Predictor) btbSet(pc uint64) []btbEntry {
	i := int((pc>>3)%uint64(p.cfg.BTBSets)) * p.cfg.BTBWays
	return p.btb[i : i+p.cfg.BTBWays]
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	set := p.btbSet(pc)
	tag := pc >> 3
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			p.btbAge++
			set[i].lru = p.btbAge
			return set[i].target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbUpdate(pc uint64, target uint64) {
	set := p.btbSet(pc)
	tag := pc >> 3
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			victim = i
			break
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	p.btbAge++
	set[victim] = btbEntry{valid: true, tag: tag, target: target, lru: p.btbAge}
}

func (p *Predictor) push(addr uint64) {
	if p.rasTop < len(p.ras) {
		p.ras[p.rasTop] = addr
		p.rasTop++
	} else {
		// Overflow discards the oldest entry.
		copy(p.ras, p.ras[1:])
		p.ras[len(p.ras)-1] = addr
	}
	p.Stats.RASPushes++
}

func (p *Predictor) pop() uint64 {
	p.rasTop--
	p.Stats.RASPops++
	return p.ras[p.rasTop]
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// String describes the configuration.
func (c Config) String() string {
	c = c.withDefaults()
	switch c.Kind {
	case KindCombined:
		return fmt.Sprintf("comb(bimodal %d + 2lev %d/%d-bit/%d xor=%v, meta %d)",
			c.BimodalSize, c.L1Size, c.HistBits, c.L2Size, c.XOR, c.MetaSize)
	case KindTwoLevel:
		return fmt.Sprintf("2lev(%d/%d-bit/%d xor=%v)", c.L1Size, c.HistBits, c.L2Size, c.XOR)
	case KindBimodal:
		return fmt.Sprintf("bimodal(%d)", c.BimodalSize)
	default:
		return string(c.Kind)
	}
}
