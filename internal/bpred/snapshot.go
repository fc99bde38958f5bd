package bpred

import "repro/internal/snap"

// Canonical returns the configuration with every zero field replaced
// by its Table 1 default — the form under which two configurations
// describe the same hardware. Snapshot fingerprints hash the
// canonical form so that Config{} and Default() (which build
// identical predictors) also fingerprint identically.
func (c Config) Canonical() Config { return c.withDefaults() }

// Snapshot transfers the predictor's complete architectural state —
// direction counters, history registers, meta counters, BTB, RAS and
// statistics — through c. The table geometries are not stored; the
// snapshot is only meaningful against a predictor built from the same
// configuration, which the caller enforces via a config fingerprint.
// Lengths are still stored and re-checked, so a corrupt or mismatched
// blob is rejected rather than misapplied.
func (p *Predictor) Snapshot(c snap.Codec) {
	c.Fixed("bimodal table", p.bimodal)
	c.U64s("L1 history", p.l1)
	c.Fixed("L2 pattern table", p.l2)
	c.Fixed("meta table", p.meta)
	if c.Count("BTB", len(p.btb)) {
		for i := range p.btb {
			e := &p.btb[i]
			c.Bool(&e.valid)
			c.U64(&e.tag, &e.target, &e.lru)
		}
	}
	c.U64(&p.btbAge)
	c.U64s("RAS", p.ras)
	top := uint32(p.rasTop)
	c.U32(&top)
	if top <= uint32(len(p.ras)) {
		p.rasTop = int(top)
	} else {
		c.Corruptf("RAS top %d out of range", top)
	}
	p.Stats.Snapshot(c)
}

// Snapshot transfers the counters in declaration order.
func (s *Stats) Snapshot(c snap.Codec) {
	c.U64(&s.CondLookups, &s.CondMispredict, &s.IndirLookups, &s.IndirMispred,
		&s.RASPushes, &s.RASPops, &s.BTBHits, &s.BTBMisses)
}
