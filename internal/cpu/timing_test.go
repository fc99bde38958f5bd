package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// timingRun executes p on a baseline machine with warm caches (first run
// discarded) and returns steady-state stats.
func timingRun(t *testing.T, p *prog.Program, mutate func(*Config)) *Stats {
	t.Helper()
	cfg := Baseline()
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.Oracle = true
	cfg.MaxCycles = 5_000_000
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted || st.EscapedFaults != 0 {
		t.Fatalf("timing run failed: %s", st.Summary())
	}
	return st
}

// TestMemPortLimit: independent cache-hitting loads cannot exceed the
// two D-cache ports per cycle (Table 1), regardless of issue width.
func TestMemPortLimit(t *testing.T) {
	b := prog.NewBuilder("ports")
	buf := b.Alloc(64)
	b.Li(1, int64(buf))
	b.Li(2, 3000)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.Load(isa.OpLd, uint8(3+i), 1, int32(i*8)) // independent loads
	}
	b.I(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "loop")
	b.Halt()
	p := b.MustBuild()

	st := timingRun(t, p, nil)
	// 10 instructions per iteration, 8 of which are loads needing 4
	// cycles on 2 ports: IPC can't beat 10/4 = 2.5.
	if ipc := st.IPC(); ipc > 2.6 {
		t.Errorf("IPC %.3f exceeds the 2-port bound 2.5", ipc)
	}
	// With 8 ports the same loop runs much faster.
	st8 := timingRun(t, p, func(c *Config) { c.MemPorts = 8 })
	if st8.IPC() < st.IPC()*1.5 {
		t.Errorf("8 ports did not relieve the bottleneck: %.3f vs %.3f", st8.IPC(), st.IPC())
	}
}

// TestUnpipelinedDividerOccupancy: independent divides still serialise on
// the two unpipelined IntMult units at 20 cycles each.
func TestUnpipelinedDividerOccupancy(t *testing.T) {
	b := prog.NewBuilder("divs")
	b.Li(1, 500)
	b.Li(2, 1000)
	b.Li(3, 7)
	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.R(isa.OpDiv, uint8(10+i), 2, 3) // independent divides
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	st := timingRun(t, b.MustBuild(), nil)
	// 4 divides per iteration on 2 unpipelined 20-cycle units: >= 40
	// cycles per iteration, 6 instructions -> IPC <= 0.15.
	if ipc := st.IPC(); ipc > 0.16 {
		t.Errorf("IPC %.3f beats the divider occupancy bound", ipc)
	}
}

// TestPipelinedMultiplierThroughput: multiplies are pipelined, so the
// same structure with muls sustains two per cycle.
func TestPipelinedMultiplierThroughput(t *testing.T) {
	b := prog.NewBuilder("muls")
	b.Li(1, 2000)
	b.Li(2, 3)
	b.Li(3, 5)
	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.R(isa.OpMul, uint8(10+i), 2, 3)
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	st := timingRun(t, b.MustBuild(), nil)
	// 4 muls on 2 pipelined units = 2 cycles; 6 insts per iteration over
	// >= 2 cycles, but the addi/bne overlap: expect IPC near 3.
	if ipc := st.IPC(); ipc < 2.0 {
		t.Errorf("pipelined multiplier IPC %.3f, want near 3", ipc)
	}
}

// TestFPAddLatency: a serial fadd chain pays the 2-cycle latency per
// element.
func TestFPAddLatency(t *testing.T) {
	b := prog.NewBuilder("fplat")
	f1, f2 := uint8(isa.FPBase+1), uint8(isa.FPBase+2)
	b.Li(2, 1)
	b.R(isa.OpCvtIF, f1, 2, 0)
	b.R(isa.OpCvtIF, f2, 2, 0)
	b.Li(1, 2000)
	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.R(isa.OpFadd, f1, f1, f2) // strictly serial: 2 cycles each
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	st := timingRun(t, b.MustBuild(), nil)
	// 8+ cycles per 6-instruction iteration: IPC <= 0.8 (plus overlap
	// slack for the loop overhead).
	if ipc := st.IPC(); ipc > 0.85 {
		t.Errorf("serial fadd chain IPC %.3f ignores the 2-cycle latency", ipc)
	}
}

// TestColdCacheSlowdown: a footprint far beyond the L2 runs slower than
// an L1-resident one.
func TestCacheSensitivity(t *testing.T) {
	build := func(footprint int) *prog.Program {
		b := prog.NewBuilder("cache")
		buf := b.Alloc(footprint)
		b.Li(1, int64(buf))
		b.Li(2, 4000)
		b.Li(4, 0)
		b.Li(5, int64(footprint-64))
		b.Label("loop")
		b.R(isa.OpAdd, 6, 1, 4)
		b.Load(isa.OpLd, 3, 6, 0)
		b.I(isa.OpAddi, 4, 4, 4096+64) // jump pages to defeat locality
		b.R(isa.OpAnd, 4, 4, 5)
		b.I(isa.OpAddi, 2, 2, -1)
		b.Branch(isa.OpBne, 2, 0, "loop")
		b.Halt()
		return b.MustBuild()
	}
	small := timingRun(t, build(8<<10), nil) // L1-resident
	large := timingRun(t, build(4<<20), nil) // far beyond L2
	if large.DL1.MissRate() < 0.5 {
		t.Errorf("large footprint miss rate %.2f, expected streaming misses", large.DL1.MissRate())
	}
	if small.DL1.MissRate() > 0.2 {
		t.Errorf("small footprint miss rate %.2f, expected hits", small.DL1.MissRate())
	}
	if large.IPC() >= small.IPC() {
		t.Errorf("cache misses did not slow execution: %.3f vs %.3f", large.IPC(), small.IPC())
	}
}

// TestRedundantDispatchHalved: in SS-2 mode the architectural dispatch
// rate is width/R; a dispatch-bound loop shows the factor-of-two.
func TestRedundantDispatchHalved(t *testing.T) {
	// Independent single-cycle ops: bound purely by width.
	b := prog.NewBuilder("width")
	b.Li(1, 3000)
	b.Label("loop")
	for i := 0; i < 14; i++ {
		b.R(isa.OpAdd, uint8(2+i%12), 1, 1)
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	p := b.MustBuild()
	ss1 := timingRun(t, p, nil)
	ss2 := timingRun(t, p, func(c *Config) { c.R = 2 })
	ratio := ss2.IPC() / ss1.IPC()
	if ratio < 0.4 || ratio > 0.62 {
		t.Errorf("SS-2/SS-1 = %.2f on a width-bound loop, want ~0.5", ratio)
	}
}
