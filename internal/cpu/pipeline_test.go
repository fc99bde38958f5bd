package cpu

import (
	"errors"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/prog"
)

func sumProgram(n int64) *prog.Program {
	b := prog.NewBuilder("sum")
	b.Li(1, n)
	b.Li(3, 0)
	b.Label("loop")
	b.R(isa.OpAdd, 3, 3, 1)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Out(3)
	b.Halt()
	return b.MustBuild()
}

func runProgram(t *testing.T, cfg Config, p *prog.Program) *Stats {
	t.Helper()
	cfg.Oracle = true
	cfg.MaxCycles = 10_000_000
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted {
		t.Fatalf("program did not halt: %s", st.Summary())
	}
	if st.EscapedFaults != 0 {
		t.Fatalf("oracle divergence: %s", st.Summary())
	}
	return st
}

func TestBaselineSumLoop(t *testing.T) {
	st := runProgram(t, ModelSS1.Config(), sumProgram(500))
	if len(st.Output) != 1 || st.Output[0] != 125250 {
		t.Fatalf("output = %v, want [125250]", st.Output)
	}
	// 500 iterations x 3 + 4 overhead.
	if want := uint64(1504); st.Committed != want {
		t.Errorf("committed %d, want %d", st.Committed, want)
	}
	if st.IPC() <= 0.5 {
		t.Errorf("suspiciously low IPC %.3f: %s", st.IPC(), st.Summary())
	}
}

// TestILPThroughput checks that independent work actually issues in
// parallel: 8 independent add chains should run well above IPC 1.
func TestILPThroughput(t *testing.T) {
	b := prog.NewBuilder("ilp")
	b.Li(1, 2000)
	b.Label("loop")
	for r := uint8(2); r < 10; r++ {
		b.R(isa.OpAdd, r, r, 1)
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	st := runProgram(t, ModelSS1.Config(), b.MustBuild())
	if ipc := st.IPC(); ipc < 3.0 {
		t.Errorf("ILP loop IPC = %.2f, want > 3: %s", ipc, st.Summary())
	}
}

// TestSerialDependencyChain: a chain of dependent adds cannot exceed
// IPC ~1 per chain op plus loop overhead.
func TestSerialDependencyChain(t *testing.T) {
	b := prog.NewBuilder("serial")
	b.Li(1, 1000)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.R(isa.OpAdd, 2, 2, 2) // strictly serial
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	st := runProgram(t, ModelSS1.Config(), b.MustBuild())
	// 10 instructions per iteration, ~8 serial cycles minimum.
	if ipc := st.IPC(); ipc > 1.6 {
		t.Errorf("serial chain IPC = %.2f, expected near 1.25: %s", ipc, st.Summary())
	}
}

func TestMemoryAndForwarding(t *testing.T) {
	b := prog.NewBuilder("memfwd")
	buf := b.Alloc(64)
	b.Li(1, int64(buf))
	b.Li(2, 1000)
	b.Li(5, 0)
	b.Label("loop")
	b.Store(isa.OpSd, 2, 1, 0) // store counter
	b.Load(isa.OpLd, 3, 1, 0)  // immediately load it back (forward)
	b.R(isa.OpAdd, 5, 5, 3)
	b.I(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "loop")
	b.Out(5)
	b.Halt()
	st := runProgram(t, ModelSS1.Config(), b.MustBuild())
	if st.Output[0] != 500500 {
		t.Fatalf("sum via memory = %d, want 500500", st.Output[0])
	}
}

func TestBranchyCode(t *testing.T) {
	// Data-dependent branches on a pseudo-random sequence exercise
	// mispredict squash and map-table recovery.
	b := prog.NewBuilder("branchy")
	b.Li(1, 3000)  // iterations
	b.Li(2, 12345) // LCG state
	b.Li(6, 0)     // taken counter
	b.Label("loop")
	b.Li(3, 1103515245)
	b.R(isa.OpMul, 2, 2, 3)
	b.I(isa.OpAddi, 2, 2, 12345)
	b.I(isa.OpSrli, 4, 2, 16)
	b.I(isa.OpAndi, 4, 4, 1)
	b.Branch(isa.OpBeq, 4, 0, "skip")
	b.I(isa.OpAddi, 6, 6, 1)
	b.Label("skip")
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Out(6)
	b.Halt()

	p := b.MustBuild()
	ref := funcsim.New(p)
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	st := runProgram(t, ModelSS1.Config(), p)
	if st.Output[0] != ref.Output[0] {
		t.Fatalf("taken count = %d, want %d", st.Output[0], ref.Output[0])
	}
	if st.BranchRewinds == 0 {
		t.Error("no branch rewinds on random branches")
	}
}

func TestCallsAndReturns(t *testing.T) {
	b := prog.NewBuilder("calls")
	b.Li(1, 200)
	b.Li(5, 0)
	b.Label("loop")
	b.Jal(isa.RegLink, "fn")
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Out(5)
	b.Halt()
	b.Label("fn")
	b.I(isa.OpAddi, 5, 5, 3)
	b.Emit(isa.Inst{Op: isa.OpJr, Rs1: isa.RegLink})
	st := runProgram(t, ModelSS1.Config(), b.MustBuild())
	if st.Output[0] != 600 {
		t.Fatalf("calls sum = %d, want 600", st.Output[0])
	}
}

func TestFloatingPointPipeline(t *testing.T) {
	b := prog.NewBuilder("fp")
	f0, f1, f2 := uint8(isa.FPBase), uint8(isa.FPBase+1), uint8(isa.FPBase+2)
	c := b.Float(1.0, 0.5)
	b.Li(1, int64(c))
	b.Load(isa.OpFld, f0, 1, 0)
	b.Load(isa.OpFld, f1, 1, 8)
	b.Li(2, 100)
	b.Label("loop")
	b.R(isa.OpFmul, f2, f0, f1)
	b.R(isa.OpFadd, f0, f2, f0)
	b.R(isa.OpFdiv, f2, f0, f0)
	b.I(isa.OpAddi, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "loop")
	b.R(isa.OpCvtFI, 3, f2, 0)
	b.Out(3)
	b.Halt()
	st := runProgram(t, ModelSS1.Config(), b.MustBuild())
	if st.Output[0] != 1 { // x/x = 1
		t.Fatalf("fp result = %d, want 1", st.Output[0])
	}
}

// TestRedundantMatchesBaseline: in the absence of faults, SS-2 and SS-3
// commit exactly the same architectural results as SS-1, only slower.
func TestRedundantMatchesBaseline(t *testing.T) {
	p := sumProgram(300)
	base := runProgram(t, ModelSS1.Config(), p)
	for _, r := range []int{2, 4} {
		cfg := ModelSS1.Config()
		cfg.R = r
		st := runProgram(t, cfg, p)
		if len(st.Output) != 1 || st.Output[0] != base.Output[0] {
			t.Fatalf("R=%d output %v differs from baseline %v", r, st.Output, base.Output)
		}
		if st.Committed != base.Committed {
			t.Errorf("R=%d committed %d vs baseline %d", r, st.Committed, base.Committed)
		}
		if st.Copies != st.Committed*uint64(r) {
			t.Errorf("R=%d copies %d, want %d", r, st.Copies, st.Committed*uint64(r))
		}
		if st.FaultsDetected != 0 || st.FaultRewinds != 0 {
			t.Errorf("R=%d spurious fault detections: %s", r, st.Summary())
		}
		if st.Cycles < base.Cycles {
			t.Errorf("R=%d ran faster (%d cycles) than baseline (%d)", r, st.Cycles, base.Cycles)
		}
	}
}

func TestMaxInstsLimit(t *testing.T) {
	cfg := ModelSS1.Config()
	cfg.MaxInsts = 100
	cfg.Oracle = true
	m, err := New(cfg, sumProgram(100000))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 100 {
		t.Errorf("committed %d, want 100", st.Committed)
	}
	if st.Halted {
		t.Error("reported halt without reaching halt")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A program that spins forever without committing cannot happen with
	// a correct pipeline, so synthesise the condition via MaxCycles=0 and
	// an empty-but-never-halting program: jump to self still commits.
	// Instead, verify the error path by exhausting MaxCycles.
	b := prog.NewBuilder("spin")
	b.Label("top")
	b.Jump("top")
	b.Halt()
	cfg := ModelSS1.Config()
	cfg.MaxCycles = 5000
	m, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Halted || st.Cycles < 5000 {
		t.Errorf("spin loop: halted=%v cycles=%d", st.Halted, st.Cycles)
	}
	if st.Committed == 0 {
		t.Error("self-jump never committed")
	}
	_ = errors.Is // keep errors import if unused later
}

func TestHalvedSlowerThanBaseline(t *testing.T) {
	// The Static-2 pipeline (half resources) must not beat the full
	// machine on an ILP-rich workload.
	b := prog.NewBuilder("ilp2")
	b.Li(1, 2000)
	b.Label("loop")
	for r := uint8(2); r < 12; r++ {
		b.R(isa.OpAdd, r, r, 1)
	}
	b.I(isa.OpAddi, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	p := b.MustBuild()
	full := runProgram(t, ModelSS1.Config(), p)
	half := runProgram(t, ModelStatic2.Config(), p)
	if half.IPC() >= full.IPC() {
		t.Errorf("halved IPC %.2f >= full IPC %.2f", half.IPC(), full.IPC())
	}
}

// TestStoreLoadDifferentSizes exercises partial-overlap conservatism.
func TestStoreLoadDifferentSizes(t *testing.T) {
	b := prog.NewBuilder("overlap")
	buf := b.Alloc(16)
	b.Li(1, int64(buf))
	b.Li(2, 0x1122334455667788)
	b.Store(isa.OpSd, 2, 1, 0)
	b.Load(isa.OpLb, 3, 1, 0) // partial overlap: must wait for the store
	b.Load(isa.OpLw, 4, 1, 4) // partial overlap at offset
	b.Out(3)
	b.Out(4)
	b.Halt()
	st := runProgram(t, ModelSS1.Config(), b.MustBuild())
	if st.Output[0] != 0xFFFFFFFFFFFFFF88 {
		t.Errorf("lb = %#x", st.Output[0])
	}
	if st.Output[1] != 0x11223344 {
		t.Errorf("lw = %#x", st.Output[1])
	}
}

func TestOccupancyStats(t *testing.T) {
	st := runProgram(t, ModelSS1.Config(), sumProgram(200))
	if st.AvgRUUOccupancy() <= 0 {
		t.Error("zero RUU occupancy")
	}
	if st.IPC() <= 0 || st.CopyIPC() != st.IPC() {
		t.Errorf("IPC bookkeeping: ipc=%.2f copyIPC=%.2f", st.IPC(), st.CopyIPC())
	}
	if st.Summary() == "" {
		t.Error("empty summary")
	}
}
