package ftsim

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/funcsim"
	"repro/internal/prog"
	"repro/internal/workload"
)

// Program is an executable SRISC program image: text, data and entry
// point. Obtain one from Benchmark (the paper's Table 2 suite) or
// Assemble (SRISC text assembly); the same Program can be loaded into
// any number of sessions, including concurrently. A Program is
// immutable: its read-only memory image is built on the first load,
// and its data segment backs that image's shared pages without a copy,
// so it is never written. Each machine maps the image and copies a
// page only when it first stores to it.
type Program struct {
	p *prog.Program
}

// Name returns the program's name.
func (p *Program) Name() string { return p.p.Name }

// Insts returns the static instruction count of the program text.
func (p *Program) Insts() int { return len(p.p.Text) }

// benchmarkIters is the loop bound baked into generated benchmarks;
// runs are always cut off by the machine's MaxInsts first.
const benchmarkIters = int64(1) << 32

// Benchmarks lists the built-in benchmark names in Table 2 order.
func Benchmarks() []string { return workload.Names() }

// Benchmark builds one of the 11 synthetic Table 2 benchmarks.
func Benchmark(name string) (*Program, error) {
	profile, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownBenchmark, name, workload.Names())
	}
	built, err := profile.Build(benchmarkIters)
	if err != nil {
		return nil, err
	}
	return &Program{p: built}, nil
}

// Assemble builds a program from SRISC text assembly. filename is used
// in error positions only.
func Assemble(filename, src string) (*Program, error) {
	built, err := asm.Assemble(filename, src)
	if err != nil {
		return nil, err
	}
	return &Program{p: built}, nil
}

// AssembleFile reads and assembles an SRISC assembly file.
func AssembleFile(path string) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Assemble(path, string(src))
}

// Reference is the result of running a program on the in-order
// functional reference simulator: the ground truth the pipeline's
// committed state is measured against.
type Reference struct {
	// Insts is the number of instructions executed.
	Insts uint64
	// Output collects the values written by the out instruction, in
	// program order.
	Output []uint64
	// Halted reports whether the program reached its halt instruction
	// within the instruction budget.
	Halted bool
}

// Reference executes the program on the fault-free in-order functional
// simulator for at most maxInsts instructions (0 means a generous
// default) and returns its architectural outputs.
func (p *Program) Reference(maxInsts uint64) (*Reference, error) {
	if maxInsts == 0 {
		maxInsts = 100_000_000
	}
	m := funcsim.New(p.p)
	err := m.Run(maxInsts)
	halted := err == nil
	if err != nil && !errors.Is(err, funcsim.ErrLimit) {
		return nil, err
	}
	return &Reference{Insts: m.Insts, Output: append([]uint64(nil), m.Output...), Halted: halted}, nil
}
