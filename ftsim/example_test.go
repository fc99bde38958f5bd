package ftsim_test

import (
	"context"
	"fmt"
	"log"

	"repro/ftsim"
)

// A tiny SRISC kernel: four independent accumulator chains folded into
// a checksum, enough instruction-level parallelism for redundant
// execution to exploit.
const exampleSrc = `
        li   r1, 2000           ; iterations
        li   r2, 11
        li   r3, 22
        li   r4, 33
        li   r5, 44
loop:   add  r2, r2, r1
        add  r3, r3, r1
        add  r4, r4, r1
        add  r5, r5, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        xor  r2, r2, r3
        xor  r2, r2, r4
        xor  r2, r2, r5
        out  r2
        halt
`

// Example builds the same program twice — once on the unprotected SS-1
// baseline, once on the 2-way redundant SS-2 design — and shows that
// protection changes throughput, never results.
func Example() {
	program, err := ftsim.Assemble("quickstart.s", exampleSrc)
	if err != nil {
		log.Fatal(err)
	}
	for _, model := range []ftsim.Model{ftsim.ModelSS1, ftsim.ModelSS2} {
		m, err := ftsim.NewFromConfig(model.Config())
		if err != nil {
			log.Fatal(err)
		}
		st, err := m.Run(context.Background(), program)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d instructions committed, checksum %#x\n",
			m.Config().Name, st.Committed, st.Output[0])
	}
	// Output:
	// SS-1: 12010 instructions committed, checksum 0x10
	// SS-2: 12010 instructions committed, checksum 0x10
}

// Example_faultInjection bombards the 2-way redundant design with
// transient faults: every fault with an architectural effect is caught
// by the commit-stage cross-check and repaired by rewind, so the
// oracle co-simulation sees no corruption escape.
func Example_faultInjection() {
	cfg := ftsim.ModelSS2.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-3, Seed: 7, Targets: ftsim.AllFaultTargets()}
	cfg.Oracle = true
	cfg.MaxInsts = 20_000
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	program, err := ftsim.Benchmark("go")
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(context.Background(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faults detected: %d\n", st.FaultsDetected)
	fmt.Printf("rewind recoveries: %d\n", st.FaultRewinds)
	fmt.Printf("state clean: %v\n", ftsim.CheckEscapes(st) == nil)
	// Output:
	// faults detected: 38
	// rewind recoveries: 38
	// state clean: true
}

// Example_majorityElection runs the triple-redundant design under the
// same fault storm: with three copies of every instruction, a corrupted
// minority is outvoted and the group commits without paying for a
// rewind — most recoveries become elections.
func Example_majorityElection() {
	cfg := ftsim.ModelSS3.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-3, Seed: 7, Targets: ftsim.AllFaultTargets()}
	cfg.Oracle = true
	cfg.MaxInsts = 20_000
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	program, err := ftsim.Benchmark("go")
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(context.Background(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faults detected: %d\n", st.FaultsDetected)
	fmt.Printf("majority elections: %d\n", st.MajorityCommits)
	fmt.Printf("rewind recoveries: %d\n", st.FaultRewinds)
	fmt.Printf("state clean: %v\n", ftsim.CheckEscapes(st) == nil)
	// Output:
	// faults detected: 101
	// majority elections: 93
	// rewind recoveries: 8
	// state clean: true
}
