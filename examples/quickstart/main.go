// Quickstart: assemble a small SRISC program, run it on the unprotected
// baseline (SS-1) and on the 2-way redundant fault-tolerant design
// (SS-2), and compare throughput — the basic "performance cost of
// reliability" measurement of the paper, written entirely against the
// public ftsim API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/ftsim"
)

// A loop with eight independent add chains: enough instruction-level
// parallelism that redundant execution has spare capacity to use.
const src = `
        li   r1, 20000          ; iterations
        li   r2, 2107           ; chain seeds: r*1047+13
        li   r3, 3154
        li   r4, 4201
        li   r5, 5248
        li   r6, 6295
        li   r7, 7342
        li   r8, 8389
        li   r9, 9436
loop:   add  r2, r2, r1
        add  r3, r3, r1
        add  r4, r4, r1
        add  r5, r5, r1
        add  r6, r6, r1
        add  r7, r7, r1
        add  r8, r8, r1
        add  r9, r9, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        li   r11, 0             ; fold the chains into a checksum
        xor  r11, r11, r2
        xor  r11, r11, r3
        xor  r11, r11, r4
        xor  r11, r11, r5
        xor  r11, r11, r6
        xor  r11, r11, r7
        xor  r11, r11, r8
        xor  r11, r11, r9
        out  r11
        halt
`

func main() {
	program, err := ftsim.Assemble("quickstart.s", src)
	if err != nil {
		log.Fatal(err)
	}

	run := func(model ftsim.Model) {
		cfg := model.Config()
		cfg.Oracle = true
		m, err := ftsim.NewFromConfig(cfg)
		if err != nil {
			log.Fatal(err)
		}
		st, err := m.Run(context.Background(), program)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s R=%d  cycles=%-8d IPC=%.3f  checksum=%#x  escaped-faults=%d\n",
			cfg.Name, cfg.R, st.Cycles, st.IPC(), st.Output[0], st.EscapedFaults)
	}

	fmt.Println("quickstart: identical program, identical results, different protection")
	run(ftsim.ModelSS1)
	run(ftsim.ModelSS2)
	fmt.Println()
	fmt.Println("SS-2 executes every instruction twice and cross-checks at commit,")
	fmt.Println("so its IPC is lower — that gap is the price of fault detection.")
}
