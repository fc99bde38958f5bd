// Assembler: write a real kernel — 16x16 integer matrix multiply — in
// SRISC text assembly, assemble it, and run it on both the functional
// reference simulator and the out-of-order pipeline, checking the
// result against a Go-computed reference.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/ftsim"
)

const n = 16

const matmulSrc = `
; C = A * B for 16x16 int64 matrices.
; r1=i r2=j r3=k r4=&A[i][k] r5=&B[k][j] r6=acc r7..r9 scratch
.data
a:      .space 2048         ; 16*16*8
b:      .space 2048
c:      .space 2048
.text
        ; initialise A[i][j] = i+j, B[i][j] = i-j+3
        li   r1, 0          ; i
initi:  li   r2, 0          ; j
initj:  slli r7, r1, 7      ; i*16*8
        slli r8, r2, 3      ; j*8
        add  r7, r7, r8     ; offset
        la   r9, a
        add  r9, r9, r7
        add  r10, r1, r2    ; i+j
        sd   r10, 0(r9)
        la   r9, b
        add  r9, r9, r7
        sub  r10, r1, r2
        addi r10, r10, 3    ; i-j+3
        sd   r10, 0(r9)
        addi r2, r2, 1
        slti r11, r2, 16
        bne  r11, r0, initj
        addi r1, r1, 1
        slti r11, r1, 16
        bne  r11, r0, initi

        ; triple loop
        li   r1, 0          ; i
loopi:  li   r2, 0          ; j
loopj:  li   r3, 0          ; k
        li   r6, 0          ; acc
loopk:  slli r7, r1, 7
        slli r8, r3, 3
        add  r7, r7, r8
        la   r4, a
        add  r4, r4, r7     ; &A[i][k]
        slli r7, r3, 7
        slli r8, r2, 3
        add  r7, r7, r8
        la   r5, b
        add  r5, r5, r7     ; &B[k][j]
        ld   r9, 0(r4)
        ld   r10, 0(r5)
        mul  r9, r9, r10
        add  r6, r6, r9
        addi r3, r3, 1
        slti r11, r3, 16
        bne  r11, r0, loopk
        slli r7, r1, 7
        slli r8, r2, 3
        add  r7, r7, r8
        la   r5, c
        add  r5, r5, r7
        sd   r6, 0(r5)      ; C[i][j] = acc
        addi r2, r2, 1
        slti r11, r2, 16
        bne  r11, r0, loopj
        addi r1, r1, 1
        slti r11, r1, 16
        bne  r11, r0, loopi

        ; emit the trace: C[0][0], C[7][9], C[15][15]
        la   r5, c
        ld   r9, 0(r5)
        out  r9
        ld   r9, 968(r5)    ; (7*16+9)*8
        out  r9
        ld   r9, 2040(r5)   ; (15*16+15)*8
        out  r9
        halt
`

func reference() (c [n][n]int64) {
	var a, b [n][n]int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = int64(i + j)
			b[i][j] = int64(i - j + 3)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc int64
			for k := 0; k < n; k++ {
				acc += a[i][k] * b[k][j]
			}
			c[i][j] = acc
		}
	}
	return c
}

func main() {
	program, err := ftsim.Assemble("matmul", matmulSrc)
	if err != nil {
		log.Fatal(err)
	}
	want := reference()
	expect := []int64{want[0][0], want[7][9], want[15][15]}

	// Functional reference simulator.
	ref, err := program.Reference(10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional: %d instructions, C[0][0]=%d C[7][9]=%d C[15][15]=%d\n",
		ref.Insts, int64(ref.Output[0]), int64(ref.Output[1]), int64(ref.Output[2]))

	// Out-of-order pipeline, fault-tolerant mode, with the oracle on.
	cfg := ftsim.ModelSS2.Config()
	cfg.Oracle = true
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Run(context.Background(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SS-2:       %d cycles, IPC %.3f, escaped faults %d\n",
		st.Cycles, st.IPC(), st.EscapedFaults)

	for i, got := range st.Output {
		if int64(got) != expect[i] {
			log.Fatalf("C mismatch at sample %d: got %d, want %d", i, int64(got), expect[i])
		}
	}
	fmt.Println("matmul results match the Go reference on both simulators.")
}
