package asm

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/prog"
)

// FuzzAssemble fuzzes the assembler, which takes program text off the
// network in a trial's Asm field. For any source:
//
//  1. Assemble returns a program or an *Error, without panicking;
//  2. an accepted program fits the memory layout (prog.CheckLayout); and
//  3. its text, printed one isa.Inst.String per line, assembles again
//     to the identical text.
//
// The seeds are errorCases; the committed corpus in
// testdata/fuzz/FuzzAssemble/ adds the other sources of asm_test.go and
// the matrix-multiply kernel of examples/assembler.
func FuzzAssemble(f *testing.F) {
	for _, c := range errorCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			if aerr, ok := err.(*Error); !ok || aerr.Line < 1 {
				t.Fatalf("error %#v is not an *Error with a line", err)
			}
			return
		}
		if err := prog.CheckLayout(uint64(len(p.Text)), uint64(len(p.Data))); err != nil {
			t.Fatalf("accepted program does not fit the layout: %v", err)
		}
		var dis strings.Builder
		for _, in := range p.Text {
			dis.WriteString(in.String())
			dis.WriteByte('\n')
		}
		again, err := Assemble("fuzz", dis.String())
		if err != nil {
			t.Fatalf("disassembly does not assemble: %v", err)
		}
		if !slices.Equal(p.Text, again.Text) {
			t.Fatalf("disassembly reassembles to different text:\n%s", dis.String())
		}
	})
}
