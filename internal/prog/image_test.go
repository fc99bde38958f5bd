package prog

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/testenv"
)

// bigProgram has three whole data pages and a partial fourth.
func bigProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("big")
	b.La(1, "top")
	b.Label("top")
	b.Halt()
	for i := 0; i < (3*mem.PageSize+64)/8; i++ {
		b.Word(uint64(i) * 0x0101_0101)
	}
	return b.MustBuild()
}

// TestLoadIntoCopiesNoData: every whole data page of a loaded program
// is the program's own Data, and reloading into a warm memory allocates
// nothing.
func TestLoadIntoCopiesNoData(t *testing.T) {
	p := bigProgram(t)
	m := mem.New()
	p.LoadInto(m)
	for i := 0; i+mem.PageSize <= len(p.Data); i += mem.PageSize {
		idx := uint64(DataBase+i) >> mem.PageShift
		if &m.PageData(idx)[0] != &p.Data[i] {
			t.Errorf("data page %d was copied", i/mem.PageSize)
		}
	}
	if got, want := m.Read(DataBase+uint64(len(p.Data))-8, 8), uint64(len(p.Data)/8-1)*0x0101_0101; got != want {
		t.Errorf("last data word = %#x, want %#x", got, want)
	}
	if testenv.RaceEnabled {
		return // allocation counts are not meaningful under -race
	}
	if allocs := testing.AllocsPerRun(10, func() {
		m.Reset()
		p.LoadInto(m)
		m.Write(DataBase, 8, 1)
	}); allocs != 0 {
		t.Errorf("warm reset+load allocates %.1f/run, want 0", allocs)
	}
}

// TestConcurrentLoads maps one program into memories on several
// goroutines at once, the first load building the image, and has each
// write its text and data pages. Under -race this is the check that
// the image is built once and never written.
func TestConcurrentLoads(t *testing.T) {
	p := bigProgram(t)
	want := append([]byte(nil), p.Data...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := mem.New()
			p.LoadInto(m)
			m.Write(TextBase, 8, uint64(g))
			m.Write(DataBase+8, 8, uint64(g))
			if m.Read(TextBase, 8) != uint64(g) || m.Read(DataBase+8, 8) != uint64(g) {
				t.Errorf("goroutine %d lost its own writes", g)
			}
		}(g)
	}
	wg.Wait()
	for i := range want {
		if p.Data[i] != want[i] {
			t.Fatalf("data byte %d changed under concurrent loads", i)
		}
	}
	m := mem.New()
	p.LoadInto(m)
	if got := isa.Decode(m.Read(TextBase, isa.InstBytes)); got != p.Text[0] {
		t.Errorf("image text after concurrent writes = %v, want %v", got, p.Text[0])
	}
}
