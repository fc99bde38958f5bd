package mem

import (
	"bytes"
	"testing"

	"repro/internal/testenv"
)

// testImage freezes a three-page image: a written page, a page shared
// from src without a copy, and a partial tail page.
func testImage(t *testing.T) (img *Image, src []byte) {
	t.Helper()
	m := New()
	m.Write(0x1000, 8, 0x1111)
	src = make([]byte, PageSize+100)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	m.ShareBytes(4*PageSize, src)
	if got := &m.PageData(4)[0]; got != &src[0] {
		t.Fatal("a whole source page was copied, not shared")
	}
	return m.Freeze(), src
}

func TestImageWritesArePrivate(t *testing.T) {
	img, src := testImage(t)
	orig := bytes.Clone(src)
	a, b := New(), New()
	a.Map(img)
	b.Map(img)

	a.Write(0x1000, 8, 0xAAAA)
	a.Write(4*PageSize+8, 8, 0xBBBB)
	a.SetByte(5*PageSize+3, 0xCC)
	if got := b.Read(0x1000, 8); got != 0x1111 {
		t.Errorf("other memory sees %#x at 0x1000, want 0x1111", got)
	}
	if got := b.Read(4*PageSize+8, 8); got == 0xBBBB {
		t.Error("other memory sees a write to a shared page")
	}
	if !bytes.Equal(src, orig) {
		t.Error("a write reached the image's source bytes")
	}
	fresh := New()
	fresh.Map(img)
	if !Equal(b, fresh) {
		t.Error("a write changed the image")
	}
	if got := a.Read(4*PageSize+8, 8); got != 0xBBBB {
		t.Errorf("writer reads back %#x, want 0xbbbb", got)
	}
}

// TestResetMatchesFreshLoad: a memory that mapped an image, wrote
// shared and new pages, and was Reset and remapped equals New plus Map,
// and reuses its private pages instead of allocating.
func TestResetMatchesFreshLoad(t *testing.T) {
	img, _ := testImage(t)
	m := New()
	m.Map(img)
	write := func() {
		m.Write(0x1000, 8, 1)
		m.Write(4*PageSize, 8, 2)
		m.Write(0x9000_0000, 8, 3)
	}
	write()
	m.Reset()
	if m.Pages() != 0 || m.Read(0x9000_0000, 8) != 0 {
		t.Fatalf("reset memory maps %d pages", m.Pages())
	}
	m.Map(img)
	fresh := New()
	fresh.Map(img)
	if !Equal(m, fresh) || m.Pages() != fresh.Pages() {
		addr, _ := FirstDiff(m, fresh)
		t.Fatalf("reset+map differs from new+map at %#x", addr)
	}
	if testenv.RaceEnabled {
		return // allocation counts are not meaningful under -race
	}
	if allocs := testing.AllocsPerRun(10, func() {
		m.Reset()
		m.Map(img)
		write()
	}); allocs != 0 {
		t.Errorf("warm reset+map+write allocates %.1f/run, want 0", allocs)
	}
}

func TestCloneSharesImageCopiesPrivate(t *testing.T) {
	img, _ := testImage(t)
	m := New()
	m.Map(img)
	m.Write(0x2000, 8, 5) // private page
	c := m.Clone()
	if &c.PageData(4)[0] != &m.PageData(4)[0] {
		t.Error("clone copied a shared page")
	}
	if &c.PageData(2)[0] == &m.PageData(2)[0] {
		t.Error("clone aliases a private page")
	}
	m.Write(4*PageSize, 8, 9)
	m.Write(0x2000, 8, 6)
	c.Write(0x1000, 8, 7)
	if got := c.Read(4*PageSize, 8); got == 9 {
		t.Error("clone sees the original's write to a shared page")
	}
	if got := c.Read(0x2000, 8); got != 5 {
		t.Errorf("clone private page reads %d, want 5", got)
	}
	if got := m.Read(0x1000, 8); got != 0x1111 {
		t.Errorf("original sees the clone's write: %#x", got)
	}
}

func TestLoadPageOntoSharedPage(t *testing.T) {
	img, src := testImage(t)
	orig := bytes.Clone(src)
	m := New()
	m.Map(img)
	m.LoadPage(4, []byte{1, 2, 3})
	if got := m.Read(4*PageSize, 4); got != 0x030201 {
		t.Errorf("loaded page reads %#x, want 0x030201", got)
	}
	if got := m.Byte(4*PageSize + 100); got != 0 {
		t.Errorf("LoadPage left byte %#x past its data, want 0", got)
	}
	if !bytes.Equal(src, orig) {
		t.Error("LoadPage wrote through to the image")
	}
}

// TestNonZeroPagesSeesImage: snapshot enumeration covers shared pages
// and skips an all-zero one, as it does private pages.
func TestNonZeroPagesSeesImage(t *testing.T) {
	m := New()
	m.ShareBytes(2*PageSize, make([]byte, 2*PageSize))
	m.SetByte(3*PageSize+1, 1)
	img := m.Freeze()
	n := New()
	n.Map(img)
	if got := n.NonZeroPages(); len(got) != 1 || got[0] != 3 {
		t.Errorf("NonZeroPages = %v, want [3]", got)
	}
}
