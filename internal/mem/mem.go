// Package mem implements the sparse physical memory used by both the
// functional (oracle) simulator and the out-of-order performance
// simulator.
//
// Memory is byte-addressable and little-endian. Storage is allocated
// lazily in 4 KiB pages so simulated programs can use widely separated
// text, data and stack segments without cost. Reads of untouched memory
// return zero, which keeps wrong-path (mis-speculated) loads harmless.
//
// A program's initial contents are an Image: read-only pages built once
// and mapped into every memory that loads the program. A memory copies
// an Image page only when a store first touches it.
//
// In the paper's fault model, main memory and caches are ECC-protected and
// therefore sit outside the sphere of replication; this package models
// that assumption by being fault-free. The fault injector only corrupts
// speculative pipeline state.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// PageShift and PageSize define the lazy-allocation granularity.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
)

type page [PageSize]byte

// slot is one page-table entry. A shared page belongs to an Image: it
// is read-only, and the first write through this memory copies it into
// a private page. Keeping the mark in the entry lets the store path
// decide with the one lookup it already makes.
type slot struct {
	p      *page
	shared bool
}

// Memory is a sparse, little-endian, byte-addressable memory. The zero
// value is not ready to use; call New.
//
// A memory maps two kinds of page: private pages it owns and writes in
// place, and shared pages of an Image (see Map) that it copies on the
// first write. Reset keeps the private pages on a free list, so a
// pooled machine's load plus reset copies and zeroes only the pages it
// wrote; the image costs one pointer per page.
type Memory struct {
	pages map[uint64]slot
	free  []*page // private pages released by Reset, reused on demand
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]slot)}
}

// Clone returns a copy of the memory that shares its Image pages and
// copies its private ones. The oracle simulator clones the post-load
// image so the two committed states the paper's Section 5.1.1 sanity
// check maintains never alias: a write on either side copies a shared
// page first, so neither can see the other's stores.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64]slot, len(m.pages))}
	for idx, s := range m.pages {
		if !s.shared {
			cp := *s.p
			s.p = &cp
		}
		c.pages[idx] = s
	}
	return c
}

// Pages returns the number of mapped pages, shared and private (for
// tests and stats).
func (m *Memory) Pages() int { return len(m.pages) }

// Reset empties the memory in place. Private pages go to the free list
// for reuse; shared pages are only unmapped. Absent pages read as zero,
// so a reset memory behaves exactly like a fresh New, without
// re-paying the page allocations when a pooled machine reloads a
// program and writes a similar footprint.
func (m *Memory) Reset() {
	for _, s := range m.pages {
		if !s.shared {
			m.free = append(m.free, s.p)
		}
	}
	clear(m.pages)
}

// page returns the page holding addr for reading, or nil.
func (m *Memory) page(addr uint64) *page {
	return m.pages[addr>>PageShift].p
}

// writable returns a private page holding addr, allocating or copying
// one on the first write to the page.
func (m *Memory) writable(addr uint64) *page {
	idx := addr >> PageShift
	s := m.pages[idx]
	if s.p != nil && !s.shared {
		return s.p
	}
	return m.own(idx, s.p)
}

// own installs a private page at idx holding a copy of src, or zeroes
// when src is nil, taking it from the free list when one is there.
func (m *Memory) own(idx uint64, src *page) *page {
	var p *page
	if n := len(m.free); n > 0 {
		p = m.free[n-1]
		m.free = m.free[:n-1]
		if src == nil {
			*p = page{}
		}
	} else {
		p = new(page)
	}
	if src != nil {
		*p = *src
	}
	m.pages[idx] = slot{p: p}
	return p
}

// Byte returns the byte at addr.
func (m *Memory) Byte(addr uint64) byte {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.writable(addr)[addr&pageMask] = b
}

// Read loads size bytes (1, 2, 4 or 8) at addr, little-endian,
// zero-extended into a uint64. Accesses may straddle page boundaries.
// The non-straddling path (the overwhelmingly common case: every
// instruction fetch and every aligned data access) is a single
// little-endian load instead of a byte loop.
func (m *Memory) Read(addr uint64, size int) uint64 {
	off := addr & pageMask
	if off+uint64(size) <= PageSize {
		p := m.page(addr)
		if p == nil {
			checkSize(size)
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return uint64(p[off])
		}
		checkSize(size)
	}
	checkSize(size)
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.Byte(addr+uint64(i)))
	}
	return v
}

// Write stores the low size bytes (1, 2, 4 or 8) of val at addr,
// little-endian. Accesses may straddle page boundaries. Like Read, the
// non-straddling path is a single little-endian store.
func (m *Memory) Write(addr uint64, size int, val uint64) {
	off := addr & pageMask
	if off+uint64(size) <= PageSize {
		p := m.writable(addr)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
			return
		case 1:
			p[off] = byte(val)
			return
		}
		checkSize(size)
	}
	checkSize(size)
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), byte(val))
		val >>= 8
	}
}

// Bytes copies len(dst) bytes starting at addr into dst, one page-sized
// chunk at a time (the page table is consulted once per page, not once
// per byte).
func (m *Memory) Bytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := PageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if p := m.page(addr); p != nil {
			copy(dst[:n], p[off:])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// SetBytes copies src into memory starting at addr, page chunk by page
// chunk.
func (m *Memory) SetBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := PageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		copy(m.writable(addr)[off:], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// ShareBytes is SetBytes for a source that is never written again and
// outlives every memory it reaches (through Clone or an Image). Each
// whole page of src that starts on a page boundary and lands on a page
// m does not map yet is mapped in place as a shared page, with no
// copy; the rest is copied as SetBytes would.
func (m *Memory) ShareBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		n := PageSize - int(addr&pageMask)
		if n > len(src) {
			n = len(src)
		}
		idx := addr >> PageShift
		if _, mapped := m.pages[idx]; n == PageSize && !mapped {
			m.pages[idx] = slot{p: (*page)(src[:PageSize]), shared: true}
		} else {
			m.SetBytes(addr, src[:n])
		}
		src = src[n:]
		addr += uint64(n)
	}
}

// Image is a read-only set of pages, built once by Freeze and mapped
// into any number of memories, on any number of goroutines, by Map.
type Image struct {
	idx   []uint64 // page indices, aligned with pages
	pages []*page
}

// Freeze returns an Image of m's current contents. Every page of m
// becomes shared, so m itself copies a page before writing it and the
// image never changes.
func (m *Memory) Freeze() *Image {
	img := &Image{idx: make([]uint64, 0, len(m.pages)), pages: make([]*page, 0, len(m.pages))}
	for idx, s := range m.pages {
		img.idx = append(img.idx, idx)
		img.pages = append(img.pages, s.p)
		m.pages[idx] = slot{p: s.p, shared: true}
	}
	return img
}

// Map installs img's pages in m as shared pages, replacing whatever m
// mapped at those indices. It copies no bytes: the first write to a
// page copies it into a private one.
func (m *Memory) Map(img *Image) {
	for i, idx := range img.idx {
		m.pages[idx] = slot{p: img.pages[i], shared: true}
	}
}

// NonZeroPages returns the indices of pages holding at least one
// non-zero byte, in ascending order. Zeroed pages are skipped: they
// are semantically identical to absent pages, so a snapshot that only
// records non-zero pages restores a memory indistinguishable (by Equal
// and by every access) from the donor.
func (m *Memory) NonZeroPages() []uint64 {
	var zero page
	idxs := make([]uint64, 0, len(m.pages))
	for idx, s := range m.pages {
		if *s.p != zero {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	return idxs
}

// PageData returns the raw contents of page idx, or nil if the page
// is not mapped. The returned slice aliases live storage, which may be
// a shared Image page: callers must never write it, and must copy or
// finish with it before the memory is written again.
func (m *Memory) PageData(idx uint64) []byte {
	p := m.pages[idx].p
	if p == nil {
		return nil
	}
	return p[:]
}

// LoadPage installs data (at most PageSize bytes, zero-padded) as the
// contents of page idx in a private page. Restore paths use it to
// rebuild a memory image page-by-page.
func (m *Memory) LoadPage(idx uint64, data []byte) {
	if len(data) > PageSize {
		panic(fmt.Sprintf("mem: LoadPage with %d bytes", len(data)))
	}
	s := m.pages[idx]
	p := s.p
	if p == nil || s.shared {
		p = m.own(idx, nil)
	} else {
		*p = page{}
	}
	copy(p[:], data)
}

// Equal reports whether the two memories have identical contents. Pages
// absent from one side compare equal to all-zero pages on the other.
func Equal(a, b *Memory) bool {
	return contains(a, b) && contains(b, a)
}

func contains(a, b *Memory) bool {
	var zero page
	for idx, sa := range a.pages {
		pb := b.pages[idx].p
		if pb == nil {
			pb = &zero
		}
		if sa.p != pb && *sa.p != *pb {
			return false
		}
	}
	return true
}

// FirstDiff returns the lowest address at which the two memories differ.
// ok is false when they are identical. Each candidate page is compared
// once with its pointers resolved up front: a page both sides share
// from one Image is skipped outright, a whole-array equality check
// skips identical pages, and the byte walk runs on the arrays directly.
func FirstDiff(a, b *Memory) (addr uint64, ok bool) {
	found := false
	var best uint64
	var zero page
	check := func(idx uint64, pa, pb *page) {
		if pa == pb || *pa == *pb {
			return
		}
		base := idx << PageShift
		for i := 0; i < PageSize; i++ {
			if pa[i] != pb[i] {
				if d := base + uint64(i); !found || d < best {
					best, found = d, true
				}
				return
			}
		}
	}
	for idx, sa := range a.pages {
		pb := b.pages[idx].p
		if pb == nil {
			pb = &zero
		}
		check(idx, sa.p, pb)
	}
	for idx, sb := range b.pages {
		if _, dup := a.pages[idx]; dup {
			continue // already compared above
		}
		check(idx, &zero, sb.p)
	}
	return best, found
}

func checkSize(size int) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("mem: invalid access size %d", size))
	}
}
