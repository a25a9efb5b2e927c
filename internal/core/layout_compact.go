package core

import (
	"fmt"
	"math/bits"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
)

// Compact record and group header. A slab is groups of up to
// compactGroupUnits units; the record holds one bitmask word per group,
// bit set = unit free. Each group opens with an in-band 64-byte header
// line — an offset byte per unit (compactIdxTag|index, so a stale zeroed
// line never validates) plus the group's ordinal — read only to validate
// frees; carve marks it region.Meta, so its misses bill to metadata.
const (
	slCursor          = 56                               // lowest possibly-nonzero mask word
	slMasks           = 64                               // 16 bitmask words, one per group
	compactGroupUnits = 32                               // units per bitmask word
	compactMaxGroups  = maxSlabUnits / compactGroupUnits // capacity cap / group size
	slCompactRecBytes = slMasks + compactMaxGroups*8     // 192 B record vs the 1088 B index-stack record

	compactHdrBytes = 64   // in-band group header: 32 offset bytes + ordinal word
	compactHdrIdx   = 32   // group ordinal word inside the header line
	compactIdxTag   = 0xa0 // high bits of every offset byte
)

// compactStride is the byte span of one full group: the in-band header
// line followed by 32 units.
func compactStride(size uint64) uint64 { return compactHdrBytes + compactGroupUnits*size }

// compactUnit decomposes a block's offset rel from its slab base into
// group g and unit i; ok is false when rel falls in a group header or
// inside a unit. Host arithmetic only: the callers charge its cost.
func compactUnit(rel, size uint64) (g, i uint64, ok bool) {
	stride := compactStride(size)
	off := rel % stride
	if off < compactHdrBytes || (off-compactHdrBytes)%size != 0 {
		return 0, 0, false
	}
	return rel / stride, (off - compactHdrBytes) / size, true
}

// compact is the mallocng bitmask-group encoding.
type compact struct{}

func (compact) recordBytes() int { return slCompactRecBytes }

func (compact) stateBytes(n int) int { return 8 * ((n + compactGroupUnits - 1) / compactGroupUnits) }

// geometry makes room for the headers: the largest classes fill their
// seed span exactly, so the span grows until one unit fits behind a
// header. Capacity is full groups plus a partial group behind its own.
func (compact) geometry(sc *alloc.SizeClasses, class int) (pages, capacity int) {
	size := sc.Size(class)
	pages = max(sc.SpanPages(class), int((compactHdrBytes+size+mem.PageSize-1)>>mem.PageShift))
	span := uint64(pages) << mem.PageShift
	stride := compactStride(size)
	capacity = int(span/stride) * compactGroupUnits
	if rem := span % stride; rem > compactHdrBytes {
		capacity += int((rem - compactHdrBytes) / size)
	}
	return pages, min(capacity, maxSlabUnits)
}

// carve sets each group's mask word and writes its header line.
func (compact) carve(t *sim.Thread, rec, size uint64, n int) {
	base := t.Load64(rec + alloc.RecBase)
	stride := compactStride(size)
	for g := 0; g*compactGroupUnits < n; g++ {
		units := min(n-g*compactGroupUnits, compactGroupUnits)
		// Out-of-band allocation state: low `units` bits set = free.
		t.Store64(rec+slMasks+uint64(g)*8, uint64(1)<<units-1)
		// In-band group header: offset bytes packed eight per word,
		// then the group ordinal. The bytes live in a user page but
		// belong to the allocator, so the line is attributed Meta.
		hdr := base + uint64(g)*stride
		for i := 0; i < units; i += 8 {
			var w uint64
			for j := 0; j < 8 && i+j < units; j++ {
				w |= uint64(compactIdxTag|(i+j)) << (8 * j)
			}
			t.Store64(hdr+uint64(i), w)
		}
		t.Store64(hdr+compactHdrIdx, uint64(g))
		t.MarkRegion(hdr, compactHdrBytes, region.Meta)
	}
	t.Store64(rec+slCursor, 0) // records are recycled; reset the scan hint
}

// pop is find-first-set over the mask words from the cursor (the lowest
// possibly-nonzero group); a nonzero free count guarantees a hit.
func (compact) pop(t *sim.Thread, rec, _, size uint64) uint64 {
	g := t.Load64(rec + slCursor)
	start := g
	w := t.Load64(rec + slMasks + g*8)
	for w == 0 {
		t.Exec(1)
		g++
		w = t.Load64(rec + slMasks + g*8)
	}
	t.Exec(2) // tzcnt + single-bit clear
	i := uint64(bits.TrailingZeros64(w))
	t.Store64(rec+slMasks+g*8, w&(w-1))
	if g != start {
		t.Store64(rec+slCursor, g)
	}
	return t.Load64(rec+alloc.RecBase) + g*compactStride(size) + compactHdrBytes + i*size
}

// push sets the unit's mask bit; a bit already set is a double free.
func (compact) push(t *sim.Thread, rec, _, size, addr uint64) {
	t.Exec(4) // group/unit decompose
	base := t.Load64(rec + alloc.RecBase)
	g, i, ok := compactUnit(addr-base, size)
	if !ok {
		panic(fmt.Sprintf("core: compact free of unaligned address %#x (size %d)", addr, size))
	}
	mslot := rec + slMasks + g*8
	w := t.Load64(mslot)
	if w&(uint64(1)<<i) != 0 {
		panic(fmt.Sprintf("core: compact double free of %#x", addr))
	}
	t.Store64(mslot, w|uint64(1)<<i)
	if g < t.Load64(rec+slCursor) {
		t.Store64(rec+slCursor, g)
	}
}

// valid checks the unit's in-band offset byte and group ordinal, then
// rejects a free whose mask bit is already set (per-unit double-free
// detection, stronger than the seed layouts' slab-level check).
func (compact) valid(t *sim.Thread, rec, base, size, addr uint64) bool {
	g, i, ok := compactUnit(addr-base, size)
	if !ok || g*compactGroupUnits+i >= t.Load64(rec+slCapacity) {
		return false
	}
	hdr := base + g*compactStride(size)
	if t.Load8(hdr+i) != compactIdxTag|i || t.Load64(hdr+compactHdrIdx) != g {
		return false
	}
	return t.Load64(rec+slMasks+g*8)&(uint64(1)<<i) == 0 // set: unit already free
}
