// Package ptmalloc models PTMalloc2, the default glibc allocator, which
// the paper uses as its baseline (Figure 1, Table 1).
//
// The structural features that matter to the paper are all present:
//
//   - Boundary-tag chunks: every block carries an inline 16-byte header
//     and free blocks carry footers and list pointers — the *aggregated*
//     metadata layout of Figure 2, interleaved with user data.
//   - Fast bins (LIFO single-linked), small bins (FIFO double-linked),
//     an unsorted bin scanned first-fit, and a large list.
//   - Immediate coalescing with both neighbours via the boundary tags,
//     which touches adjacent chunks' headers (pollution).
//   - A per-arena spin lock taken around every non-mmap malloc and free,
//     with lazily created per-thread arenas on the glibc model.
//   - Direct mmap for large requests.
//
// All metadata lives in simulated memory and every header/list/footer
// access is a simulated load or store.
package ptmalloc

import (
	"sort"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/simsync"
)

// Miss-attribution marking (host-side, no simulated cost): arena state
// pages, inline chunk headers, fences, and the full extent of free
// chunks (fd/bk links and footers live in them) are metadata; the
// payload of a live chunk is user data. The 16-byte granule containing
// the next chunk's prev_size word stays metadata even though glibc lets
// a live chunk's last 8 usable bytes overlap it — that shared granule
// is precisely the boundary-tag interleaving the paper's Figure 2
// blames for pollution.

const (
	headerSize = 16 // prev_size + size words
	minChunk   = 32
	// prevInuse / isMmapped / isFence are the size-word flag bits.
	prevInuse = 1
	isMmapped = 2
	isFence   = 4
	flagMask  = uint64(15)

	fastbinMax  = 176  // largest chunk served from fast bins
	smallbinMax = 1008 // largest chunk with an exact small bin
	numFastbins = 10
	numBins     = 64 // 0 unsorted, 1..62 small, 63 large

	mmapThreshold     = 128 << 10
	heapPages         = 256 // pages per arena growth step
	unsortedScanLimit = 128
)

// Arena state offsets within the per-arena state page.
const (
	offLock     = 0
	offTop      = 8
	offHeapEnd  = 16
	offHaveFast = 24
	offFastbins = 32                   // 10 * 8 bytes
	offBins     = 128                  // sentinel trick needs bins here
	stateBytes  = offBins + numBins*16 // 1152
)

type segment struct {
	base, end uint64
	ar        *arena
}

type arena struct {
	state uint64 // sim address of the state page
	lock  simsync.SpinLock
	main  bool
}

// Allocator is the PTMalloc2 model.
type Allocator struct {
	stats    alloc.Stats
	arenas   []*arena
	byThread map[int]*arena
	segs     []segment // sorted by base, for free()'s arena lookup
}

// New builds the allocator. t performs the initial arena setup.
func New(t *sim.Thread) *Allocator {
	a := &Allocator{byThread: make(map[int]*arena)}
	a.newArena(t, true)
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "ptmalloc2" }

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// binSentinel returns the pseudo-chunk address of bin i such that the
// bin's fd/bk words land inside the state page (glibc's bin_at trick).
func (ar *arena) binSentinel(i int) uint64 {
	return ar.state + offBins + uint64(i)*16 - headerSize
}

func (a *Allocator) newArena(t *sim.Thread, main bool) *arena {
	state := alloc.MapMeta(t, 1, false)
	ar := &arena{state: state, lock: simsync.NewSpinLock(state + offLock), main: main}
	// Empty bins: each sentinel points at itself.
	for i := 0; i < numBins; i++ {
		b := ar.binSentinel(i)
		t.Store64(b+16, b)
		t.Store64(b+24, b)
	}
	// Initial heap segment.
	var base uint64
	if main {
		base = t.Sbrk(heapPages)
	} else {
		base = t.Mmap(heapPages)
	}
	a.stats.HeapBytes += heapPages << 12
	end := base + heapPages<<12
	t.Store64(base+8, (end-base)|prevInuse) // top chunk header
	t.MarkRegion(base, headerSize, region.Meta)
	t.Store64(state+offTop, base)
	t.Store64(state+offHeapEnd, end)
	a.arenas = append(a.arenas, ar)
	a.addSegment(base, end, ar)
	return ar
}

func (a *Allocator) addSegment(base, end uint64, ar *arena) {
	i := sort.Search(len(a.segs), func(i int) bool { return a.segs[i].base > base })
	a.segs = append(a.segs, segment{})
	copy(a.segs[i+1:], a.segs[i:])
	a.segs[i] = segment{base: base, end: end, ar: ar}
}

// arenaFor locates the arena owning addr (free() path). The lookup is a
// handful of compares in a real allocator; charge similarly.
func (a *Allocator) arenaFor(t *sim.Thread, addr uint64) *arena {
	t.Exec(4)
	i := sort.Search(len(a.segs), func(i int) bool { return a.segs[i].end > addr })
	if i < len(a.segs) && a.segs[i].base <= addr {
		return a.segs[i].ar
	}
	panic("ptmalloc: free of address outside any arena")
}

// arenaOf picks (or creates) the calling thread's arena, glibc-style:
// the first thread uses the main arena, later threads get their own.
func (a *Allocator) arenaOf(t *sim.Thread) *arena {
	if ar, ok := a.byThread[t.ID()]; ok {
		return ar
	}
	var ar *arena
	if len(a.byThread) == 0 {
		ar = a.arenas[0]
	} else {
		ar = a.newArena(t, false)
	}
	a.byThread[t.ID()] = ar
	return ar
}

// request2size converts a request to a chunk size (glibc overlap trick:
// the next chunk's prev_size word is usable while this chunk is live).
func request2size(size uint64) uint64 {
	csz := (size + 8 + 15) &^ 15
	if csz < minChunk {
		csz = minChunk
	}
	return csz
}

func fastbinIndex(csz uint64) int  { return int((csz - minChunk) / 16) }
func smallbinIndex(csz uint64) int { return 1 + int((csz-minChunk)/16) }

// --- doubly-linked bin list operations (all in simulated memory) ------

func listInsertHead(t *sim.Thread, sentinel, c uint64) {
	fd := t.Load64(sentinel + 16)
	t.Store64(c+16, fd)
	t.Store64(c+24, sentinel)
	t.Store64(sentinel+16, c)
	t.Store64(fd+24, c)
}

func listRemove(t *sim.Thread, c uint64) {
	fd := t.Load64(c + 16)
	bk := t.Load64(c + 24)
	t.Store64(bk+16, fd)
	t.Store64(fd+24, bk)
}

// binFor returns the sentinel a free chunk of size csz belongs in.
func (ar *arena) binFor(csz uint64) uint64 {
	if csz <= smallbinMax {
		return ar.binSentinel(smallbinIndex(csz))
	}
	return ar.binSentinel(numBins - 1)
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *sim.Thread, size uint64) uint64 {
	a.stats.MallocCalls++
	t.Exec(4) // entry, request2size arithmetic

	if size >= mmapThreshold {
		return a.mmapChunk(t, size)
	}
	csz := request2size(size)
	ar := a.arenaOf(t)
	ar.lock.Lock(t)
	p := a.mallocLocked(t, ar, csz)
	ar.lock.Unlock(t)
	a.stats.LiveBytes += csz - 8
	t.MarkRegion(p, headerSize, region.Meta)
	t.MarkRegion(p+headerSize, int(csz-headerSize), region.User)
	return p + headerSize
}

func (a *Allocator) mallocLocked(t *sim.Thread, ar *arena, csz uint64) uint64 {
	// Large requests consolidate the fast bins first (glibc's
	// malloc_consolidate call in _int_malloc for !in_smallbin_range) —
	// periodically demolishing the fast bins' LIFO reuse locality.
	if csz > smallbinMax && t.Load64(ar.state+offHaveFast) != 0 {
		a.consolidate(t, ar)
	}
	// 1. Fast bins: exact-size LIFO, no coalescing.
	if csz <= fastbinMax {
		fb := ar.state + offFastbins + uint64(fastbinIndex(csz))*8
		if head := t.Load64(fb); head != 0 {
			t.Store64(fb, t.Load64(head+16))
			return head
		}
	}
	// 2. Small bins: exact fit, FIFO.
	if csz <= smallbinMax {
		b := ar.binSentinel(smallbinIndex(csz))
		victim := t.Load64(b + 24) // take from tail
		if victim != b {
			listRemove(t, victim)
			a.setInuse(t, victim, csz)
			return victim
		}
	}
	for attempt := 0; ; attempt++ {
		// 3. Unsorted bin: first fit with splitting; losers get binned.
		if p := a.scanUnsorted(t, ar, csz); p != 0 {
			return p
		}
		// 4. Large list: best fit.
		if csz > smallbinMax {
			if p := a.scanLarge(t, ar, csz); p != 0 {
				return p
			}
		}
		// 4b. Any small bin above: take the next non-empty bin and split.
		if csz <= smallbinMax {
			if p := a.scanLargerSmallBins(t, ar, csz); p != 0 {
				return p
			}
			if p := a.scanLarge(t, ar, csz); p != 0 {
				return p
			}
		}
		// 5. Split the top chunk.
		if p := a.splitTop(t, ar, csz); p != 0 {
			return p
		}
		// 6. Consolidate fast bins and retry once.
		if attempt == 0 && t.Load64(ar.state+offHaveFast) != 0 {
			a.consolidate(t, ar)
			continue
		}
		// 7. Grow the heap.
		a.grow(t, ar, csz)
	}
}

// setInuse marks the chunk live by setting the next chunk's prev-inuse
// bit (a store into the neighbour's header — boundary-tag pollution).
func (a *Allocator) setInuse(t *sim.Thread, c, csz uint64) {
	next := c + csz
	t.Store64(next+8, t.Load64(next+8)|prevInuse)
}

func (a *Allocator) scanUnsorted(t *sim.Thread, ar *arena, csz uint64) uint64 {
	b := ar.binSentinel(0)
	for iter := 0; iter < unsortedScanLimit; iter++ {
		victim := t.Load64(b + 24)
		if victim == b {
			return 0
		}
		t.Exec(3)
		vsz := t.Load64(victim+8) &^ flagMask
		if vsz >= csz {
			listRemove(t, victim)
			return a.takeFit(t, ar, victim, vsz, csz)
		}
		// Too small: file it in its proper bin and keep scanning.
		listRemove(t, victim)
		listInsertHead(t, ar.binFor(vsz), victim)
	}
	return 0
}

// takeFit allocates csz from a free chunk of size vsz, splitting off the
// remainder into the unsorted bin.
func (a *Allocator) takeFit(t *sim.Thread, ar *arena, victim, vsz, csz uint64) uint64 {
	rem := vsz - csz
	flags := t.Load64(victim+8) & prevInuse
	if rem < minChunk {
		a.setInuse(t, victim, vsz)
		return victim
	}
	t.Store64(victim+8, csz|flags)
	r := victim + csz
	t.Store64(r+8, rem|prevInuse)
	t.Store64(r+rem, rem) // next chunk's prev_size word
	listInsertHead(t, ar.binSentinel(0), r)
	return victim
}

func (a *Allocator) scanLarge(t *sim.Thread, ar *arena, csz uint64) uint64 {
	b := ar.binSentinel(numBins - 1)
	best, bestSz := uint64(0), ^uint64(0)
	for c := t.Load64(b + 16); c != b; c = t.Load64(c + 16) {
		t.Exec(2)
		cs := t.Load64(c+8) &^ flagMask
		if cs >= csz && cs < bestSz {
			best, bestSz = c, cs
			if cs == csz {
				break
			}
		}
	}
	if best == 0 {
		return 0
	}
	listRemove(t, best)
	return a.takeFit(t, ar, best, bestSz, csz)
}

// scanLargerSmallBins walks upward from the requested bin looking for
// any non-empty small bin (glibc's bin-scan via the binmap; the map is
// modelled as a couple of ALU ops per bin probe).
func (a *Allocator) scanLargerSmallBins(t *sim.Thread, ar *arena, csz uint64) uint64 {
	for i := smallbinIndex(csz) + 1; i <= numBins-2; i++ {
		t.Exec(1)
		b := ar.binSentinel(i)
		victim := t.Load64(b + 24)
		if victim == b {
			continue
		}
		vsz := t.Load64(victim+8) &^ flagMask
		listRemove(t, victim)
		return a.takeFit(t, ar, victim, vsz, csz)
	}
	return 0
}

func (a *Allocator) splitTop(t *sim.Thread, ar *arena, csz uint64) uint64 {
	top := t.Load64(ar.state + offTop)
	topSz := t.Load64(top+8) &^ flagMask
	if topSz < csz+minChunk {
		return 0
	}
	flags := t.Load64(top+8) & prevInuse
	t.Store64(top+8, csz|flags)
	newTop := top + csz
	t.Store64(newTop+8, (topSz-csz)|prevInuse)
	t.MarkRegion(newTop, headerSize, region.Meta)
	t.Store64(ar.state+offTop, newTop)
	return top
}

// grow extends the arena's heap, extending top in place when the new
// region is contiguous and fencing off the old top otherwise.
func (a *Allocator) grow(t *sim.Thread, ar *arena, csz uint64) {
	pages := heapPages
	if need := int((csz + minChunk + 4095) >> 12); need > pages {
		pages = need
	}
	var base uint64
	if ar.main {
		base = t.Sbrk(pages)
	} else {
		base = t.Mmap(pages)
	}
	a.stats.HeapBytes += uint64(pages) << 12
	end := base + uint64(pages)<<12
	heapEnd := t.Load64(ar.state + offHeapEnd)
	top := t.Load64(ar.state + offTop)
	if base == heapEnd {
		// Contiguous: extend top.
		topSz := t.Load64(top+8) &^ flagMask
		flags := t.Load64(top+8) & prevInuse
		t.Store64(top+8, (topSz+uint64(pages)<<12)|flags)
		t.Store64(ar.state+offHeapEnd, end)
		// The segment containing the old top grew.
		for i := range a.segs {
			if a.segs[i].end == heapEnd && a.segs[i].ar == ar {
				a.segs[i].end = end
				break
			}
		}
		return
	}
	// Non-contiguous: fence the old top and start a new segment.
	a.abandonTop(t, ar, top)
	t.Store64(base+8, (end-base)|prevInuse)
	t.MarkRegion(base, headerSize, region.Meta)
	t.Store64(ar.state+offTop, base)
	t.Store64(ar.state+offHeapEnd, end)
	a.addSegment(base, end, ar)
}

// abandonTop converts the old top chunk into a free chunk plus a fence
// so boundary-tag scans never run off the segment.
func (a *Allocator) abandonTop(t *sim.Thread, ar *arena, top uint64) {
	topSz := t.Load64(top+8) &^ flagMask
	flags := t.Load64(top+8) & prevInuse
	// The whole abandoned tail — free chunk plus fence — is allocator
	// bookkeeping from here on.
	t.MarkRegion(top, int(topSz), region.Meta)
	if topSz < minChunk+32 {
		// Too small to be useful: the whole tail becomes fence (leaked).
		t.Store64(top+8, topSz|flags|isFence|prevInuse)
		return
	}
	freeSz := topSz - 32
	t.Store64(top+8, freeSz|flags)
	// The free chunk's footer is the fence's prev_size word, stored below.
	f := top + freeSz
	t.Store64(f, freeSz)       // fence prev_size
	t.Store64(f+8, 32|isFence) // fence marked, prev free
	listInsertHead(t, ar.binSentinel(0), top)
}

// consolidate drains every fast bin, coalescing each chunk with its
// neighbours and parking the results in the unsorted bin.
func (a *Allocator) consolidate(t *sim.Thread, ar *arena) {
	for i := 0; i < numFastbins; i++ {
		fb := ar.state + offFastbins + uint64(i)*8
		c := t.Load64(fb)
		if c == 0 {
			continue
		}
		t.Store64(fb, 0)
		for c != 0 {
			next := t.Load64(c + 16)
			a.coalesceAndBin(t, ar, c)
			c = next
		}
	}
	t.Store64(ar.state+offHaveFast, 0)
}

// coalesceAndBin merges chunk c with free neighbours and files the
// result (into top or the unsorted bin). c's size word must be current.
func (a *Allocator) coalesceAndBin(t *sim.Thread, ar *arena, c uint64) {
	szfl := t.Load64(c + 8)
	csz := szfl &^ flagMask
	// Merge backward.
	if szfl&prevInuse == 0 {
		psz := t.Load64(c)
		prev := c - psz
		listRemove(t, prev)
		csz += psz
		c = prev
		szfl = t.Load64(c + 8) // pick up prev's own prev-inuse bit
	}
	top := t.Load64(ar.state + offTop)
	next := c + csz
	if next == top {
		topSz := t.Load64(top+8) &^ flagMask
		t.Store64(c+8, (csz+topSz)|(szfl&prevInuse))
		t.Store64(ar.state+offTop, c)
		return
	}
	nszfl := t.Load64(next + 8)
	if nszfl&isFence == 0 {
		nsz := nszfl &^ flagMask
		// The next chunk is free iff the chunk after it says so.
		after := next + nsz
		if t.Load64(after+8)&prevInuse == 0 {
			listRemove(t, next)
			csz += nsz
		}
	}
	// Write the merged chunk's tags and clear the neighbour's bit.
	t.Store64(c+8, csz|(szfl&prevInuse))
	t.Store64(c+csz-8, csz)
	nn := c + csz
	t.Store64(nn, csz)
	t.Store64(nn+8, t.Load64(nn+8)&^prevInuse)
	listInsertHead(t, ar.binSentinel(0), c)
}

// mmapChunk services a large request directly from the kernel.
func (a *Allocator) mmapChunk(t *sim.Thread, size uint64) uint64 {
	pages := int((size + headerSize + 4095) >> 12)
	base := t.Mmap(pages)
	a.stats.HeapBytes += uint64(pages) << 12
	a.stats.LiveBytes += uint64(pages)<<12 - 8
	t.Store64(base+8, uint64(pages)<<12|isMmapped)
	t.MarkRegion(base, headerSize, region.Meta)
	t.MarkRegion(base+headerSize, int(uint64(pages)<<12-headerSize), region.User)
	return base + headerSize
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(t *sim.Thread, addr uint64) {
	a.stats.FreeCalls++
	t.Exec(3)
	c := addr - headerSize
	szfl := t.Load64(c + 8)
	if szfl&isMmapped != 0 {
		bytes := szfl &^ flagMask
		a.stats.HeapBytes -= bytes
		a.stats.LiveBytes -= bytes - 8
		t.Munmap(c, int(bytes>>12))
		return
	}
	csz := szfl &^ flagMask
	a.stats.LiveBytes -= csz - 8
	// A dead chunk belongs to the allocator again: its fd/bk links and
	// footer overwrite what was user payload.
	t.MarkRegion(c, int(csz), region.Meta)
	ar := a.arenaFor(t, c)
	ar.lock.Lock(t)
	if csz <= fastbinMax {
		// Fast path: LIFO push, no coalescing, no neighbour writes.
		fb := ar.state + offFastbins + uint64(fastbinIndex(csz))*8
		t.Store64(c+16, t.Load64(fb))
		t.Store64(fb, c)
		t.Store64(ar.state+offHaveFast, 1)
	} else {
		a.coalesceAndBin(t, ar, c)
	}
	ar.lock.Unlock(t)
}
