// Package mimalloc models Microsoft's Mimalloc, the best performer in
// the paper's Figure 1 and the baseline NextGen-Malloc is compared
// against in Table 3.
//
// Structure captured by the model (free-list sharding, MSR-TR-2019-18):
//
//   - Per-thread heaps; no locks anywhere on the fast path.
//   - Per-page sharded lists: `free` (allocation pops here), `local_free`
//     (owner frees push here), `thread_free` (cross-thread frees push
//     here with an atomic CAS).
//   - *Aggregated* metadata layout (paper Figure 2): the link in a free
//     block is stored in the block's own first word, so allocation and
//     free touch the user-data cache line — great locality when the app
//     uses the block immediately, but metadata and data share lines.
//   - The generic path swaps local_free into free and drains thread_free,
//     amortizing bookkeeping over many allocations.
//   - Full pages move to a full queue and return when frees arrive.
package mimalloc

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/simsync"
)

// Miss-attribution marking (host-side, free of simulated traffic): the
// pagemap, page-record arena, segment state, and per-thread heap tables
// are metadata pages. The aggregated layout means a free block's first
// word holds the intrusive list link, so that 16-byte granule flips to
// metadata on free and back to user data when the block is handed out —
// the line sharing Figure 2 attributes to mimalloc.

// Page metadata record offsets after the shared alloc.Rec* header
// (128-byte records).
const (
	// pgClass is 255 for a large allocation, alloc.SpanFree for a free span.
	pgClass      = alloc.RecClass
	pgFree       = 40 // intrusive list: allocation pops here
	pgLocalFree  = 48 // intrusive list: owner frees push here
	pgThreadFree = 56 // intrusive MPSC list: cross-thread frees CAS here
	pgTFCount    = 64 // atomic count of thread_free entries
	pgUsed       = 72 // live blocks on this page
	pgCapacity   = 80 // reserved blocks (page bytes / block size)
	pgOwner      = 88 // owning thread id + 1 (0 = none)
	pgInFull     = 96
	pgCarved     = 104 // blocks linked into the free list so far (lazy extend)
	pgRecBytes   = 128

	classLarge = 255
)

// Per-class heap slot: cur(0), avail sentinel(8,16), full sentinel(24,32).
const heapSlotBytes = 64

// Allocator is the Mimalloc model.
type Allocator struct {
	sc    *alloc.SizeClasses
	stats alloc.Stats

	pages alloc.PageMap
	recs  alloc.Records

	// The segment allocator: a span heap in 2 MiB segments
	// (hugepage-aligned, as mimalloc reserves them) behind one lock.
	segs    alloc.Spans
	segLock simsync.SpinLock

	heaps map[int]uint64 // thread id -> heap base
}

// New builds the allocator; t performs the initial mmaps.
func New(t *sim.Thread) *Allocator {
	a := &Allocator{
		sc:    alloc.NewSizeClasses(),
		heaps: make(map[int]uint64),
	}
	a.pages = alloc.NewPageMap(t, false)
	segState := alloc.MapMeta(t, 1, false)
	a.segLock = simsync.NewSpinLock(segState)
	a.segs = alloc.NewSpans(t, segState+16, &a.recs, &a.stats.HeapBytes)
	a.recs = alloc.NewRecords(t, pgRecBytes, 16, false)
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "mimalloc" }

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// --- segment (page span) allocator ----------------------------------------

// segSpan returns a registered page record with npages pages.
func (a *Allocator) segSpan(t *sim.Thread, npages int) uint64 {
	a.segLock.Lock(t)
	defer a.segLock.Unlock(t)
	rec := a.segs.Alloc(t, npages)
	a.pages.Register(t, rec)
	return rec
}

func (a *Allocator) segFree(t *sim.Thread, rec uint64) {
	a.segLock.Lock(t)
	t.Store64(rec+pgClass, alloc.SpanFree)
	t.Store64(rec+pgOwner, 0)
	a.segs.Link(t, rec)
	a.segLock.Unlock(t)
}

// --- heap ------------------------------------------------------------------

func (a *Allocator) heap(t *sim.Thread) uint64 {
	if h, ok := a.heaps[t.ID()]; ok {
		return h
	}
	pages := int((uint64(a.sc.NumClasses())*heapSlotBytes + mem.PageSize - 1) >> mem.PageShift)
	h := alloc.MapMeta(t, pages, false)
	for c := 0; c < a.sc.NumClasses(); c++ {
		slot := h + uint64(c)*heapSlotBytes
		t.Store64(slot+8, slot+8) // avail sentinel
		t.Store64(slot+16, slot+8)
		t.Store64(slot+24, slot+24) // full sentinel
		t.Store64(slot+32, slot+24)
	}
	a.heaps[t.ID()] = h
	return h
}

func heapSlot(h uint64, class int) uint64 { return h + uint64(class)*heapSlotBytes }

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *sim.Thread, size uint64) uint64 {
	a.stats.MallocCalls++
	t.Exec(4)
	class, ok := a.sc.ClassFor(size)
	if !ok {
		return a.largeAlloc(t, size)
	}
	a.stats.LiveBytes += a.sc.Size(class)
	h := a.heap(t)
	slot := heapSlot(h, class)
	rec := t.Load64(slot) // current page
	if rec != 0 {
		// Fast path: pop the page's free list (intrusive: the next link
		// lives in the block itself — the aggregated layout).
		block := t.Load64(rec + pgFree)
		if block != 0 {
			t.Store64(rec+pgFree, t.Load64(block))
			t.Store64(rec+pgUsed, t.Load64(rec+pgUsed)+1)
			t.MarkRegion(block, int(a.sc.Size(class)), region.User)
			return block
		}
	}
	return a.mallocGeneric(t, slot, class)
}

// collect swaps local_free into free and drains thread_free (mimalloc's
// _mi_page_free_collect). Returns the new free head.
func (a *Allocator) collect(t *sim.Thread, rec uint64) uint64 {
	free := t.Load64(rec + pgFree)
	lf := t.Load64(rec + pgLocalFree)
	if lf != 0 && free == 0 {
		t.Store64(rec+pgFree, lf)
		t.Store64(rec+pgLocalFree, 0)
		free = lf
	}
	if t.AtomicLoad64(rec+pgThreadFree) != 0 {
		tf := t.Swap64(rec+pgThreadFree, 0)
		n := t.Swap64(rec+pgTFCount, 0)
		t.Store64(rec+pgUsed, t.Load64(rec+pgUsed)-n)
		if free == 0 {
			t.Store64(rec+pgFree, tf)
			free = tf
		} else {
			// Append: walk the (short) drained chain to its tail.
			tail := tf
			for next := t.Load64(tail); next != 0; next = t.Load64(tail) {
				tail = next
			}
			t.Store64(tail, t.Load64(rec+pgFree))
			t.Store64(rec+pgFree, tf)
			free = tf
		}
	}
	return free
}

// mallocGeneric is the slow path: rotate pages, drain shards, or carve a
// fresh page.
func (a *Allocator) mallocGeneric(t *sim.Thread, slot uint64, class int) uint64 {
	cur := t.Load64(slot)
	if cur != 0 {
		if free := a.collect(t, cur); free != 0 {
			return a.popBlock(t, cur, free, class)
		}
		if a.extendPage(t, cur, class) {
			return a.popBlock(t, cur, t.Load64(cur+pgFree), class)
		}
		// Current page is genuinely full: park it on the full queue.
		t.Store64(cur+pgInFull, 1)
		alloc.ListInsert(t, slot+24, cur)
		t.Store64(slot, 0)
	}
	// Try the avail queue.
	availSent := slot + 8
	for rec := t.Load64(availSent); rec != availSent; {
		next := t.Load64(rec + alloc.RecNext)
		if free := a.collect(t, rec); free != 0 {
			alloc.ListRemove(t, rec)
			t.Store64(slot, rec)
			return a.popBlock(t, rec, free, class)
		}
		if a.extendPage(t, rec, class) {
			alloc.ListRemove(t, rec)
			t.Store64(slot, rec)
			return a.popBlock(t, rec, t.Load64(rec+pgFree), class)
		}
		alloc.ListRemove(t, rec)
		t.Store64(rec+pgInFull, 1)
		alloc.ListInsert(t, slot+24, rec)
		rec = next
	}
	// Probe the head of the full queue for pages revived by remote frees.
	fullSent := slot + 24
	probe := t.Load64(fullSent)
	for i := 0; i < 2 && probe != fullSent; i++ {
		next := t.Load64(probe + alloc.RecNext)
		if free := a.collect(t, probe); free != 0 {
			alloc.ListRemove(t, probe)
			t.Store64(probe+pgInFull, 0)
			t.Store64(slot, probe)
			return a.popBlock(t, probe, free, class)
		}
		probe = next
	}
	// Fresh page from the segment allocator.
	rec := a.freshPage(t, class)
	t.Store64(rec+pgOwner, uint64(t.ID())+1)
	t.Store64(slot, rec)
	return a.popBlock(t, rec, t.Load64(rec+pgFree), class)
}

func (a *Allocator) popBlock(t *sim.Thread, rec, block uint64, class int) uint64 {
	t.Store64(rec+pgFree, t.Load64(block))
	t.Store64(rec+pgUsed, t.Load64(rec+pgUsed)+1)
	t.MarkRegion(block, int(a.sc.Size(class)), region.User)
	return block
}

// miPagePages is the OS-page count of one mimalloc page: 64 KiB, as in
// the real allocator's small pages — thousands of blocks per page, so a
// page revived by remote/owner frees has accumulated many blocks before
// the owner rotates back to it.
const miPagePages = 16

// freshPage carves a new page for class, building its intrusive free
// list through the blocks themselves.
func (a *Allocator) freshPage(t *sim.Thread, class int) uint64 {
	pages := miPagePages
	if large := a.sc.SpanPages(class); large > pages {
		pages = large
	}
	rec := a.segSpan(t, pages)
	n := a.sc.ObjectsPerSpan(class, pages)
	t.Store64(rec+pgClass, uint64(class))
	t.Store64(rec+pgFree, 0)
	t.Store64(rec+pgLocalFree, 0)
	t.Store64(rec+pgThreadFree, 0)
	t.Store64(rec+pgTFCount, 0)
	t.Store64(rec+pgUsed, 0)
	t.Store64(rec+pgCapacity, uint64(n))
	t.Store64(rec+pgInFull, 0)
	t.Store64(rec+pgCarved, 0)
	a.extendPage(t, rec, class)
	return rec
}

// extendChunk bounds how many fresh blocks one extension links (real
// mimalloc's MI_MAX_EXTEND-style lazy carving).
const extendChunk = 64

// extendPage links up to extendChunk more reserved blocks into the free
// list; it reports whether anything was added.
func (a *Allocator) extendPage(t *sim.Thread, rec uint64, class int) bool {
	carved := t.Load64(rec + pgCarved)
	capacity := t.Load64(rec + pgCapacity)
	if carved >= capacity {
		return false
	}
	n := capacity - carved
	if n > extendChunk {
		n = extendChunk
	}
	size := a.sc.Size(class)
	base := t.Load64(rec + alloc.RecBase)
	head := t.Load64(rec + pgFree)
	for i := int64(carved+n) - 1; i >= int64(carved); i-- {
		blk := base + uint64(i)*size
		t.Store64(blk, head)
		t.MarkRegion(blk, 16, region.Meta) // free-list link granule
		head = blk
	}
	t.Store64(rec+pgFree, head)
	t.Store64(rec+pgCarved, carved+n)
	return true
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(t *sim.Thread, addr uint64) {
	a.stats.FreeCalls++
	t.Exec(3)
	rec := a.pages.Get(t, addr)
	classWord := t.Load64(rec + pgClass)
	if classWord == classLarge {
		a.largeFree(t, rec)
		return
	}
	class := int(classWord)
	a.stats.LiveBytes -= a.sc.Size(class)
	owner := t.Load64(rec + pgOwner)
	t.MarkRegion(addr, 16, region.Meta) // link word overwrites user data
	if owner == uint64(t.ID())+1 {
		// Local free: push onto local_free (intrusive store into the
		// block — its line is typically still warm in this core).
		t.Store64(addr, t.Load64(rec+pgLocalFree))
		t.Store64(rec+pgLocalFree, addr)
		used := t.Load64(rec+pgUsed) - 1
		t.Store64(rec+pgUsed, used)
		if t.Load64(rec+pgInFull) != 0 {
			// Revive a full page immediately (owner-side unfull).
			h := a.heap(t)
			slot := heapSlot(h, class)
			alloc.ListRemove(t, rec)
			t.Store64(rec+pgInFull, 0)
			alloc.ListInsert(t, slot+8, rec)
		} else if used == 0 {
			a.maybeRetire(t, rec, class)
		}
		return
	}
	// Cross-thread free: atomic push onto thread_free.
	for {
		tf := t.AtomicLoad64(rec + pgThreadFree)
		t.Store64(addr, tf)
		if t.CAS64(rec+pgThreadFree, tf, addr) {
			break
		}
	}
	t.FetchAdd64(rec+pgTFCount, 1)
}

// maybeRetire releases a completely free page back to the segment unless
// it is the thread's current page for the class (mimalloc retains that
// one as an optimization).
func (a *Allocator) maybeRetire(t *sim.Thread, rec uint64, class int) {
	h := a.heap(t)
	slot := heapSlot(h, class)
	if t.Load64(slot) == rec {
		return
	}
	// The page sits on the avail queue; pull it out and release it.
	alloc.ListRemove(t, rec)
	t.Store64(rec+pgFree, 0)
	t.Store64(rec+pgLocalFree, 0)
	a.segFree(t, rec)
}

// --- large objects -----------------------------------------------------------

func (a *Allocator) largeAlloc(t *sim.Thread, size uint64) uint64 {
	pages := int((size + mem.PageSize - 1) >> mem.PageShift)
	rec := a.segSpan(t, pages)
	t.Store64(rec+pgClass, classLarge)
	a.stats.LiveBytes += uint64(pages) << mem.PageShift
	base := t.Load64(rec + alloc.RecBase)
	t.MarkRegion(base, pages<<mem.PageShift, region.User)
	return base
}

func (a *Allocator) largeFree(t *sim.Thread, rec uint64) {
	a.stats.LiveBytes -= t.Load64(rec+alloc.RecPages) << mem.PageShift
	a.segFree(t, rec)
}
