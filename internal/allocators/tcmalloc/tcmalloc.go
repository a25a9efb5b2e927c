// Package tcmalloc models Google's TCMalloc, one of the paper's three
// "state-of-the-art industry-level allocators" (Table 1) and the subject
// of its thread-scaling study (Table 2).
//
// The structural features the paper leans on are all present:
//
//   - Size classes with per-thread caches: the fast path touches only the
//     calling thread's cache lines (no locks, no atomics).
//   - Intrusive free lists: the link pointer lives in the first word of
//     each free object, so freelist traffic touches user-data lines.
//   - Central free lists per class, guarded by locks, exchanged with
//     thread caches in batches (num_objects_to_move).
//   - A span-based page heap with a radix page map; span metadata is
//     *segregated* from user pages (the paper's Figure 2 contrast with
//     Mimalloc's aggregated layout).
//   - Cross-thread frees land in the freeing thread's cache and migrate
//     through the central lists — the mechanism behind Table 2's LLC
//     miss explosion.
package tcmalloc

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/simsync"
)

// Miss-attribution marking (host-side, no simulated traffic): the radix
// pagemap, central blocks, page-heap state, span-record region, and
// thread caches are metadata pages — the *segregated* part of the
// layout. The intrusive free lists are the aggregated part: a free
// object's first word carries the link, so that granule is metadata
// until the object is handed back to the application.

// Span record field offsets after the shared alloc.Rec* header (64-byte
// records in the metadata region).
const (
	spanClass     = 32 // 0 = free span, 255 = large alloc, else class+1
	spanFreeHead  = 40 // intrusive list of returned objects
	spanFreeCount = 48
	spanCapacity  = 56
	spanRecBytes  = 64

	classFreeSpan = 0
	classLarge    = 255
)

// Thread-cache per-class slot offsets (16-byte slots).
const (
	tcHead  = 0
	tcCount = 8
	tcSlot  = 16
)

const (
	// maxFreePages is the largest page-heap free-list length with its own
	// list; longer spans go on the large list.
	maxFreePages = 128
	// growPages is the minimum page-heap growth unit (2 MiB: the page
	// heap is hugepage-backed, per hugepage-aware TCMalloc [OSDI'21]).
	growPages = 512
)

// Allocator is the TCMalloc model.
type Allocator struct {
	sc    *alloc.SizeClasses
	stats alloc.Stats

	pages alloc.PageMap // the radix page map
	recs  alloc.Records // span records

	central  uint64 // per-class central blocks (64B stride)
	ph       uint64 // page-heap state base
	phLock   simsync.SpinLock
	caches   map[int]uint64 // thread id -> thread-cache base
	maxCount map[int]int    // class -> thread-cache trim threshold
}

// Page-heap layout: lock at ph+0, large sentinel at ph+16, then
// per-length sentinels (16 bytes each) from ph+64.
func (a *Allocator) phListSentinel(pages int) uint64 {
	if pages > maxFreePages {
		return a.ph + 16
	}
	return a.ph + 64 + uint64(pages-1)*16
}

func (a *Allocator) centralBlock(class int) uint64 { return a.central + uint64(class)*64 }

// New builds the allocator; t performs the initial mmaps.
func New(t *sim.Thread) *Allocator {
	sc := alloc.NewSizeClasses()
	a := &Allocator{
		sc:       sc,
		caches:   make(map[int]uint64),
		maxCount: make(map[int]int),
	}
	a.pages = alloc.NewPageMap(t, false)
	// Central blocks.
	centralPages := int((uint64(sc.NumClasses())*64 + mem.PageSize - 1) >> mem.PageShift)
	a.central = alloc.MapMeta(t, centralPages, false)
	for c := 0; c < sc.NumClasses(); c++ {
		s := a.centralBlock(c) + 8
		t.Store64(s, s)
		t.Store64(s+8, s)
		a.maxCount[c] = 2 * sc.BatchSize(c)
	}
	// Page heap: lock + large sentinel + 128 length sentinels.
	a.ph = alloc.MapMeta(t, 1, false)
	a.phLock = simsync.NewSpinLock(a.ph)
	for i := 0; i <= maxFreePages; i++ {
		var s uint64
		if i == 0 {
			s = a.ph + 16
		} else {
			s = a.phListSentinel(i)
		}
		t.Store64(s, s)
		t.Store64(s+8, s)
	}
	a.recs = alloc.NewRecords(t, spanRecBytes, 16, false)
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "tcmalloc" }

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// --- page heap -----------------------------------------------------------

// phAlloc returns a span record of exactly npages, splitting or growing
// as needed. Caller holds the page-heap lock.
func (a *Allocator) phAlloc(t *sim.Thread, npages int) uint64 {
	for {
		// Search the exact list then longer ones.
		for ln := npages; ln <= maxFreePages; ln++ {
			t.Exec(1)
			s := a.phListSentinel(ln)
			rec := t.Load64(s)
			if rec == s {
				continue
			}
			alloc.ListRemove(t, rec)
			return a.phCarve(t, rec, npages)
		}
		// Large list: first fit.
		s := a.phListSentinel(maxFreePages + 1)
		for rec := t.Load64(s); rec != s; rec = t.Load64(rec + alloc.RecNext) {
			t.Exec(2)
			if int(t.Load64(rec+alloc.RecPages)) >= npages {
				alloc.ListRemove(t, rec)
				return a.phCarve(t, rec, npages)
			}
		}
		// Grow from the kernel.
		g := growPages
		if npages > g {
			g = (npages + growPages - 1) &^ (growPages - 1)
		}
		base := t.MmapHuge(g)
		a.stats.HeapBytes += uint64(g) << mem.PageShift
		rec := a.recs.Alloc(t)
		t.Store64(rec+alloc.RecBase, base)
		t.Store64(rec+alloc.RecPages, uint64(g))
		t.Store64(rec+spanClass, classFreeSpan)
		a.phInsertFree(t, rec) // registers the boundary pages

	}
}

// phCarve trims rec to npages, returning the remainder to the free lists.
func (a *Allocator) phCarve(t *sim.Thread, rec uint64, npages int) uint64 {
	have := int(t.Load64(rec + alloc.RecPages))
	// Mark the span allocated *before* filing any remainder: the
	// remainder's insertion runs the boundary-merge check against its
	// previous neighbour — which is this very span — and must not
	// swallow it back.
	t.Store64(rec+spanClass, classLarge)
	if have > npages {
		remRec := a.recs.Alloc(t)
		start := t.Load64(rec + alloc.RecBase)
		t.Store64(rec+alloc.RecPages, uint64(npages))
		t.Store64(remRec+alloc.RecBase, start+uint64(npages)<<mem.PageShift)
		t.Store64(remRec+alloc.RecPages, uint64(have-npages))
		t.Store64(remRec+spanClass, classFreeSpan)
		a.phInsertFree(t, remRec) // registers the remainder's boundaries
	}
	// Every page of the allocated span must resolve to its record for
	// Free's pagemap lookup.
	a.pages.Register(t, rec)
	return rec
}

// phInsertFree files a free span, coalescing with free neighbours.
func (a *Allocator) phInsertFree(t *sim.Thread, rec uint64) {
	start := t.Load64(rec + alloc.RecBase)
	pages := t.Load64(rec + alloc.RecPages)
	// Merge with the span ending at start. Absorbed records have their
	// class invalidated before recycling so stale page-map entries that
	// still point at them can never satisfy this check again.
	if start > mem.MmapBase {
		if prev := a.pages.Get(t, start-1); prev != 0 &&
			t.Load64(prev+spanClass) == classFreeSpan &&
			t.Load64(prev+alloc.RecBase)+t.Load64(prev+alloc.RecPages)<<mem.PageShift == start {
			alloc.ListRemove(t, prev)
			start = t.Load64(prev + alloc.RecBase)
			pages += t.Load64(prev + alloc.RecPages)
			t.Store64(prev+spanClass, classLarge) // invalidate
			a.recs.Release(prev)
		}
	}
	// Merge with the span starting just after.
	if next := a.pages.Get(t, start+pages<<mem.PageShift); next != 0 &&
		t.Load64(next+spanClass) == classFreeSpan &&
		t.Load64(next+alloc.RecBase) == start+pages<<mem.PageShift {
		alloc.ListRemove(t, next)
		pages += t.Load64(next + alloc.RecPages)
		t.Store64(next+spanClass, classLarge) // invalidate
		a.recs.Release(next)
	}
	t.Store64(rec+alloc.RecBase, start)
	t.Store64(rec+alloc.RecPages, pages)
	t.Store64(rec+spanClass, classFreeSpan)
	// Only the boundary pages need to stay registered for merging.
	a.pages.Set(t, start, rec)
	a.pages.Set(t, start+(pages-1)<<mem.PageShift, rec)
	ln := int(pages)
	if ln > maxFreePages {
		ln = maxFreePages + 1
	}
	alloc.ListInsert(t, a.phListSentinel(ln), rec)
}

// --- central free lists ---------------------------------------------------

// centralFetch moves up to want objects of class into the caller's
// intrusive list, returning the head and count.
func (a *Allocator) centralFetch(t *sim.Thread, class, want int) (uint64, int) {
	cb := a.centralBlock(class)
	lock := simsync.NewSpinLock(cb)
	lock.Lock(t)
	sentinel := cb + 8
	var head uint64
	got := 0
	for got < want {
		rec := t.Load64(sentinel)
		if rec == sentinel {
			// No spans with free objects: carve a fresh span.
			a.phLock.Lock(t)
			rec = a.phAlloc(t, a.sc.SpanPages(class))
			a.phLock.Unlock(t)
			a.carveSpan(t, rec, class)
			alloc.ListInsert(t, sentinel, rec)
		}
		// Pop from the span's intrusive free list.
		objHead := t.Load64(rec + spanFreeHead)
		cnt := t.Load64(rec + spanFreeCount)
		for got < want && objHead != 0 {
			next := t.Load64(objHead) // intrusive pointer in the object
			t.Store64(objHead, head)
			head = objHead
			objHead = next
			got++
			cnt--
		}
		t.Store64(rec+spanFreeHead, objHead)
		t.Store64(rec+spanFreeCount, cnt)
		if objHead == 0 {
			alloc.ListRemove(t, rec) // exhausted span leaves the nonempty list
		}
	}
	lock.Unlock(t)
	return head, got
}

// carveSpan links every object of a fresh span into its free list.
func (a *Allocator) carveSpan(t *sim.Thread, rec uint64, class int) {
	start := t.Load64(rec + alloc.RecBase)
	pages := int(t.Load64(rec + alloc.RecPages))
	size := a.sc.Size(class)
	n := a.sc.ObjectsPerSpan(class, pages)
	var head uint64
	for i := n - 1; i >= 0; i-- {
		obj := start + uint64(i)*size
		t.Store64(obj, head)
		t.MarkRegion(obj, 16, region.Meta) // free-list link granule
		head = obj
	}
	t.Store64(rec+spanClass, uint64(class)+1)
	t.Store64(rec+spanFreeHead, head)
	t.Store64(rec+spanFreeCount, uint64(n))
	t.Store64(rec+spanCapacity, uint64(n))
}

// centralRelease returns an intrusive list of objects to their spans.
func (a *Allocator) centralRelease(t *sim.Thread, class int, head uint64, n int) {
	cb := a.centralBlock(class)
	lock := simsync.NewSpinLock(cb)
	lock.Lock(t)
	sentinel := cb + 8
	for i := 0; i < n && head != 0; i++ {
		obj := head
		head = t.Load64(obj)
		rec := a.pages.Get(t, obj)
		oldHead := t.Load64(rec + spanFreeHead)
		t.Store64(obj, oldHead)
		t.Store64(rec+spanFreeHead, obj)
		cnt := t.Load64(rec+spanFreeCount) + 1
		t.Store64(rec+spanFreeCount, cnt)
		if oldHead == 0 {
			alloc.ListInsert(t, sentinel, rec) // back on the nonempty list
		}
		if cnt == t.Load64(rec+spanCapacity) {
			// Fully free span returns to the page heap.
			alloc.ListRemove(t, rec)
			a.phLock.Lock(t)
			a.phInsertFree(t, rec)
			a.phLock.Unlock(t)
		}
	}
	lock.Unlock(t)
}

// --- thread cache -----------------------------------------------------------

func (a *Allocator) threadCache(t *sim.Thread) uint64 {
	if tc, ok := a.caches[t.ID()]; ok {
		return tc
	}
	tc := alloc.MapMeta(t, 1, false)
	a.caches[t.ID()] = tc
	return tc
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *sim.Thread, size uint64) uint64 {
	a.stats.MallocCalls++
	t.Exec(4) // size-class lookup
	class, ok := a.sc.ClassFor(size)
	if !ok {
		return a.largeAlloc(t, size)
	}
	a.stats.LiveBytes += a.sc.Size(class)
	tc := a.threadCache(t)
	slot := tc + uint64(class)*tcSlot
	head := t.Load64(slot + tcHead)
	if head != 0 {
		// Fast path: pop the thread-local intrusive list.
		t.Store64(slot+tcHead, t.Load64(head))
		t.Store64(slot+tcCount, t.Load64(slot+tcCount)-1)
		t.MarkRegion(head, int(a.sc.Size(class)), region.User)
		return head
	}
	// Refill from the central list.
	batch := a.sc.BatchSize(class)
	objs, got := a.centralFetch(t, class, batch)
	next := t.Load64(objs)
	t.Store64(slot+tcHead, next)
	t.Store64(slot+tcCount, uint64(got-1))
	t.MarkRegion(objs, int(a.sc.Size(class)), region.User)
	return objs
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(t *sim.Thread, addr uint64) {
	a.stats.FreeCalls++
	t.Exec(3)
	rec := a.pages.Get(t, addr)
	classWord := t.Load64(rec + spanClass)
	if classWord == classLarge {
		a.largeFree(t, rec)
		return
	}
	class := int(classWord - 1)
	a.stats.LiveBytes -= a.sc.Size(class)
	tc := a.threadCache(t)
	slot := tc + uint64(class)*tcSlot
	head := t.Load64(slot + tcHead)
	t.Store64(addr, head)
	t.MarkRegion(addr, 16, region.Meta) // link word overwrites user data
	t.Store64(slot+tcHead, addr)
	count := t.Load64(slot+tcCount) + 1
	t.Store64(slot+tcCount, count)
	if int(count) > a.maxCount[class] {
		a.trim(t, slot, class)
	}
}

// trim returns a batch from an overfull thread-cache list to the central
// free list.
func (a *Allocator) trim(t *sim.Thread, slot uint64, class int) {
	batch := a.sc.BatchSize(class)
	head := t.Load64(slot + tcHead)
	// Detach `batch` objects.
	tail := head
	for i := 1; i < batch; i++ {
		tail = t.Load64(tail)
	}
	rest := t.Load64(tail)
	t.Store64(tail, 0)
	t.Store64(slot+tcHead, rest)
	t.Store64(slot+tcCount, t.Load64(slot+tcCount)-uint64(batch))
	a.centralRelease(t, class, head, batch)
}

// --- large objects ------------------------------------------------------

func (a *Allocator) largeAlloc(t *sim.Thread, size uint64) uint64 {
	pages := int((size + mem.PageSize - 1) >> mem.PageShift)
	a.phLock.Lock(t)
	rec := a.phAlloc(t, pages)
	a.phLock.Unlock(t)
	t.Store64(rec+spanClass, classLarge)
	a.stats.LiveBytes += uint64(pages) << mem.PageShift
	start := t.Load64(rec + alloc.RecBase)
	t.MarkRegion(start, pages<<mem.PageShift, region.User)
	return start
}

func (a *Allocator) largeFree(t *sim.Thread, rec uint64) {
	a.stats.LiveBytes -= t.Load64(rec+alloc.RecPages) << mem.PageShift
	a.phLock.Lock(t)
	a.phInsertFree(t, rec)
	a.phLock.Unlock(t)
}
