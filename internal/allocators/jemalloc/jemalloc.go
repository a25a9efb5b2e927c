// Package jemalloc models Jemalloc (FreeBSD/Facebook), the second of
// the paper's industry allocators (Table 1).
//
// Distinguishing structure captured by the model:
//
//   - Multiple arenas with threads assigned round-robin, so unrelated
//     threads rarely contend on the same locks.
//   - Slab runs with *bitmap* region bookkeeping: freeing a region sets
//     a bit in the run's metadata record instead of writing a link
//     pointer into the user block (metadata segregated from data, unlike
//     TCMalloc's intrusive lists).
//   - Per-thread tcaches holding region pointers in small arrays,
//     filled/flushed in batches under the owning bin's lock.
//   - A radix page map (jemalloc's rtree) from page to run record.
package jemalloc

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/simsync"
)

// Miss-attribution marking (host-side, no simulated traffic): jemalloc's
// layout is fully segregated — run bitmaps, bin state, the rtree, and
// tcaches all live on dedicated metadata pages, and user blocks never
// carry intrusive links. Marking therefore touches only structure pages;
// heap spans keep the default user-data class for their whole life.

// Run record field offsets after the shared alloc.Rec* header
// (128-byte records; the bitmap tail supports up to 512 regions per
// run — one page of 8-byte regions).
const (
	runClass  = alloc.RecClass // 255 = large allocation, alloc.SpanFree = free span
	runNFree  = 40
	runTotal  = 48
	runArena  = 56
	runBitmap = 64 // 8 words = 512 bits
	runBytes  = 128

	classLarge = 255
)

// Per-class tcache slot: count word then capacity pointer slots.
const (
	tcacheCap      = 16
	tcacheSlotSize = 8 * (1 + tcacheCap)
)

// bin layout inside an arena's state region (64-byte stride):
// lock(0), runcur(8), nonfull sentinel next/prev (16,24).
const binStride = 64

type arena struct {
	id    int
	state uint64 // bins region
	// The arena's pages: a first-fit span heap in 2 MiB chunks
	// (THP-backed, as jemalloc aligns them), its sentinel and lock at
	// the state region's tail.
	spans    alloc.Spans
	pageLock simsync.SpinLock
}

// Allocator is the Jemalloc model.
type Allocator struct {
	sc     *alloc.SizeClasses
	stats  alloc.Stats
	narena int
	arenas []*arena

	pages     alloc.PageMap    // the rtree
	rtreeLock simsync.SpinLock // guards leaf creation in the rtree
	recs      alloc.Records

	tcaches  map[int]uint64 // thread id -> tcache base
	byThread map[int]*arena
}

// New builds the allocator with narenas arenas (0 selects the default 4).
func New(t *sim.Thread, narenas int) *Allocator {
	if narenas <= 0 {
		narenas = 4
	}
	sc := alloc.NewSizeClasses()
	a := &Allocator{
		sc:       sc,
		narena:   narenas,
		tcaches:  make(map[int]uint64),
		byThread: make(map[int]*arena),
	}
	a.pages = alloc.NewPageMap(t, false)
	a.rtreeLock = simsync.NewSpinLock(alloc.MapMeta(t, 1, false))
	a.recs = alloc.NewRecords(t, runBytes, 16, false)
	for i := 0; i < narenas; i++ {
		binBytes := uint64(sc.NumClasses())*binStride + 128
		statePages := int((binBytes + mem.PageSize - 1) >> mem.PageShift)
		state := alloc.MapMeta(t, statePages, false)
		ar := &arena{id: i, state: state}
		for c := 0; c < sc.NumClasses(); c++ {
			s := a.binSentinel(ar, c)
			t.Store64(s, s)
			t.Store64(s+8, s)
		}
		tail := state + uint64(sc.NumClasses())*binStride
		ar.spans = alloc.NewSpans(t, tail, &a.recs, &a.stats.HeapBytes)
		ar.spans.Stamp(runArena, uint64(ar.id))
		ar.pageLock = simsync.NewSpinLock(tail + 16)
		a.arenas = append(a.arenas, ar)
	}
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "jemalloc" }

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

func (a *Allocator) binBase(ar *arena, class int) uint64 {
	return ar.state + uint64(class)*binStride
}

// binSentinel returns the nonfull-run list sentinel (next at +0).
func (a *Allocator) binSentinel(ar *arena, class int) uint64 {
	return a.binBase(ar, class) + 16
}

// --- arena pages -------------------------------------------------------------

// runSpan returns a run record with npages pages from ar, registered in
// the rtree.
func (a *Allocator) runSpan(t *sim.Thread, ar *arena, npages int) uint64 {
	ar.pageLock.Lock(t)
	rec := ar.spans.Alloc(t, npages)
	base := t.Load64(rec + alloc.RecBase)
	pages := t.Load64(rec + alloc.RecPages)
	// Writers from different arenas share the rtree; leaf creation must
	// not race (jemalloc guards its rtree the same way).
	a.rtreeLock.Lock(t)
	a.pages.SetSpan(t, base, pages, rec)
	a.rtreeLock.Unlock(t)
	ar.pageLock.Unlock(t)
	return rec
}

// freeSpan returns a run's pages to ar.
func (a *Allocator) freeSpan(t *sim.Thread, ar *arena, rec uint64) {
	ar.pageLock.Lock(t)
	ar.spans.Free(t, rec)
	ar.pageLock.Unlock(t)
}

// --- runs ------------------------------------------------------------------

// newRun carves a fresh slab run for class. Caller holds the bin lock.
func (a *Allocator) newRun(t *sim.Thread, ar *arena, class int) uint64 {
	pages := a.sc.SpanPages(class)
	rec := a.runSpan(t, ar, pages)
	total := a.sc.ObjectsPerSpan(class, pages)
	if total > 512 {
		total = 512
	}
	t.Store64(rec+runClass, uint64(class))
	t.Store64(rec+runNFree, uint64(total))
	t.Store64(rec+runTotal, uint64(total))
	t.Store64(rec+runArena, uint64(ar.id))
	// All-free bitmap.
	for w := 0; w < 8; w++ {
		var bits uint64
		lo := w * 64
		switch {
		case total >= lo+64:
			bits = ^uint64(0)
		case total > lo:
			bits = (uint64(1) << uint(total-lo)) - 1
		}
		t.Store64(rec+runBitmap+uint64(w)*8, bits)
	}
	return rec
}

// runPop claims one region from a run's bitmap; returns its address.
func (a *Allocator) runPop(t *sim.Thread, rec uint64, class int) uint64 {
	for w := uint64(0); w < 8; w++ {
		bits := t.Load64(rec + runBitmap + w*8)
		if bits == 0 {
			continue
		}
		t.Exec(2) // bsf + mask arithmetic
		bit := bits & -bits
		idx := w * 64
		for m := bit; m > 1; m >>= 1 {
			idx++
		}
		t.Store64(rec+runBitmap+w*8, bits&^bit)
		t.Store64(rec+runNFree, t.Load64(rec+runNFree)-1)
		return t.Load64(rec+alloc.RecBase) + idx*a.sc.Size(class)
	}
	panic("jemalloc: runPop on a full run")
}

// runPush returns a region to its run's bitmap; reports the run's new
// free count and total.
func (a *Allocator) runPush(t *sim.Thread, rec uint64, class int, addr uint64) (nfree, total uint64) {
	t.Exec(3) // region index arithmetic (magic-multiply division)
	idx := (addr - t.Load64(rec+alloc.RecBase)) / a.sc.Size(class)
	w := idx / 64
	bits := t.Load64(rec + runBitmap + w*8)
	t.Store64(rec+runBitmap+w*8, bits|uint64(1)<<(idx%64))
	nfree = t.Load64(rec+runNFree) + 1
	t.Store64(rec+runNFree, nfree)
	return nfree, t.Load64(rec + runTotal)
}

// --- tcache ------------------------------------------------------------------

func (a *Allocator) tcache(t *sim.Thread) uint64 {
	if tc, ok := a.tcaches[t.ID()]; ok {
		return tc
	}
	pages := int((uint64(a.sc.NumClasses())*tcacheSlotSize + mem.PageSize - 1) >> mem.PageShift)
	tc := alloc.MapMeta(t, pages, false)
	a.tcaches[t.ID()] = tc
	return tc
}

func (a *Allocator) arenaOf(t *sim.Thread) *arena {
	if ar, ok := a.byThread[t.ID()]; ok {
		return ar
	}
	ar := a.arenas[len(a.byThread)%a.narena]
	a.byThread[t.ID()] = ar
	return ar
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *sim.Thread, size uint64) uint64 {
	a.stats.MallocCalls++
	t.Exec(4)
	class, ok := a.sc.ClassFor(size)
	if !ok {
		return a.largeAlloc(t, size)
	}
	a.stats.LiveBytes += a.sc.Size(class)
	tc := a.tcache(t)
	slot := tc + uint64(class)*tcacheSlotSize
	count := t.Load64(slot)
	if count > 0 {
		ptr := t.Load64(slot + 8 + (count-1)*8)
		t.Store64(slot, count-1)
		return ptr
	}
	// Fill from the arena bin.
	a.fill(t, a.arenaOf(t), class, slot)
	count = t.Load64(slot)
	ptr := t.Load64(slot + 8 + (count-1)*8)
	t.Store64(slot, count-1)
	return ptr
}

// fill grabs up to half the tcache capacity from the bin.
func (a *Allocator) fill(t *sim.Thread, ar *arena, class int, slot uint64) {
	want := tcacheCap / 2
	bin := a.binBase(ar, class)
	lock := simsync.NewSpinLock(bin)
	lock.Lock(t)
	got := uint64(0)
	for int(got) < want {
		rec := t.Load64(bin + 8) // runcur
		if rec == 0 || t.Load64(rec+runNFree) == 0 {
			// Promote a nonfull run or carve a new one.
			s := a.binSentinel(ar, class)
			rec = t.Load64(s)
			if rec != s {
				alloc.ListRemove(t, rec)
			} else {
				rec = a.newRun(t, ar, class)
			}
			t.Store64(bin+8, rec)
		}
		for int(got) < want && t.Load64(rec+runNFree) > 0 {
			ptr := a.runPop(t, rec, class)
			t.Store64(slot+8+got*8, ptr)
			got++
		}
	}
	t.Store64(slot, got)
	lock.Unlock(t)
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(t *sim.Thread, addr uint64) {
	a.stats.FreeCalls++
	t.Exec(3)
	rec := a.pages.Get(t, addr)
	classWord := t.Load64(rec + runClass)
	if classWord == classLarge {
		a.largeFree(t, rec)
		return
	}
	class := int(classWord)
	a.stats.LiveBytes -= a.sc.Size(class)
	tc := a.tcache(t)
	slot := tc + uint64(class)*tcacheSlotSize
	count := t.Load64(slot)
	if count == tcacheCap {
		a.flush(t, class, slot, tcacheCap/2)
		count = t.Load64(slot)
	}
	t.Store64(slot+8+count*8, addr)
	t.Store64(slot, count+1)
}

// flush returns n cached regions to their runs (possibly in remote
// arenas — the cross-thread contention path).
func (a *Allocator) flush(t *sim.Thread, class int, slot uint64, n int) {
	count := t.Load64(slot)
	for i := 0; i < n; i++ {
		addr := t.Load64(slot + 8 + (count-uint64(i+1))*8)
		rec := a.pages.Get(t, addr)
		ar := a.arenas[t.Load64(rec+runArena)]
		bin := a.binBase(ar, class)
		lock := simsync.NewSpinLock(bin)
		lock.Lock(t)
		nfree, total := a.runPush(t, rec, class, addr)
		// Invariant: a run with 0 < nfree < total that is not runcur sits
		// on the bin's nonfull list; full runs sit nowhere.
		if t.Load64(bin+8) != rec {
			switch {
			case nfree == total:
				if nfree > 1 {
					alloc.ListRemove(t, rec) // was on the nonfull list
				}
				a.freeSpan(t, ar, rec)
			case nfree == 1:
				// Was full and unlisted; now nonfull.
				alloc.ListInsert(t, a.binSentinel(ar, class), rec)
			}
		}
		lock.Unlock(t)
	}
	t.Store64(slot, count-uint64(n))
}

// --- large objects -----------------------------------------------------------

func (a *Allocator) largeAlloc(t *sim.Thread, size uint64) uint64 {
	pages := int((size + mem.PageSize - 1) >> mem.PageShift)
	ar := a.arenaOf(t)
	rec := a.runSpan(t, ar, pages)
	t.Store64(rec+runClass, classLarge)
	a.stats.LiveBytes += uint64(pages) << mem.PageShift
	return t.Load64(rec + alloc.RecBase)
}

func (a *Allocator) largeFree(t *sim.Thread, rec uint64) {
	a.stats.LiveBytes -= t.Load64(rec+alloc.RecPages) << mem.PageShift
	ar := a.arenas[t.Load64(rec+runArena)]
	a.freeSpan(t, ar, rec)
}
