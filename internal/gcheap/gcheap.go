// Package gcheap is a managed heap with a tracing, non-moving
// mark-sweep collector whose collection work can run either on the
// mutator's core or on the dedicated allocator core — the paper's
// §3.3.2 extension ("Research opportunities for using NextGen-Malloc to
// process garbage collection"), in the lineage of the Maas et al. GC
// accelerator it cites [19].
//
// The design reuses NextGen-Malloc's segregated-metadata idea: object
// allocation state (free-index stacks) and GC state (mark bitmaps,
// worklists) live in the dedicated metadata region, so a collection
// performed on another core leaves the mutator's metadata working set
// untouched; only the unavoidable reads of object reference slots touch
// user pages.
//
// Object model: an object is numRefs reference slots (8 bytes each)
// followed by raw payload; the mutator declares numRefs at allocation
// and the runtime records it in slab metadata (not in the object — user
// pages stay metadata-free). References are written through WriteRef so
// the heap stays well-formed; there are no write barriers because
// collection is stop-the-world.
package gcheap

import (
	"fmt"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/sim"
)

// Slab metadata record offsets after the shared alloc.Rec* header
// (metadata region; no list links are used). Each slab holds
// objects of one shape (slot count); the free stack and mark bitmap sit
// behind the fixed fields.
const (
	slObjBytes = 32
	slNumRefs  = 40
	slTop      = 48 // free-stack depth
	slCapacity = 56
	slStack    = 64                 // 256 * 2-byte indices
	slMarks    = slStack + 2*256    // 4 words of mark bits
	slAlloc    = slMarks + 8*4      // 4 words of allocated bits
	slRecBytes = slAlloc + 8*4 + 32 // rounded to a line multiple below
)

// recStride is slRecBytes rounded up to a cache-line multiple.
const recStride = (slRecBytes + 63) &^ 63

const maxObjsPerSlab = 256

// Stats summarizes collector activity.
type Stats struct {
	Collections   uint64
	ObjectsMarked uint64
	ObjectsSwept  uint64
	PauseCycles   uint64 // mutator cycles spent stopped, total
	AllocCalls    uint64
}

// Heap is a single-mutator managed heap.
type Heap struct {
	// shapes: one slab chain per (objBytes, numRefs) shape, keyed
	// host-side; slabs and stacks live in simulated metadata memory.
	shapes map[shape]*shapeState

	pages alloc.PageMap // object page -> slab record
	recs  alloc.Records

	roots    uint64 // sim array of root slots
	numRoots int

	slabs []uint64 // every slab record (host index for sweep walks)

	// worklist is the mark stack (metadata region).
	worklist uint64
	wlCap    int

	stats Stats

	// threshold: collect when live+fresh allocations exceed this many
	// objects since the last collection.
	allocsSinceGC int
	TriggerEvery  int
}

type shape struct {
	objBytes uint64
	numRefs  int
}

type shapeState struct {
	cur uint64   // current slab record
	all []uint64 // every slab of this shape (rotation after sweeps)
}

// New builds a heap; t performs the initial mmaps. numRoots is the size
// of the root set array.
func New(t *sim.Thread, numRoots int) *Heap {
	h := &Heap{
		shapes:       make(map[shape]*shapeState),
		numRoots:     numRoots,
		wlCap:        1 << 16,
		TriggerEvery: 8192,
	}
	h.pages = alloc.NewPageMap(t, true)
	h.roots = t.Mmap((numRoots*8 + 4095) >> 12)
	h.worklist = t.MmapMeta((h.wlCap*8 + 4095) >> 12)
	h.recs = alloc.NewRecords(t, recStride, 64, true)
	return h
}

// Stats returns collector statistics.
func (h *Heap) Stats() Stats { return h.stats }

// --- allocation ----------------------------------------------------------

// RootAddr returns the simulated address of root slot i (the mutator
// reads and writes roots directly; they are ordinary program data).
func (h *Heap) RootAddr(i int) uint64 {
	if i < 0 || i >= h.numRoots {
		panic(fmt.Sprintf("gcheap: root %d out of range", i))
	}
	return h.roots + uint64(i)*8
}

// objectSize returns the gross object size for a shape.
func objectSize(numRefs int, payload uint64) uint64 {
	sz := uint64(numRefs)*8 + payload
	if sz < 16 {
		sz = 16
	}
	return (sz + 15) &^ 15
}

// newSlab carves a slab for a shape.
func (h *Heap) newSlab(t *sim.Thread, sh shape) uint64 {
	objBytes := sh.objBytes
	pages := int((objBytes*maxObjsPerSlab + mem.PageSize - 1) >> mem.PageShift)
	if pages > 16 {
		pages = 16
	}
	n := int(uint64(pages) << mem.PageShift / objBytes)
	if n > maxObjsPerSlab {
		n = maxObjsPerSlab
	}
	base := t.MmapHuge(pages)
	rec := h.recs.Alloc(t)
	t.Store64(rec+alloc.RecBase, base)
	t.Store64(rec+alloc.RecPages, uint64(pages))
	t.Store64(rec+slObjBytes, objBytes)
	t.Store64(rec+slNumRefs, uint64(sh.numRefs))
	t.Store64(rec+slCapacity, uint64(n))
	alloc.CarveIndexStack(t, rec+slStack, n)
	t.Store64(rec+slTop, uint64(n))
	for wd := uint64(0); wd < 4; wd++ {
		t.Store64(rec+slMarks+wd*8, 0)
		t.Store64(rec+slAlloc+wd*8, 0)
	}
	h.pages.SetSpan(t, base, uint64(pages), rec)
	h.slabs = append(h.slabs, rec)
	h.shapes[sh].all = append(h.shapes[sh].all, rec)
	return rec
}

// Alloc allocates an object with numRefs reference slots and payload
// bytes of raw data. Reference slots start nil. Collection policy is
// the caller's: poll NeedsCollect and run CollectInline or
// Offloader.Request at safepoints.
func (h *Heap) Alloc(t *sim.Thread, numRefs int, payload uint64) uint64 {
	h.stats.AllocCalls++
	h.allocsSinceGC++
	t.Exec(4)
	sh := shape{objBytes: objectSize(numRefs, payload), numRefs: numRefs}
	st := h.shapes[sh]
	if st == nil {
		st = &shapeState{}
		h.shapes[sh] = st
	}
	for {
		if st.cur != 0 {
			top := t.Load64(st.cur + slTop)
			if top > 0 {
				t.Store64(st.cur+slTop, top-1)
				idx := t.Load16(st.cur + slStack + (top-1)*2)
				// Allocated bit: the sweep walks this, not the object.
				w := idx / 64
				bits := t.Load64(st.cur + slAlloc + w*8)
				t.Store64(st.cur+slAlloc+w*8, bits|uint64(1)<<(idx%64))
				base := t.Load64(st.cur + alloc.RecBase)
				obj := base + idx*sh.objBytes
				// Clear the reference slots (the runtime's contract).
				for r := 0; r < numRefs; r++ {
					t.Store64(obj+uint64(r)*8, 0)
				}
				return obj
			}
		}
		// Rotate to another slab of this shape that a sweep refilled.
		st.cur = 0
		for _, r := range st.all {
			t.Exec(1)
			if t.Load64(r+slTop) > 0 {
				st.cur = r
				break
			}
		}
		if st.cur == 0 {
			st.cur = h.newSlab(t, sh)
		}
	}
}

// WriteRef stores a reference into an object's slot.
func (h *Heap) WriteRef(t *sim.Thread, obj uint64, slot int, target uint64) {
	t.Store64(obj+uint64(slot)*8, target)
}

// ReadRef loads a reference slot.
func (h *Heap) ReadRef(t *sim.Thread, obj uint64, slot int) uint64 {
	return t.Load64(obj + uint64(slot)*8)
}

// NeedsCollect reports whether the allocation budget is exhausted.
func (h *Heap) NeedsCollect() bool { return h.allocsSinceGC >= h.TriggerEvery }

// --- collection ------------------------------------------------------------

// markObject sets the object's mark bit; reports whether it was new.
func (h *Heap) markObject(t *sim.Thread, obj uint64) (rec uint64, idx uint64, fresh bool) {
	rec = h.pages.Get(t, obj)
	if rec == 0 {
		panic(fmt.Sprintf("gcheap: reference %#x outside the heap", obj))
	}
	base := t.Load64(rec + alloc.RecBase)
	t.Exec(3)
	idx = (obj - base) / t.Load64(rec+slObjBytes)
	w := idx / 64
	bits := t.Load64(rec + slMarks + w*8)
	bit := uint64(1) << (idx % 64)
	if bits&bit != 0 {
		return rec, idx, false
	}
	t.Store64(rec+slMarks+w*8, bits|bit)
	return rec, idx, true
}

// Collect runs a full stop-the-world mark-sweep on thread t — the
// mutator itself in inline mode, or the dedicated core's thread when
// offloaded (see Offloader). Returns objects swept.
func (h *Heap) Collect(t *sim.Thread) uint64 {
	h.stats.Collections++
	h.allocsSinceGC = 0
	// Mark phase: roots, then transitive closure via the worklist.
	wl := 0
	push := func(obj uint64) {
		if _, _, fresh := h.markObject(t, obj); fresh {
			if wl >= h.wlCap {
				panic("gcheap: mark worklist overflow")
			}
			t.Store64(h.worklist+uint64(wl)*8, obj)
			wl++
			h.stats.ObjectsMarked++
		}
	}
	for i := 0; i < h.numRoots; i++ {
		if obj := t.Load64(h.RootAddr(i)); obj != 0 {
			push(obj)
		}
	}
	for wl > 0 {
		wl--
		obj := t.Load64(h.worklist + uint64(wl)*8)
		rec := h.pages.Get(t, obj)
		numRefs := int(t.Load64(rec + slNumRefs))
		for r := 0; r < numRefs; r++ {
			if ref := t.Load64(obj + uint64(r)*8); ref != 0 {
				push(ref)
			}
		}
	}
	// Sweep phase: every allocated-but-unmarked object returns to its
	// slab's free stack; mark and allocated bitmaps reset.
	var swept uint64
	for _, rec := range h.slabs {
		capacity := t.Load64(rec + slCapacity)
		top := t.Load64(rec + slTop)
		for w := uint64(0); w*64 < capacity; w++ {
			allocBits := t.Load64(rec + slAlloc + w*8)
			markBits := t.Load64(rec + slMarks + w*8)
			dead := allocBits &^ markBits
			for dead != 0 {
				t.Exec(2)
				bit := dead & -dead
				idx := w * 64
				for m := bit; m > 1; m >>= 1 {
					idx++
				}
				t.Store16(rec+slStack+top*2, idx)
				top++
				swept++
				dead &^= bit
			}
			t.Store64(rec+slAlloc+w*8, markBits) // survivors stay allocated
			t.Store64(rec+slMarks+w*8, 0)
		}
		t.Store64(rec+slTop, top)
	}
	h.stats.ObjectsSwept += swept
	return swept
}

// LiveObjects reports the allocated-object count (test hook; walks the
// allocated bitmaps).
func (h *Heap) LiveObjects(t *sim.Thread) uint64 {
	var live uint64
	for _, rec := range h.slabs {
		capacity := t.Load64(rec + slCapacity)
		for w := uint64(0); w*64 < capacity; w++ {
			bits := t.Load64(rec + slAlloc + w*8)
			for ; bits != 0; bits &= bits - 1 {
				live++
			}
		}
	}
	return live
}
