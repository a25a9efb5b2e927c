package alloc

import (
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
)

// The metadata kit: the simulated structures every allocator model walks
// to reach its metadata — the radix page map, the record arena, the
// record header with its intrusive list, and the 16-bit index stack.
// Where the pages behind them come from is the paper's §3.1 choice, made
// once per structure by its segregated argument: true puts them in the
// dedicated metadata region (NextGen, the managed heap), false maps them
// among the user pages and classifies them as metadata (the classic
// allocators). Every method issues its simulated operations in a fixed
// order, so two models that walk the same structure pay the same cost.

// MapMeta maps npages metadata pages: in the dedicated metadata region
// when segregated, else as ordinary mmap pages marked region.Meta for
// miss attribution.
func MapMeta(t *sim.Thread, npages int, segregated bool) uint64 {
	if segregated {
		return t.MmapMeta(npages)
	}
	base := t.Mmap(npages)
	t.MarkRegion(base, npages<<mem.PageShift, region.Meta)
	return base
}

// Record header: every model's span, run, page and slab records begin
// with these words. Next/prev are the intrusive list links ListInsert
// and ListRemove walk; base/pages are the span Register maps. The word
// after the header is the span's class: a model's size class, or
// SpanFree while the span sits on a Spans free list.
const (
	RecNext  = 0
	RecPrev  = 8
	RecBase  = 16 // first address of the span
	RecPages = 24 // span length in pages
	RecClass = 32

	SpanFree = 254
)

// ListInsert links rec in after sentinel (a circular list whose empty
// sentinel points at itself).
func ListInsert(t *sim.Thread, sentinel, rec uint64) {
	next := t.Load64(sentinel)
	t.Store64(rec+RecNext, next)
	t.Store64(rec+RecPrev, sentinel)
	t.Store64(sentinel, rec)
	t.Store64(next+RecPrev, rec)
}

// ListRemove unlinks rec from its list.
func ListRemove(t *sim.Thread, rec uint64) {
	next := t.Load64(rec + RecNext)
	prev := t.Load64(rec + RecPrev)
	t.Store64(prev+RecNext, next)
	t.Store64(next+RecPrev, prev)
}

// Page-map geometry: a root of 8-byte leaf pointers, each leaf one page
// of 8-byte record pointers.
const (
	pageMapRootPages = 16
	pageMapRootSlots = pageMapRootPages << mem.PageShift / 8
	pageMapLeafSlots = mem.PageSize / 8
	// PageMapReach is how many bytes above mem.MmapBase a page map
	// covers: 8192 root slots of 512 pages each, 2^34 bytes.
	PageMapReach = pageMapRootSlots * pageMapLeafSlots << mem.PageShift
)

// PageMap is the two-level radix map from a heap page above
// mem.MmapBase to the record that owns it (TCMalloc's pagemap,
// jemalloc's rtree; mimalloc's segment-pointer trick costs the same two
// dependent loads). Leaves are mapped on first use.
type PageMap struct {
	root       uint64
	segregated bool
}

// NewPageMap maps the root.
func NewPageMap(t *sim.Thread, segregated bool) PageMap {
	return PageMap{root: MapMeta(t, pageMapRootPages, segregated), segregated: segregated}
}

// Get returns the record for the page holding vaddr, 0 if none was set:
// two dependent loads, or one when the leaf is absent.
func (m *PageMap) Get(t *sim.Thread, vaddr uint64) uint64 {
	rel := (vaddr - mem.MmapBase) >> mem.PageShift
	leaf := t.Load64(m.root + rel/pageMapLeafSlots*8)
	if leaf == 0 {
		return 0
	}
	return t.Load64(leaf + rel%pageMapLeafSlots*8)
}

// Set points the page holding vaddr at rec, mapping its leaf if absent.
func (m *PageMap) Set(t *sim.Thread, vaddr, rec uint64) {
	rel := (vaddr - mem.MmapBase) >> mem.PageShift
	slot := m.root + rel/pageMapLeafSlots*8
	leaf := t.Load64(slot)
	if leaf == 0 {
		leaf = MapMeta(t, 1, m.segregated)
		t.Store64(slot, leaf)
	}
	t.Store64(leaf+rel%pageMapLeafSlots*8, rec)
}

// SetSpan points each of the pages from base at rec.
func (m *PageMap) SetSpan(t *sim.Thread, base, pages, rec uint64) {
	for i := uint64(0); i < pages; i++ {
		m.Set(t, base+i<<mem.PageShift, rec)
	}
}

// Register points every page of rec's span at rec, reading the span
// from its header.
func (m *PageMap) Register(t *sim.Thread, rec uint64) {
	base := t.Load64(rec + RecBase)
	pages := t.Load64(rec + RecPages)
	m.SetSpan(t, base, pages, rec)
}

// PageMapCovers reports, host-side, whether addr has a page-map slot; a
// caller range-checking an untrusted address charges its own compares.
func PageMapCovers(addr uint64) bool {
	return addr >= mem.MmapBase && addr-mem.MmapBase < PageMapReach
}

// Records is a bump arena of fixed-stride metadata records, grown a
// chunk of pages at a time. Released records are reused last-in first-out
// before the arena bumps; the reuse list is host-side bookkeeping.
type Records struct {
	next, limit uint64
	stride      uint64
	growPages   int
	segregated  bool
	free        []uint64
}

// NewRecords maps the arena's first chunk.
func NewRecords(t *sim.Thread, stride uint64, growPages int, segregated bool) Records {
	r := Records{stride: stride, growPages: growPages, segregated: segregated}
	r.grow(t)
	return r
}

func (r *Records) grow(t *sim.Thread) {
	r.next = MapMeta(t, r.growPages, r.segregated)
	r.limit = r.next + uint64(r.growPages)<<mem.PageShift
}

// Alloc returns a record: the last released one, else the next stride,
// mapping a fresh chunk when the current one is full.
func (r *Records) Alloc(t *sim.Thread) uint64 {
	if n := len(r.free); n > 0 {
		rec := r.free[n-1]
		r.free = r.free[:n-1]
		return rec
	}
	if r.next+r.stride > r.limit {
		r.grow(t)
	}
	rec := r.next
	r.next += r.stride
	return rec
}

// Release hands rec back for reuse.
func (r *Records) Release(rec uint64) { r.free = append(r.free, rec) }

// spanGrowPages is one 2 MiB hugepage of heap pages.
const spanGrowPages = 512

// Spans is a first-fit page-span heap: a list of free span records
// behind a sentinel, searched from the most recently freed. A fit is
// split, its remainder linked back as a fresh free record; when nothing
// fits the heap maps a hugepage-backed chunk of 512 pages, or of the
// request rounded up to 512. Freed spans are not coalesced. Callers
// register the spans they get and serialize the calls as their model
// does.
type Spans struct {
	sent      uint64
	recs      *Records
	heapBytes *uint64 // the model's heap-byte count, raised per chunk
	// Every record the heap creates carries stamp at stampOff (0 = no
	// stamp): jemalloc's owning arena.
	stampOff, stamp uint64
}

// NewSpans makes an empty heap whose list sentinel is the two words at
// sentinel, taking its free records from recs.
func NewSpans(t *sim.Thread, sentinel uint64, recs *Records, heapBytes *uint64) Spans {
	t.Store64(sentinel+RecNext, sentinel)
	t.Store64(sentinel+RecPrev, sentinel)
	return Spans{sent: sentinel, recs: recs, heapBytes: heapBytes}
}

// Stamp has every record the heap creates carry val at offset off.
func (s *Spans) Stamp(off, val uint64) { s.stampOff, s.stamp = off, val }

// Alloc returns the record of a span of npages pages; its class word is
// still SpanFree.
func (s *Spans) Alloc(t *sim.Thread, npages int) uint64 {
	for {
		for rec := t.Load64(s.sent); rec != s.sent; rec = t.Load64(rec + RecNext) {
			t.Exec(2)
			have := int(t.Load64(rec + RecPages))
			if have < npages {
				continue
			}
			ListRemove(t, rec)
			if have > npages {
				rem := s.recs.Alloc(t)
				base := t.Load64(rec + RecBase)
				s.insert(t, rem, base+uint64(npages)<<mem.PageShift, uint64(have-npages))
				t.Store64(rec+RecPages, uint64(npages))
			}
			return rec
		}
		g := max(spanGrowPages, (npages+spanGrowPages-1)&^(spanGrowPages-1))
		base := t.MmapHuge(g)
		*s.heapBytes += uint64(g) << mem.PageShift
		s.insert(t, s.recs.Alloc(t), base, uint64(g))
	}
}

// insert fills a new free record and links it.
func (s *Spans) insert(t *sim.Thread, rec, base, pages uint64) {
	t.Store64(rec+RecBase, base)
	t.Store64(rec+RecPages, pages)
	t.Store64(rec+RecClass, SpanFree)
	if s.stampOff != 0 {
		t.Store64(rec+s.stampOff, s.stamp)
	}
	ListInsert(t, s.sent, rec)
}

// Free marks rec's span free and links it.
func (s *Spans) Free(t *sim.Thread, rec uint64) {
	t.Store64(rec+RecClass, SpanFree)
	s.Link(t, rec)
}

// Link links rec, already marked SpanFree, for a model that clears its
// own words between marking and linking.
func (s *Spans) Link(t *sim.Thread, rec uint64) { ListInsert(t, s.sent, rec) }

// CarveIndexStack fills a fresh slab's free stack at stack with the
// 16-bit unit indices 0..n-1, four to a word.
func CarveIndexStack(t *sim.Thread, stack uint64, n int) {
	for i := 0; i < n; i += 4 {
		var w uint64
		for j := 0; j < 4 && i+j < n; j++ {
			w |= uint64(i+j) << (16 * j)
		}
		t.Store64(stack+uint64(i)*2, w)
	}
}
