// Package core implements NextGen-Malloc, the paper's contribution: a
// user-level memory allocator whose metadata is fully decoupled from
// user data (segregated layout, §3.1.2) so that allocation can be
// offloaded to a dedicated core (§3.1), eliminating allocator-induced
// cache/TLB pollution on application cores and removing all atomic
// operations from the metadata path (§3.1.3, "Strategy 2").
//
// Two execution modes share one slab engine:
//
//   - Inline: malloc/free run on the calling core under a lock, exactly
//     like a conventional UMA (the ablation baseline).
//   - Offload: a server daemon pinned to its own core polls per-client
//     SPSC rings in shared memory. Malloc is a synchronous request
//     (the client spins on a response line, as in the paper's §4.2
//     prototype with its two flag variables); free is asynchronous and
//     costs the client only a ring push (§3.1.2: "the entire free phase
//     is not on the critical path").
//
// The metadata engine keeps per-slab free-block *index stacks* of 16-bit
// indices (the paper's suggested segregated encoding) in a dedicated
// metadata address range (mem.MetaBase), so in offload mode application
// cores never touch a metadata line. The aggregated-layout variant
// (intrusive next-pointers in free blocks, Figure 2 top) and the
// compact variant (mallocng-style bitmask groups, 1 bit of state per
// block) are provided for the layout ablation.
package core

import (
	"fmt"
	"math/bits"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/simsync"
	"nextgenmalloc/internal/timeline"
)

// Layout selects the metadata encoding (paper Figure 2).
type Layout int

const (
	// Segregated keeps 16-bit index stacks in the metadata region; user
	// pages hold no allocator state at all.
	Segregated Layout = iota
	// Aggregated threads an intrusive next-pointer through the free
	// blocks themselves (the Mimalloc-style layout).
	Aggregated
	// Compact carves each slab into groups of up to 32 identical units
	// (the mallocng layout): allocation state is one out-of-band bitmask
	// word per group in the slab record — find-first-set to allocate, a
	// single bit clear to free — plus a 64-byte in-band header line per
	// group holding one offset byte per unit for free validation.
	// Metadata drops from 2 B/block of index stack to 1 bit/block of
	// bitmask plus the fixed headers.
	Compact
)

func (l Layout) String() string {
	switch l {
	case Segregated:
		return "segregated"
	case Aggregated:
		return "aggregated"
	case Compact:
		return "compact"
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

// Valid reports whether l is one of the defined layouts. harness.RunE
// rejects anything else before a simulated thread runs, so a bad layout
// is a topology error, never a silent segregated fallback.
func (l Layout) Valid() bool {
	switch l {
	case Segregated, Aggregated, Compact:
		return true
	}
	return false
}

// ParseLayout maps a CLI spelling to a Layout; "" is the default
// (Segregated).
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "segregated":
		return Segregated, nil
	case "aggregated":
		return Aggregated, nil
	case "compact":
		return Compact, nil
	}
	return 0, fmt.Errorf("unknown layout %q (want segregated, aggregated, or compact)", s)
}

// RecordBytes is the metadata-region stride one slab record reserves
// under this layout. Compact records carry 16 mask words instead of a
// 1 KiB index stack, so many more of them share a metadata page.
func (l Layout) RecordBytes() int {
	if l == Compact {
		return slCompactRecBytes
	}
	return slRecBytes
}

// SlabStateBytes is the out-of-band allocation-state footprint of one
// slab of the given capacity, excluding the fixed record fields every
// layout shares: the 16-bit index stack (segregated), the intrusive
// head word (aggregated), or one bitmask word per 32-unit group
// (compact).
func (l Layout) SlabStateBytes(capacity int) int {
	switch l {
	case Aggregated:
		return 8
	case Compact:
		return 8 * ((capacity + compactGroupUnits - 1) / compactGroupUnits)
	}
	return 2 * capacity
}

// Config selects the NextGen-Malloc variant.
type Config struct {
	// Offload runs the allocator on a dedicated server core.
	Offload bool
	// Layout selects the metadata encoding (default Segregated).
	Layout Layout
	// Prealloc, when > 0, has the server hand each malloc response up to
	// this many extra blocks of the same class for the client to consume
	// locally (predictive preallocation, §3.3.2 / the MMT discussion).
	Prealloc int
	// AsyncFree releases the client as soon as a free request is queued
	// (default true in offload mode; the paper argues free is off the
	// critical path). Queued means staged: asynchronous frees leave the
	// client a slot line at a time (§3.3 batched requests) — a ring
	// holds back at most maxBatch-1 of them, until its line fills or the
	// thread's next Malloc, Preheat or Flush on this allocator.
	AsyncFree bool
	// RingSlots is the per-client request ring capacity (power of two).
	RingSlots int
	// AdaptivePrealloc replaces the static Prealloc depth with a
	// feedback-driven one: each class's stash is sized from its rank in
	// the client's recent-allocation list (noteHot), so hot classes get a
	// deep stash and cold classes none.
	AdaptivePrealloc bool
	// Sched selects the server's ring-service order (see SchedPolicy).
	// The zero value (FixedScan) is the seed behaviour.
	Sched SchedPolicy
	// Latency, when non-nil, receives one span per offload request:
	// enqueue (ring stage, producer clock), dequeue, and completion
	// (server clock). Host-side observation only — arming it enables
	// ring stamping but issues zero simulated memory traffic, so
	// counters are bit-identical with and without it.
	Latency *timeline.LatencyRecorder
	// Resilience configures graceful degradation of the offload path
	// (timeouts, retries, local fallback) and the server's request
	// validation; see resilience.go. Zero value = disabled = seed
	// protocol.
	Resilience Resilience
	// Faults, when non-nil, is the armed fault injector the server and
	// transport consult (see internal/fault). Stall windows and slow-down
	// apply whenever armed; doorbell drops and word corruption are only
	// injected when Resilience.Enabled, because the seed blocking
	// protocol cannot survive them.
	Faults *fault.Injector
}

// DefaultConfig is the paper's proposal: offloaded, segregated, async
// free, no preallocation (matching the §4.2 prototype).
func DefaultConfig() Config {
	return Config{Offload: true, Layout: Segregated, AsyncFree: true, RingSlots: 64}
}

// Slab metadata record offsets. Records live in the metadata region;
// the index stack (2 bytes per block) follows the fixed fields.
const (
	slNext     = 0
	slPrev     = 8
	slBase     = 16
	slPages    = 24
	slClass    = 32 // 255 = large, 254 = free span
	slTop      = 40 // index-stack depth == free blocks (segregated)
	slCapacity = 48
	slFreeHead = 56 // intrusive head (aggregated layout only)
	slStack    = 64
	slRecBytes = 64 + 2*512 // fixed fields + up to 512 uint16 indices

	classLarge    = 255
	classFreeSpan = 254
)

// Compact layout (mallocng-style). A slab is carved into groups of up
// to compactGroupUnits identical units. The allocation state is fully
// out-of-band: one bitmask word per group in the slab record, bit set =
// unit free. Each group additionally opens with one in-band 64-byte
// header line — an offset byte per unit (compactIdxTag|index, so a
// stale zeroed line never validates) plus the group's ordinal — used
// only to validate frees. The header bytes live inside user pages but
// are allocator state, so freshSlab marks them region.Meta and the
// attribution telemetry bills their misses to metadata.
const (
	slCursor          = 56                           // lowest possibly-nonzero mask word (reuses slFreeHead's slot)
	slMasks           = 64                           // 16 bitmask words, one per group
	compactGroupUnits = 32                           // units per bitmask word
	compactMaxGroups  = 512 / compactGroupUnits      // capacity cap / group size
	slCompactRecBytes = slMasks + compactMaxGroups*8 // 192 B record vs the 1088 B index-stack record

	compactHdrBytes = 64   // in-band group header: 32 offset bytes + ordinal word
	compactHdrIdx   = 32   // group ordinal word inside the header line
	compactIdxTag   = 0xa0 // high bits of every offset byte
)

// compactStride is the byte span of one full group: the in-band header
// line followed by 32 units.
func compactStride(size uint64) uint64 {
	return compactHdrBytes + compactGroupUnits*size
}

// compactCapacity is how many units fit in spanBytes under the compact
// geometry: full groups plus a trailing partial group behind its own
// header.
func compactCapacity(size, spanBytes uint64) int {
	stride := compactStride(size)
	n := int(spanBytes/stride) * compactGroupUnits
	if rem := spanBytes % stride; rem > compactHdrBytes {
		n += int((rem - compactHdrBytes) / size)
	}
	return n
}

// slabGeometry is the span size and unit capacity freshSlab carves for
// class under layout l. Compact needs room for its in-band headers: the
// largest classes fill their span exactly, so the compact span grows
// until at least one unit fits behind a header. The other layouts keep
// the seed geometry bit for bit.
func slabGeometry(l Layout, sc *alloc.SizeClasses, class int) (pages, capacity int) {
	pages = sc.SpanPages(class)
	if l == Compact {
		size := sc.Size(class)
		if p := int((compactHdrBytes + size + mem.PageSize - 1) >> mem.PageShift); p > pages {
			pages = p
		}
		capacity = compactCapacity(size, uint64(pages)<<mem.PageShift)
	} else {
		capacity = sc.ObjectsPerSpan(class, pages)
	}
	if capacity > 512 {
		capacity = 512
	}
	return pages, capacity
}

// MetaFootprint reports the slab capacity and out-of-band
// allocation-state bytes layout l uses for one size class — the inputs
// to report.LayoutTable and the conformance suite's footprint
// assertion.
func MetaFootprint(l Layout, sc *alloc.SizeClasses, class int) (capacity, stateBytes int) {
	_, capacity = slabGeometry(l, sc, class)
	return capacity, l.SlabStateBytes(capacity)
}

// Ring operation codes (slot word 0, low byte).
const (
	opMalloc  = 1
	opFree    = 2
	opSync    = 3
	opPreheat = 4 // stock the stash for a class without allocating
)

// Per-client shared page layout. Malloc requests travel on their own
// small ring so they are never queued behind the asynchronous free
// backlog (head-of-line blocking would put the backlog on the malloc
// critical path). The preallocation stash is a small direct-mapped
// table of per-class cache lines the server restocks while the client
// is still spinning on the response line, so a stash hit costs no round
// trip at all (predictive preallocation, §3.3.2).
const (
	respSeq  = 0 // server publishes the request sequence number here
	respAddr = 8 // malloc result

	stashOff    = 64  // one SPSC slot per size class (no collisions)
	stashSlots  = 64  // covers every class the engine serves
	stashStride = 256 // writeIdx line, readIdx line, 14 address words
	stashWrite  = 0   // server-owned: blocks published so far
	stashRead   = 64  // client-owned: blocks consumed so far
	stashAddrs  = 128 // ring of stashWindow block addresses
	stashWindow = 14

	mallocRingOff   = stashOff + stashSlots*stashStride
	mallocRingSlots = 16
	freeRingOff     = mallocRingOff + 320 // BytesFor(16): head line + four slot lines
)

// stashSlot returns the per-class stash slot base on a client page.
// Each slot is a tiny SPSC ring: the server publishes preallocated block
// addresses and bumps writeIdx; the client pops and bumps readIdx. The
// two indices live on separate lines, so a stash hit touches no
// server-hot line except the address word itself.
func stashSlot(page uint64, class int) uint64 {
	return page + stashOff + uint64(class)*stashStride
}

// client is the per-application-thread communication state.
type client struct {
	threadID int
	page     uint64             // shared response/stash page
	mreq     *ring.SPSC         // synchronous malloc/sync requests
	freq     *ring.SPSC         // asynchronous frees (+ flush barriers)
	seq      uint64             // host mirror of the next sequence number
	res      *clientResilience  // degradation state (nil when disabled)
	readIdx  [stashSlots]uint64 // client-register mirrors of stash read indices
	// hot tracks the classes this client allocated recently; the server
	// tops up their stashes from its idle cycles.
	hot [8]int // class + 1, most recent first

	// Service-fairness ledger (host-side observation only — reading the
	// server clock issues no simulated traffic, so recording it never
	// perturbs counters): how many requests this client had served, the
	// completion clock of the most recent one, and the widest gap between
	// consecutive completions (the starvation metric the fleet sweep
	// reports).
	servedOps   uint64
	lastServed  uint64
	maxServeGap uint64
}

// noteHot records a served class in the client's recency list.
func (c *client) noteHot(class int) {
	v := class + 1
	for i, h := range c.hot {
		if h == v {
			copy(c.hot[1:i+1], c.hot[:i])
			c.hot[0] = v
			return
		}
	}
	copy(c.hot[1:], c.hot[:len(c.hot)-1])
	c.hot[0] = v
}

// Allocator is NextGen-Malloc.
type Allocator struct {
	cfg   Config
	sc    *alloc.SizeClasses
	stats alloc.Stats

	// Metadata engine state (all in the mem.MetaBase region).
	pagemapRoot uint64
	metaBase    uint64
	metaOff     uint64
	metaLimit   uint64
	freeRecs    []uint64
	classState  uint64           // per-class {cur, avail sentinel} slots
	spanSent    uint64           // free page-span list sentinel
	lock        simsync.SpinLock // inline mode only

	clients   []*client
	byThread  map[int]*client
	served    uint64 // ops processed by the server
	registerL simsync.SpinLock
}

// maxBatch is the free-coalescing window: one cache line of ring slots
// (the consumer takes a published line in one transfer; staging past
// the boundary would only start on the next one).
const maxBatch = int(sim.LineSize / ring.SlotSize)

// New builds the allocator; t performs the initial mmaps. In offload
// mode a Server daemon must have been spawned and attached (see Server).
func New(t *sim.Thread, cfg Config) *Allocator {
	if cfg.RingSlots == 0 {
		cfg.RingSlots = 64
	}
	if cfg.Resilience.Enabled {
		cfg.Resilience.applyDefaults()
	}
	a := &Allocator{
		cfg:      cfg,
		sc:       alloc.NewSizeClasses(),
		byThread: make(map[int]*client),
	}
	if a.sc.NumClasses() > stashSlots {
		panic("core: stash table smaller than the class count")
	}
	// All metadata lives in the dedicated metadata address range.
	a.pagemapRoot = t.MmapMeta(16)
	state := t.MmapMeta(1)
	a.lock = simsync.NewSpinLock(state)
	a.registerL = simsync.NewSpinLock(state + 8)
	a.spanSent = state + 64
	t.Store64(a.spanSent, a.spanSent)
	t.Store64(a.spanSent+8, a.spanSent)
	classBytes := uint64(a.sc.NumClasses()) * 32
	a.classState = t.MmapMeta(int((classBytes + mem.PageSize - 1) >> mem.PageShift))
	for c := 0; c < a.sc.NumClasses(); c++ {
		s := a.classSlot(c)
		t.Store64(s, 0)     // cur
		t.Store64(s+8, s+8) // avail sentinel next
		t.Store64(s+16, s+8)
	}
	a.growMeta(t)
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string {
	switch {
	case a.cfg.Offload && a.cfg.AdaptivePrealloc:
		return "nextgen-adaptive"
	case a.cfg.Offload && a.cfg.Prealloc > 0:
		return "nextgen-prealloc"
	case a.cfg.Offload && a.cfg.Layout == Compact:
		return "nextgen-compact"
	case a.cfg.Offload:
		return "nextgen"
	case a.cfg.Layout == Aggregated:
		return "nextgen-inline-agg"
	case a.cfg.Layout == Compact:
		return "nextgen-inline-compact"
	default:
		return "nextgen-inline"
	}
}

// preallocOn reports whether any preallocation policy (static depth or
// adaptive) is stocking the per-class stashes.
func (a *Allocator) preallocOn() bool {
	return a.cfg.Prealloc > 0 || a.cfg.AdaptivePrealloc
}

// stashDepth is the target stash depth for class on client c. The
// static policy fills every requested class to Config.Prealloc; the
// adaptive policy sizes the stash from the class's rank in the client's
// recency list — 13, 13, 6, 6, 3, 3, 1, 1 blocks for ranks 0..7, zero
// for classes that fell out — so the server's restocking work follows
// the client's measured allocation heat (§3.3.2 feedback loop).
func (a *Allocator) stashDepth(c *client, class int) uint64 {
	if !a.cfg.AdaptivePrealloc {
		d := uint64(a.cfg.Prealloc)
		// The client publishes its read index every other pop, so the
		// server's view can lag by one; keep one window slot of slack.
		if d > stashWindow-1 {
			d = stashWindow - 1
		}
		return d
	}
	v := class + 1
	for rank, h := range c.hot {
		if h == v {
			return uint64(stashWindow-1) >> (uint(rank) / 2)
		}
	}
	return 0
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

func (a *Allocator) classSlot(class int) uint64 { return a.classState + uint64(class)*32 }

func (a *Allocator) growMeta(t *sim.Thread) {
	a.metaBase = t.MmapMeta(32)
	a.metaOff = 0
	a.metaLimit = 32 << mem.PageShift
}

func (a *Allocator) newRec(t *sim.Thread) uint64 {
	if n := len(a.freeRecs); n > 0 {
		r := a.freeRecs[n-1]
		a.freeRecs = a.freeRecs[:n-1]
		return r
	}
	rb := uint64(a.cfg.Layout.RecordBytes())
	if a.metaOff+rb > a.metaLimit {
		a.growMeta(t)
	}
	r := a.metaBase + a.metaOff
	a.metaOff += rb
	return r
}

// --- pagemap (metadata region) ---------------------------------------------

func (a *Allocator) pagemapSet(t *sim.Thread, vaddr, rec uint64) {
	rel := (vaddr - mem.MmapBase) >> mem.PageShift
	leafSlot := a.pagemapRoot + (rel>>9)*8
	leaf := t.Load64(leafSlot)
	if leaf == 0 {
		leaf = t.MmapMeta(1)
		t.Store64(leafSlot, leaf)
	}
	t.Store64(leaf+(rel&511)*8, rec)
}

func (a *Allocator) pagemapGet(t *sim.Thread, vaddr uint64) uint64 {
	rel := (vaddr - mem.MmapBase) >> mem.PageShift
	leaf := t.Load64(a.pagemapRoot + (rel>>9)*8)
	if leaf == 0 {
		return 0
	}
	return t.Load64(leaf + (rel&511)*8)
}

func (a *Allocator) registerRec(t *sim.Thread, rec uint64) {
	base := t.Load64(rec + slBase)
	pages := t.Load64(rec + slPages)
	for i := uint64(0); i < pages; i++ {
		a.pagemapSet(t, base+i<<mem.PageShift, rec)
	}
}

// --- list helpers (next/prev at 0/8) ----------------------------------------

func listInsert(t *sim.Thread, sentinel, rec uint64) {
	next := t.Load64(sentinel)
	t.Store64(rec+slNext, next)
	t.Store64(rec+slPrev, sentinel)
	t.Store64(sentinel, rec)
	t.Store64(next+slPrev, rec)
}

func listRemove(t *sim.Thread, rec uint64) {
	next := t.Load64(rec + slNext)
	prev := t.Load64(rec + slPrev)
	t.Store64(prev+slNext, next)
	t.Store64(next+slPrev, prev)
}

// --- page-span allocator (plain loads/stores; the engine is single-
// threaded in offload mode, locked in inline mode) ---------------------------

const spanGrowPages = 512 // 2 MiB hugepage-backed span pool

func (a *Allocator) spanAlloc(t *sim.Thread, npages int) uint64 {
	for {
		for rec := t.Load64(a.spanSent); rec != a.spanSent; rec = t.Load64(rec + slNext) {
			t.Exec(2)
			have := int(t.Load64(rec + slPages))
			if have < npages {
				continue
			}
			listRemove(t, rec)
			if have > npages {
				rem := a.newRec(t)
				base := t.Load64(rec + slBase)
				t.Store64(rem+slBase, base+uint64(npages)<<mem.PageShift)
				t.Store64(rem+slPages, uint64(have-npages))
				t.Store64(rem+slClass, classFreeSpan)
				listInsert(t, a.spanSent, rem)
				t.Store64(rec+slPages, uint64(npages))
			}
			a.registerRec(t, rec)
			return rec
		}
		g := spanGrowPages
		if npages > g {
			g = (npages + spanGrowPages - 1) &^ (spanGrowPages - 1)
		}
		base := t.MmapHuge(g)
		a.stats.HeapBytes += uint64(g) << mem.PageShift
		rec := a.newRec(t)
		t.Store64(rec+slBase, base)
		t.Store64(rec+slPages, uint64(g))
		t.Store64(rec+slClass, classFreeSpan)
		listInsert(t, a.spanSent, rec)
	}
}

func (a *Allocator) spanFree(t *sim.Thread, rec uint64) {
	t.Store64(rec+slClass, classFreeSpan)
	listInsert(t, a.spanSent, rec)
}

// --- slab engine -------------------------------------------------------------

// freshSlab carves a slab for class. With the segregated layout the free
// state is an index stack in the metadata record and user pages stay
// untouched; with the aggregated layout an intrusive list is threaded
// through the blocks; with the compact layout the free state is one
// bitmask word per 32-unit group in the record plus an in-band header
// line per group.
func (a *Allocator) freshSlab(t *sim.Thread, class int) uint64 {
	pages, n := slabGeometry(a.cfg.Layout, a.sc, class)
	rec := a.spanAlloc(t, pages)
	t.Store64(rec+slClass, uint64(class))
	t.Store64(rec+slCapacity, uint64(n))
	switch a.cfg.Layout {
	case Segregated:
		// Stack of free indices, 4 per word.
		for i := 0; i < n; i += 4 {
			var w uint64
			for j := 0; j < 4 && i+j < n; j++ {
				w |= uint64(i+j) << (16 * j)
			}
			t.Store64(rec+slStack+uint64(i)*2, w)
		}
		t.Store64(rec+slTop, uint64(n))
	case Compact:
		base := t.Load64(rec + slBase)
		size := a.sc.Size(class)
		stride := compactStride(size)
		for g := 0; g*compactGroupUnits < n; g++ {
			units := n - g*compactGroupUnits
			if units > compactGroupUnits {
				units = compactGroupUnits
			}
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
		t.Store64(rec+slTop, uint64(n))
	default: // Aggregated
		base := t.Load64(rec + slBase)
		size := a.sc.Size(class)
		var head uint64
		for i := n - 1; i >= 0; i-- {
			blk := base + uint64(i)*size
			t.Store64(blk, head)
			t.MarkRegion(blk, 16, region.Meta) // intrusive link granule
			head = blk
		}
		t.Store64(rec+slFreeHead, head)
		t.Store64(rec+slTop, uint64(n))
	}
	return rec
}

// slabPop removes one free block, returning 0 when the slab is empty.
func (a *Allocator) slabPop(t *sim.Thread, rec uint64, class int) uint64 {
	top := t.Load64(rec + slTop)
	if top == 0 {
		return 0
	}
	t.Store64(rec+slTop, top-1)
	switch a.cfg.Layout {
	case Segregated:
		t.Exec(2)
		idx := t.Load16(rec + slStack + (top-1)*2)
		return t.Load64(rec+slBase) + idx*a.sc.Size(class)
	case Compact:
		// Find-first-set over the mask words, scanning from the cursor
		// (the lowest possibly-nonzero group); top > 0 guarantees a hit.
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
		size := a.sc.Size(class)
		return t.Load64(rec+slBase) + g*compactStride(size) + compactHdrBytes + i*size
	}
	head := t.Load64(rec + slFreeHead)
	t.Store64(rec+slFreeHead, t.Load64(head)) // intrusive: touches the block
	t.MarkRegion(head, int(a.sc.Size(class)), region.User)
	return head
}

// slabPush returns a block; reports the slab's new free count.
func (a *Allocator) slabPush(t *sim.Thread, rec uint64, class int, addr uint64) uint64 {
	top := t.Load64(rec + slTop)
	switch a.cfg.Layout {
	case Segregated:
		t.Exec(3) // index arithmetic
		idx := (addr - t.Load64(rec+slBase)) / a.sc.Size(class)
		t.Store16(rec+slStack+top*2, idx)
	case Compact:
		size := a.sc.Size(class)
		stride := compactStride(size)
		t.Exec(4) // group/unit decompose
		base := t.Load64(rec + slBase)
		rel := addr - base
		g, off := rel/stride, rel%stride
		if off < compactHdrBytes || (off-compactHdrBytes)%size != 0 {
			panic(fmt.Sprintf("core: compact free of unaligned address %#x (class %d)", addr, class))
		}
		i := (off - compactHdrBytes) / size
		if a.cfg.Resilience.Enabled {
			// Hardened mode reads the in-band offset byte: it must carry
			// tag|index or the address never came from this group.
			if b := t.Load8(base + g*stride + i); b != compactIdxTag|i {
				panic(fmt.Sprintf("core: compact free %#x: offset byte %#x, want %#x", addr, b, compactIdxTag|i))
			}
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
	default: // Aggregated
		t.Store64(addr, t.Load64(rec+slFreeHead))
		t.MarkRegion(addr, 16, region.Meta) // link word overwrites user data
		t.Store64(rec+slFreeHead, addr)
	}
	t.Store64(rec+slTop, top+1)
	return top + 1
}

// allocClass is the engine's malloc for a size class. No atomics: in
// offload mode only the server core runs it; in inline mode the caller
// holds the lock.
func (a *Allocator) allocClass(t *sim.Thread, class int) uint64 {
	slot := a.classSlot(class)
	rec := t.Load64(slot)
	if rec != 0 {
		if blk := a.slabPop(t, rec, class); blk != 0 {
			return blk
		}
		t.Store64(slot, 0) // current slab exhausted
	}
	// Next nonempty slab from the avail list, else a fresh slab.
	avail := slot + 8
	rec = t.Load64(avail)
	if rec != avail {
		listRemove(t, rec)
	} else {
		rec = a.freshSlab(t, class)
	}
	t.Store64(slot, rec)
	return a.slabPop(t, rec, class)
}

// freeClass is the engine's free once the slab record is known.
func (a *Allocator) freeClass(t *sim.Thread, rec uint64, class int, addr uint64) {
	nfree := a.slabPush(t, rec, class, addr)
	slot := a.classSlot(class)
	cur := t.Load64(slot)
	if rec == cur {
		return
	}
	capacity := t.Load64(rec + slCapacity)
	switch nfree {
	case 1:
		// Was full and unlisted: give it back to the avail list.
		listInsert(t, slot+8, rec)
	case capacity:
		// Fully free and not current: retire the pages.
		listRemove(t, rec)
		a.spanFree(t, rec)
	}
}

// engineMalloc is the engine's malloc for a request size (caller holds
// the lock in inline mode; bare in server context).
func (a *Allocator) engineMalloc(t *sim.Thread, size uint64) uint64 {
	class, ok := a.sc.ClassFor(size)
	if !ok {
		pages := int((size + mem.PageSize - 1) >> mem.PageShift)
		rec := a.spanAlloc(t, pages)
		t.Store64(rec+slClass, classLarge)
		return t.Load64(rec + slBase)
	}
	return a.allocClass(t, class)
}

// --- public API ----------------------------------------------------------------

// noteMalloc records one malloc in the host-side ledger: the call count
// and the class-rounded (or page-rounded) live-byte increment. Malloc
// charges it up front; the fleet's fallible path charges it only on the
// shard that actually served the request.
func (a *Allocator) noteMalloc(size uint64) {
	a.stats.MallocCalls++
	if class, ok := a.sc.ClassFor(size); ok {
		a.stats.LiveBytes += a.sc.Size(class)
	} else {
		a.stats.LiveBytes += (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
	}
}

// stashPop consumes a locally stashed block for size's class when the
// server stocked one — the no-round-trip fast path (predictive
// preallocation, §3.3.2), shared by Malloc and the fleet failover path.
func (a *Allocator) stashPop(t *sim.Thread, c *client, size uint64) (uint64, bool) {
	if !a.preallocOn() {
		return 0, false
	}
	class, ok := a.sc.ClassFor(size)
	if !ok {
		return 0, false
	}
	slot := stashSlot(c.page, class)
	r := c.readIdx[class]
	if t.AtomicLoad64(slot+stashWrite) == r {
		return 0, false
	}
	addr := t.Load64(slot + stashAddrs + (r%stashWindow)*8)
	c.readIdx[class] = r + 1
	// Publish the read index lazily (every other pop): the server only
	// needs a bounded-staleness view, and the store upgrades a line the
	// server polls.
	if (r+1)%2 == 0 {
		t.Store64(slot+stashRead, r+1)
	}
	return addr, true
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *sim.Thread, size uint64) uint64 {
	if size > maxMallocSize {
		return 0
	}
	a.noteMalloc(size)
	t.Exec(4)
	if !a.cfg.Offload {
		a.lock.Lock(t)
		p := a.engineMalloc(t, size)
		a.lock.Unlock(t)
		return p
	}
	c := a.clientOf(t)
	// Malloc boundary: publish any staged frees first, so the free
	// backlog's staleness is bounded by one malloc (no-op when nothing
	// is staged).
	c.freq.Publish(t)
	if addr, ok := a.stashPop(t, c, size); ok {
		return addr
	}
	if a.cfg.Resilience.Enabled {
		return a.resilientMalloc(t, c, size)
	}
	// Synchronous request: push and spin on the response line (the two
	// flag variables of the paper's prototype collapse onto seq).
	c.seq++
	c.mreq.Push(t, opMalloc|size<<8, c.seq)
	a.awaitSeq(t, c)
	return t.Load64(c.page + respAddr)
}

// awaitSeq spins on the response line until the server publishes c.seq.
// The wait is declared to the scheduler's time warp: a steady round is
// one response-word load plus the inter-poll pause, so long waits are
// skipped in bulk with bit-identical counters.
func (a *Allocator) awaitSeq(t *sim.Thread, c *client) {
	addrs := [1]uint64{c.page + respSeq}
	t.WarpLoop(sim.WaitSpec{
		Round: func() bool {
			if t.AtomicLoad64(c.page+respSeq) == c.seq {
				return true
			}
			t.Pause(4)
			return false
		},
		Addrs: func() []uint64 { return addrs[:] },
	})
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(t *sim.Thread, addr uint64) {
	a.stats.FreeCalls++
	t.Exec(2)
	// Live-byte accounting is host-side bookkeeping (the engine knows the
	// class only after its metadata lookup).
	if !a.cfg.Offload {
		a.lock.Lock(t)
		a.engineFree(t, addr, false)
		a.lock.Unlock(t)
		return
	}
	c := a.clientOf(t)
	if a.cfg.Resilience.Enabled {
		a.resilientFree(t, c, addr)
		return
	}
	c.seq++
	if a.cfg.AsyncFree {
		// Stage the request and store the line when it fills;
		// Malloc/Preheat/Flush publish a partial one.
		c.freq.Stage(t, opFree, addr)
		if c.freq.Staged() >= maxBatch {
			c.freq.Publish(t)
		}
		return
	}
	// Synchronous-free mode: chase the free with a sync barrier so the
	// client observes completion (the ring is FIFO per client).
	c.freq.Push(t, opFree, addr)
	c.seq++
	c.freq.Push(t, opSync, c.seq)
	a.awaitSeq(t, c)
}

// engineFree is the engine's free, with the live-byte accounting (the
// class is known only after the metadata lookup). validate adds the
// stage an untrusted ring word needs — heap range, pagemap, class,
// base/alignment/capacity and double-free checks — and makes engineFree
// report false, with no state touched, for an address that cannot be a
// live engine block (the corrupt-request NACK path). Without it the
// address is trusted and the result is always true.
func (a *Allocator) engineFree(t *sim.Thread, addr uint64, validate bool) bool {
	if validate {
		t.Exec(4) // range/alignment compare chain
		if addr < mem.MmapBase || (addr-mem.MmapBase)>>mem.PageShift>>9 >= pagemapRootSlots {
			return false
		}
	}
	rec := a.pagemapGet(t, addr)
	if validate && rec == 0 {
		return false
	}
	classWord := t.Load64(rec + slClass)
	if classWord == classLarge {
		if validate && addr != t.Load64(rec+slBase) {
			return false // interior pointer into a large block
		}
		a.stats.LiveBytes -= t.Load64(rec+slPages) << mem.PageShift
		a.spanFree(t, rec)
		return true
	}
	if validate && !a.validSmallFree(t, rec, classWord, addr) {
		return false
	}
	class := int(classWord)
	a.stats.LiveBytes -= a.sc.Size(class)
	a.freeClass(t, rec, class, addr)
	return true
}

// Preheat warms the allocator for the given request sizes before the
// workload starts issuing them — the paper's §3.3.2 FaaS cold-start
// remedy ("NextGen-Malloc can be extended to monitor inter-process
// memory heap similarities in FaaS systems"): a new function instance's
// allocation profile is known from previous instances, so the dedicated
// core stocks the matching classes ahead of the first request. In
// offload mode the requests are queued asynchronously and drained with
// a flush barrier; inline mode pre-carves the slabs directly.
func (a *Allocator) Preheat(t *sim.Thread, sizes []uint64) {
	seen := map[int]bool{}
	for _, size := range sizes {
		class, ok := a.sc.ClassFor(size)
		if !ok || seen[class] {
			continue
		}
		seen[class] = true
		if !a.cfg.Offload {
			a.lock.Lock(t)
			blk := a.allocClass(t, class)
			a.freeClass(t, a.pagemapGet(t, blk), class, blk)
			a.lock.Unlock(t)
			continue
		}
		c := a.clientOf(t)
		if a.cfg.Resilience.Enabled {
			a.resilientPreheat(t, c, class)
			continue
		}
		c.seq++
		c.freq.Push(t, opPreheat|uint64(class)<<8, 0)
	}
	if a.cfg.Offload {
		a.Flush(t)
	}
}

// Flush implements alloc.Flusher: it drains this thread's queued
// asynchronous frees (a sync barrier through the ring). Staged frees
// are published together with the barrier slot — Push
// publishes the whole staged backlog in slot order, so the barrier
// keeps its FIFO position behind them.
func (a *Allocator) Flush(t *sim.Thread) {
	if !a.cfg.Offload {
		return
	}
	c := a.clientOf(t)
	if a.cfg.Resilience.Enabled {
		a.resilientFlush(t, c)
		return
	}
	c.seq++
	c.freq.Push(t, opSync, c.seq)
	a.awaitSeq(t, c)
}

// clientOf lazily registers the calling thread with the server.
func (a *Allocator) clientOf(t *sim.Thread) *client {
	if c, ok := a.byThread[t.ID()]; ok {
		return c
	}
	pages := (freeRingOff + ring.BytesFor(a.cfg.RingSlots) + mem.PageSize - 1) >> mem.PageShift
	page := t.Mmap(pages)
	// The whole client page is transport state — response line, stash
	// slots, both rings — so misses on it are attributed to the ring
	// class, not to user data or metadata.
	t.MarkRegion(page, int(pages)<<mem.PageShift, region.Ring)
	c := &client{
		threadID: t.ID(),
		page:     page,
		mreq:     ring.New(page+mallocRingOff, mallocRingSlots),
		freq:     ring.New(page+freeRingOff, a.cfg.RingSlots),
	}
	if a.cfg.Latency != nil {
		c.mreq.EnableStamps()
		c.freq.EnableStamps()
	}
	if a.cfg.Resilience.Enabled || a.cfg.Faults != nil {
		c.res = newClientResilience()
	}
	if inj := a.cfg.Faults; inj != nil && a.cfg.Resilience.Enabled && inj.Plan().DropEveryN > 0 {
		// Doorbell loss is only injected when the client can recover
		// (Republish after a timeout); the seed protocol would hang.
		c.mreq.SetDropHook(inj.DropDoorbell)
		c.freq.SetDropHook(inj.DropDoorbell)
	}
	a.byThread[t.ID()] = c
	// Publication to the server's poll set: the host slice append is the
	// registration; determinism holds because only one simulated thread
	// runs at a time.
	a.registerL.Lock(t)
	a.clients = append(a.clients, c)
	a.registerL.Unlock(t)
	return c
}

// Served reports how many ring operations the server has processed.
func (a *Allocator) Served() uint64 { return a.served }

// RingTelemetry merges the per-client malloc-ring and free-ring stats
// (offload transport telemetry; zero-valued in inline mode).
func (a *Allocator) RingTelemetry() (malloc, free ring.Stats) {
	for _, c := range a.clients {
		malloc.Add(c.mreq.Stats())
		free.Add(c.freq.Stats())
	}
	return malloc, free
}

// RingDepths sums the host-visible occupancy (published + staged slots)
// of every client's rings — the timeline sampler's gauge. Zero
// simulated cost.
func (a *Allocator) RingDepths() (mallocDepth, freeDepth uint64) {
	for _, c := range a.clients {
		mallocDepth += uint64(c.mreq.HostDepth())
		freeDepth += uint64(c.freq.HostDepth())
	}
	return mallocDepth, freeDepth
}

// --- server -----------------------------------------------------------------

// Server is the dedicated-core daemon body. Spawn it before sim.Run and
// attach the allocator once constructed:
//
//	srv := core.NewServer()
//	m.SpawnDaemon("ngm-server", serverCore, srv.Run)
//	...
//	a := core.New(t, cfg)
//	srv.Attach(a)
type Server struct {
	a *Allocator

	// Busy/idle accounting for the dedicated core (host-side: reading
	// the thread clock perturbs nothing). A loop iteration that found
	// ring work counts as busy; empty polls, idle top-ups, and waiting
	// for Attach count as idle.
	busyCycles uint64
	idleCycles uint64
	// Empty-poll accounting: passes that found no ring work, and the
	// cycles those passes burned scanning the rings (a subset of
	// idleCycles).
	emptyPolls      uint64
	emptyPollCycles uint64
	// lastEmptyPoll is the scan cost of the most recent empty poll pass,
	// used to scale emptyPollCycles exactly when the scheduler's time
	// warp skips steady idle rounds (identical rounds scan identically).
	lastEmptyPoll uint64
	// addrScratch backs idleLoadAddrs so steady idle windows allocate
	// nothing per bulk skip.
	addrScratch []uint64
	// rr is the rotating client start index of the round-robin policy
	// (host-side scheduling state, like a real server's cursor register).
	rr int
}

// emptyPollPause is how long the server rests after a pass that found
// no work before it scans the rings again.
const emptyPollPause = 8

// NewServer returns an empty server awaiting Attach.
func NewServer() *Server { return &Server{} }

// Attach hands the allocator to the server loop.
func (s *Server) Attach(a *Allocator) { s.a = a }

// Telemetry reports the server core's busy and idle cycles so far.
func (s *Server) Telemetry() (busy, idle uint64) { return s.busyCycles, s.idleCycles }

// PollStats reports how many poll passes found no work and the cycles
// those empty passes burned scanning the rings.
func (s *Server) PollStats() (emptyPolls, emptyPollCycles uint64) {
	return s.emptyPolls, s.emptyPollCycles
}

// Run is the daemon body: poll every client ring round-robin, service
// requests with the (atomics-free) slab engine, publish responses.
//
// The loop is declared to the scheduler's time warp (sim.WaitSpec): a
// quiescent ring set makes every iteration an identical sequence of
// empty slot probes, stash gauge reads, and a fixed pause, and
// those rounds are skipped in bulk instead of being stepped on the
// host. The declaration covers exactly the steady idle round — the slot
// words the empty polls reload and the stash index words the idle
// top-up gauges — and the horizon pins warped rounds strictly below the
// next fault-stall window, so an armed plan observes the identical
// stall entry clock. Per-round idle accounting is scaled through
// Skipped, making busy/idle/empty-poll telemetry bit-identical too.
func (s *Server) Run(t *sim.Thread) {
	t.WarpLoop(sim.WaitSpec{
		Round: func() bool { return s.iterate(t) },
		Addrs: s.idleLoadAddrs,
		Horizon: func() uint64 {
			if inj := s.injector(); inj != nil {
				return inj.NextStall(t.Clock())
			}
			return 0
		},
		Skipped: func(rounds, cycles uint64) {
			s.emptyPolls += rounds
			s.emptyPollCycles += rounds * s.lastEmptyPoll
			s.idleCycles += cycles
		},
	})
}

// iterate is one iteration of the daemon loop; it reports whether the
// server is done (shutdown drain complete).
func (s *Server) iterate(t *sim.Thread) bool {
	start := t.Clock()
	if inj := s.injector(); inj != nil {
		if d := inj.StallPause(t.Clock()); d > 0 {
			// The room was taken away: lease cycles without serving.
			// Pauses are chunked so Stopping stays polled; drain (and
			// with it shutdown) waits for the window to close, exactly
			// like the applications do.
			t.Pause(int(d))
			s.idleCycles += t.Clock() - start
			return false
		}
	}
	if t.Stopping() {
		if s.a == nil || s.drain(t) {
			s.busyCycles += t.Clock() - start
			return true
		}
	}
	if s.a == nil {
		t.Pause(200)
		s.idleCycles += t.Clock() - start
		return false
	}
	if s.Poll(t) {
		s.busyCycles += t.Clock() - start
	} else {
		s.emptyPolls++
		s.lastEmptyPoll = t.Clock() - start
		s.emptyPollCycles += s.lastEmptyPoll
		s.Idle(t)
		t.Pause(emptyPollPause)
		s.idleCycles += t.Clock() - start
	}
	return false
}

// idleLoadAddrs declares the load sequence of one steady idle round to
// the time-warp detector: the malloc-ring poll word probed by the priority
// pass, the malloc- and free-ring poll words probed by the first background
// iteration, per client, then the stash write/read index words the idle
// top-up reads for every hot class whose stash is already full. Host
// side only — building the list issues no simulated operations.
func (s *Server) idleLoadAddrs() []uint64 {
	a := s.a
	if a == nil {
		return nil
	}
	addrs := s.addrScratch[:0]
	for _, c := range a.clients {
		addrs = append(addrs, c.mreq.PollAddr())
	}
	for _, c := range a.clients {
		addrs = append(addrs, c.mreq.PollAddr(), c.freq.PollAddr())
	}
	if a.preallocOn() {
		for _, c := range a.clients {
			for _, h := range c.hot {
				if h > 0 && a.stashDepth(c, h-1) > 0 {
					slot := stashSlot(c.page, h-1)
					addrs = append(addrs, slot+stashWrite, slot+stashRead)
				}
			}
		}
	}
	s.addrScratch = addrs
	return addrs
}

// Idle spends spare core cycles topping up the stashes of recently
// requested classes (predictive preallocation, §3.3.2).
func (s *Server) Idle(t *sim.Thread) {
	a := s.a
	if a == nil || !a.preallocOn() {
		return
	}
	for _, c := range a.clients {
		for _, h := range c.hot {
			if h > 0 {
				s.topUp(t, c, h-1)
			}
		}
	}
}

// Drain services everything still queued (shutdown path for shared-room
// daemons).
func (s *Server) Drain(t *sim.Thread) {
	if s.a != nil {
		s.drain(t)
	}
}

// topUp fills a client's per-class stash ring up to the configured
// depth. SPSC: only the server writes addresses and writeIdx, only the
// client writes readIdx, so this is safe to run while the client pops.
func (s *Server) topUp(t *sim.Thread, c *client, class int) {
	a := s.a
	depth := a.stashDepth(c, class)
	if depth == 0 {
		// Adaptive policy with a cold class: skip even the index loads.
		return
	}
	slot := stashSlot(c.page, class)
	w := t.Load64(slot + stashWrite)
	r := t.Load64(slot + stashRead)
	have := w - r
	if have >= depth {
		return
	}
	for n := have; n < depth; n++ {
		t.Store64(slot+stashAddrs+(w%stashWindow)*8, a.allocClass(t, class))
		w++
	}
	t.AtomicStore64(slot+stashWrite, w)
}

// drain services any remaining queued operations; reports completion.
func (s *Server) drain(t *sim.Thread) bool {
	faulty := s.a.cfg.Faults != nil
	for _, c := range s.a.clients {
		if faulty {
			// A dropped doorbell must not strand published slots at
			// shutdown: re-ring both doorbells (the producers have exited,
			// so the slot lines are quiescent) before the final pops. This
			// is what keeps the liveness invariant pushes == pops.
			c.mreq.Republish(t)
			c.freq.Republish(t)
		}
		for s.popServe(t, c, c.mreq) {
		}
		for s.popServe(t, c, c.freq) {
		}
	}
	return true
}

// injector returns the armed fault injector, if any.
func (s *Server) injector() *fault.Injector {
	if s.a == nil {
		return nil
	}
	return s.a.cfg.Faults
}

// popServe pops one request off c's ring r, if one is published, and
// services it; it reports whether there was one. The pop is the
// corruption injection point: every word pair the server receives may
// have a bit flipped by an armed plan (only with resilience on — the
// seed protocol cannot survive it). When latency recording is armed the
// request's span is folded: the ring's host-side stamp is the enqueue
// time, and the pop just happened so the current server clock is the
// dequeue time.
func (s *Server) popServe(t *sim.Thread, c *client, r *ring.SPSC) bool {
	a := s.a
	w0, w1, ok := r.TryPop(t)
	if !ok {
		return false
	}
	if inj := a.cfg.Faults; inj != nil && a.cfg.Resilience.Enabled {
		w0, w1 = inj.Corrupt(w0, w1)
	}
	enq, deq := r.PoppedStamp(), t.Clock()
	complete, served := s.serve(t, c, r == c.mreq, w0, w1)
	if lat := a.cfg.Latency; lat != nil && served {
		if op, ok := spanOp(w0); ok {
			lat.Record(op, c.threadID, enq, deq, complete)
		}
	}
	return true
}

// serve processes one request and returns the server clock at the point
// the request's effect became visible to the client (for malloc, the
// response publication — stash restocking afterwards is off the
// critical path and not part of the span's service time). served is
// false when the request was rejected (NACKed) instead: failed seal,
// invalid payload, or an op code the protocol doesn't know.
func (s *Server) serve(t *sim.Thread, c *client, fromMalloc bool, w0, w1 uint64) (complete uint64, served bool) {
	a := s.a
	svcStart := t.Clock()
	if a.cfg.Resilience.Enabled {
		t.Exec(sealCost)
		if !checkSeal(w0, w1) {
			return s.nack(t, c, fromMalloc), false
		}
		w0 = unseal(w0)
	}
	switch w0 & 0xff {
	case opMalloc:
		size := w0 >> 8
		if a.cfg.Resilience.Enabled && size > a.cfg.Resilience.MaxRequestBytes {
			return s.nack(t, c, fromMalloc), false
		}
		addr := a.engineMalloc(t, size)
		t.Store64(c.page+respAddr, addr)
		t.AtomicStore64(c.page+respSeq, w1)
		complete = t.Clock()
		// The client is already unblocked; restock its stash off the
		// critical path and remember the class for idle top-ups. The
		// heat update precedes the top-up so the adaptive policy sizes
		// the stash for the class's new rank.
		if a.preallocOn() {
			if class, ok := a.sc.ClassFor(size); ok {
				c.noteHot(class)
				s.topUp(t, c, class)
			}
		}
	case opFree:
		// Under resilience an unmappable or misaligned address is a
		// corrupt request, not a crash.
		if !a.engineFree(t, w1, a.cfg.Resilience.Enabled) {
			return s.nack(t, c, fromMalloc), false
		}
		complete = t.Clock()
		// Asynchronous: no response. (The client's seq counter advanced,
		// so a later sync op publishes the newest seq.)
	case opSync:
		t.AtomicStore64(c.page+respSeq, w1)
		complete = t.Clock()
	case opPreheat:
		// Stock the class's stash and pre-carve its slab so the first
		// real allocation after a cold start is a local pop. Heat first:
		// the adaptive depth for a never-seen class is zero.
		class := int(w0 >> 8)
		if a.cfg.Resilience.Enabled && class >= a.sc.NumClasses() {
			return s.nack(t, c, fromMalloc), false
		}
		c.noteHot(class)
		if a.preallocOn() {
			s.topUp(t, c, class)
		} else {
			blk := a.allocClass(t, class)
			a.freeClass(t, a.pagemapGet(t, blk), class, blk)
		}
		complete = t.Clock()
	default:
		if a.cfg.Resilience.Enabled || a.cfg.Faults != nil {
			return s.nack(t, c, fromMalloc), false
		}
		panic(fmt.Sprintf("core: unknown ring op %#x", w0))
	}
	a.served++
	// Host-side service-fairness ledger (observation only — no simulated
	// traffic): count the request and track the widest gap between this
	// client's consecutive completions, the starvation metric the fleet
	// sweep reports.
	if c.lastServed != 0 && complete-c.lastServed > c.maxServeGap {
		c.maxServeGap = complete - c.lastServed
	}
	c.servedOps++
	c.lastServed = complete
	if inj := a.cfg.Faults; inj != nil {
		if extra := inj.SlowPause(t.Clock() - svcStart); extra > 0 {
			// A slow room: the response is already out, so the injected
			// service-time multiple lands as delay on every later request.
			t.Pause(int(extra))
		}
	}
	return complete, true
}

// spanOp maps a ring op code to its latency-span kind; control ops
// (sync barriers, preheat) are not allocation requests and get no span.
func spanOp(w0 uint64) (timeline.Op, bool) {
	switch w0 & 0xff {
	case opMalloc:
		return timeline.OpMalloc, true
	case opFree:
		return timeline.OpFree, true
	}
	return 0, false
}
