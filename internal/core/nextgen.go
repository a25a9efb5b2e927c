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
//     (the client spins on one tagged response word, resp.go, where the
//     paper's §4.2 prototype uses two flag variables); free is
//     asynchronous and costs the client only a ring push (§3.1.2: "the
//     entire free phase is not on the critical path").
//
// The slab engine keeps its records in a dedicated metadata address
// range (mem.MetaBase) and reads each slab's free state through the
// layout's encoding (layout.go), one file per layout: segregated 16-bit
// index stacks, the paper's suggested encoding, so in offload mode
// application cores never touch a metadata line (layout_segregated.go);
// aggregated intrusive next-pointers in free blocks, Figure 2 top
// (layout_aggregated.go); and compact mallocng-style bitmask groups, 1
// bit of state per block (layout_compact.go). The last two exist for
// the layout ablation.
package core

import (
	"fmt"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/simsync"
	"nextgenmalloc/internal/timeline"
)

// Config selects the NextGen-Malloc variant.
type Config struct {
	// Offload runs the allocator on a dedicated server core.
	Offload bool
	// Layout selects the metadata encoding (default Segregated).
	Layout Layout
	// Prealloc selects predictive preallocation (see PreallocPolicy;
	// default off).
	Prealloc PreallocPolicy
	// AsyncFree releases the client as soon as a free request is queued
	// (default true in offload mode; the paper argues free is off the
	// critical path). Queued means staged: asynchronous frees leave the
	// client a slot line at a time (§3.3 batched requests) — a ring
	// holds back at most maxBatch-1 of them, until its line fills or the
	// thread's next Malloc, Preheat or Flush on this allocator.
	AsyncFree bool
	// RingSlots is the per-client request ring capacity (power of two).
	RingSlots int
	// Sched selects the server's ring-service order (see SchedPolicy).
	// The zero value (FixedScan) is the seed behaviour.
	Sched SchedPolicy
	// Partition selects how a Fleet of these allocators routes requests
	// to its shards (see Partition); a single allocator ignores it.
	Partition Partition
	// Latency, when non-nil, receives one span per offload request:
	// enqueue (ring stage, producer clock), dequeue, and completion
	// (server clock). Host-side observation only — arming it enables
	// ring stamping but issues zero simulated memory traffic, so
	// counters are bit-identical with and without it.
	Latency *timeline.LatencyRecorder
	// Resilience selects the offload path's two policies, the client's
	// waiter and the server's validator (resilience.go). The zero value
	// is the seed protocol.
	Resilience Resilience
	// Faults, when non-nil, is the armed fault injector the server and
	// transport consult (see internal/fault). Stall windows and slow-down
	// apply under every policy; only the bounded waiter drops doorbells
	// and only the checking validator corrupts words, because the seed
	// protocol cannot survive either.
	Faults *fault.Injector
}

// DefaultConfig is the paper's proposal: offloaded, segregated, async
// free, no preallocation (matching the §4.2 prototype).
func DefaultConfig() Config {
	return Config{Offload: true, Layout: Segregated, AsyncFree: true, RingSlots: 64}
}

// Slab record fields every layout shares, after the alloc.Rec* header.
// Records live in the metadata region; each layout's own state follows
// the fixed fields (layout.go).
const (
	slClass    = alloc.RecClass // 255 = large, alloc.SpanFree = free span
	slTop      = 40             // free units in the slab
	slCapacity = 48

	classLarge = 255
)

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
// trip at all (predictive preallocation, §3.3.2). The response line
// that opens the page is resp.go's.
const (
	stashOff    = 64  // one SPSC slot per size class (no collisions)
	stashSlots  = 64  // covers every class the engine serves
	stashStride = 256 // writeIdx line, readIdx line, 14 address words
	stashWrite  = 0   // server-owned: blocks published so far
	stashRead   = 64  // client-owned: blocks consumed so far
	stashAddrs  = 128 // ring of stashWindow block addresses
	stashWindow = 14
	staticDepth = 12 // PreallocStatic's stash depth

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
	seq      uint64             // the last sequence number issued (only issue writes it)
	res      *clientResilience  // the bounded waiter's state (nil when blocking)
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
	enc   encoding        // the layout's slab format, resolved by New
	val   validator       // the server's word policy, resolved by New
	wait  waiter          // the client's wait policy, resolved by New
	inj   *fault.Injector // the armed fault plan; nil (unarmed) is safe
	sc    *alloc.SizeClasses
	stats alloc.Stats

	// Metadata engine state (all in the mem.MetaBase region).
	pages      alloc.PageMap
	recs       alloc.Records    // slab records, one layout stride apart
	classState uint64           // per-class {cur, avail sentinel} slots
	spans      alloc.Spans      // the page-span heap
	lock       simsync.SpinLock // inline mode only

	clients   []*client
	byThread  map[int]*client
	served    uint64 // ops processed by the server
	registerL simsync.SpinLock
	emBlocks  map[uint64]emBlock // live emergency blocks (bounded waiter)
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
	a := &Allocator{
		cfg:      cfg,
		enc:      cfg.Layout.encoding(), // panics on an undefined layout
		val:      trusting{},
		wait:     blocking{},
		inj:      cfg.Faults,
		sc:       alloc.NewSizeClasses(),
		byThread: make(map[int]*client),
	}
	if cfg.Resilience.Enabled {
		a.cfg.Resilience.applyDefaults()
		a.val, a.wait = checking{}, bounded{}
		a.emBlocks = map[uint64]emBlock{}
	}
	if a.sc.NumClasses() > stashSlots {
		panic("core: stash table smaller than the class count")
	}
	// All metadata lives in the dedicated metadata address range.
	a.pages = alloc.NewPageMap(t, true)
	state := t.MmapMeta(1)
	a.lock = simsync.NewSpinLock(state)
	a.registerL = simsync.NewSpinLock(state + 8)
	a.spans = alloc.NewSpans(t, state+64, &a.recs, &a.stats.HeapBytes)
	classBytes := uint64(a.sc.NumClasses()) * 32
	a.classState = t.MmapMeta(int((classBytes + mem.PageSize - 1) >> mem.PageShift))
	for c := 0; c < a.sc.NumClasses(); c++ {
		s := a.classSlot(c)
		t.Store64(s, 0)     // cur
		t.Store64(s+8, s+8) // avail sentinel next
		t.Store64(s+16, s+8)
	}
	a.recs = alloc.NewRecords(t, uint64(a.enc.recordBytes()), 32, true)
	return a
}

// Name implements alloc.Allocator: the canonical kind spec of a's
// config (kind.go).
func (a *Allocator) Name() string { return a.cfg.Name() }

// preallocOn reports whether a preallocation policy is stocking the
// per-class stashes.
func (a *Allocator) preallocOn() bool { return a.cfg.Prealloc != PreallocOff }

// The client publishes its read index every other pop, so the server's
// view can lag by one; a stash keeps one window slot of slack, and this
// fails to compile should staticDepth outgrow it.
var _ [stashWindow - 1 - staticDepth]struct{}

// stashDepth is the target stash depth for class on client c. The
// static policy fills every requested class to staticDepth; the
// adaptive policy sizes the stash from the class's rank in the client's
// recency list — 13, 13, 6, 6, 3, 3, 1, 1 blocks for ranks 0..7, zero
// for classes that fell out — so the server's restocking work follows
// the client's measured allocation heat (§3.3.2 feedback loop).
func (a *Allocator) stashDepth(c *client, class int) uint64 {
	if a.cfg.Prealloc == PreallocStatic {
		return staticDepth
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

// --- slab engine -------------------------------------------------------------

// freshSlab carves a slab for class: the span, the shared fields, then
// the layout's free state, and last the free count.
func (a *Allocator) freshSlab(t *sim.Thread, class int) uint64 {
	pages, n := a.enc.geometry(a.sc, class)
	rec := a.spans.Alloc(t, pages)
	a.pages.Register(t, rec)
	t.Store64(rec+slClass, uint64(class))
	t.Store64(rec+slCapacity, uint64(n))
	a.enc.carve(t, rec, a.sc.Size(class), n)
	t.Store64(rec+slTop, uint64(n))
	return rec
}

// slabPop removes one free block, returning 0 when the slab is empty.
func (a *Allocator) slabPop(t *sim.Thread, rec uint64, class int) uint64 {
	top := t.Load64(rec + slTop)
	if top == 0 {
		return 0
	}
	t.Store64(rec+slTop, top-1)
	return a.enc.pop(t, rec, top, a.sc.Size(class))
}

// slabPush returns a block; reports the slab's new free count.
func (a *Allocator) slabPush(t *sim.Thread, rec uint64, class int, addr uint64) uint64 {
	top := t.Load64(rec + slTop)
	a.enc.push(t, rec, top, a.sc.Size(class), addr)
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
		alloc.ListRemove(t, rec)
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
		alloc.ListInsert(t, slot+8, rec)
	case capacity:
		// Fully free and not current: retire the pages.
		alloc.ListRemove(t, rec)
		a.spans.Free(t, rec)
	}
}

// engineMalloc is the engine's malloc for a request size (caller holds
// the lock in inline mode; bare in server context).
func (a *Allocator) engineMalloc(t *sim.Thread, size uint64) uint64 {
	class, ok := a.sc.ClassFor(size)
	if !ok {
		pages := int((size + mem.PageSize - 1) >> mem.PageShift)
		rec := a.spans.Alloc(t, pages)
		a.pages.Register(t, rec)
		t.Store64(rec+slClass, classLarge)
		return t.Load64(rec + alloc.RecBase)
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
	a.stats.LiveBytes += a.blockBytes(size)
}

// blockBytes is what a malloc of size adds to the live-byte ledger: its
// class's block size, or whole pages for a large block.
func (a *Allocator) blockBytes(size uint64) uint64 {
	if class, ok := a.sc.ClassFor(size); ok {
		return a.sc.Size(class)
	}
	return (size + mem.PageSize - 1) &^ (mem.PageSize - 1)
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
	return a.wait.malloc(a, t, c, size)
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
	a.wait.free(a, t, a.clientOf(t), addr)
}

// engineFree is the engine's free, with the live-byte accounting (the
// class is known only after the metadata lookup). validate, the checking
// validator's stage for an untrusted address (heap range, pagemap,
// class, base/alignment/capacity and double-free checks), makes it
// report false, with no state touched, for anything but a live engine
// block. Without it the address is trusted and the result always true.
func (a *Allocator) engineFree(t *sim.Thread, addr uint64, validate bool) bool {
	if validate {
		t.Exec(4) // range/alignment compare chain
		if !alloc.PageMapCovers(addr) {
			return false
		}
	}
	rec := a.pages.Get(t, addr)
	if validate && rec == 0 {
		return false
	}
	classWord := t.Load64(rec + slClass)
	if classWord == classLarge {
		if validate && addr != t.Load64(rec+alloc.RecBase) {
			return false // interior pointer into a large block
		}
		a.stats.LiveBytes -= t.Load64(rec+alloc.RecPages) << mem.PageShift
		a.spans.Free(t, rec)
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
// core stocks the matching classes ahead of the first request, queued
// and then flushed. Inline mode pre-carves the slabs directly.
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
			a.freeClass(t, a.pages.Get(t, blk), class, blk)
			a.lock.Unlock(t)
			continue
		}
		a.wait.preheat(t, a.clientOf(t), class)
	}
	if a.cfg.Offload {
		a.Flush(t)
	}
}

// Flush implements alloc.Flusher: it drains this thread's queued
// asynchronous frees with a sync barrier through the ring.
func (a *Allocator) Flush(t *sim.Thread) {
	if !a.cfg.Offload {
		return
	}
	a.wait.flush(a, t, a.clientOf(t))
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
	a.wait.register(a, c)
	a.byThread[t.ID()] = c
	// Publication to the server's poll set: the host slice append is the
	// registration; determinism holds because only one simulated thread
	// runs at a time. A parked server's rounds read a.clients, so settle
	// them first.
	a.registerL.Lock(t)
	t.Settle()
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
// The loop is declared to the scheduler's time warp (sim.WaitSpec), so
// once idle rounds repeat (a quiescent ring set: the same empty slot
// probes, stash gauge reads and pause) the server parks and its leases
// are advanced arithmetically. The horizon pins arithmetic rounds below
// the next fault-stall window, so a plan sees the same stall entry
// clock; Skipped scales the idle accounting and the round-robin cursor,
// keeping telemetry and scan order bit-identical. The round's other
// host reads are the server's own state, Stopping, and a.clients, which
// clientOf settles parked threads before growing.
func (s *Server) Run(t *sim.Thread) {
	t.WarpLoop(sim.WaitSpec{
		Round:   func() bool { return s.iterate(t) },
		Horizon: func() uint64 { return s.injector().NextStall(t.Clock()) },
		Skipped: func(rounds, cycles uint64) {
			s.emptyPolls += rounds
			s.emptyPollCycles += rounds * s.lastEmptyPoll
			s.idleCycles += cycles
			if schedTable[s.a.cfg.Sched].rotate {
				s.rr += int(rounds)
			}
		},
	})
}

// iterate is one iteration of the daemon loop; it reports whether the
// server is done (shutdown drain complete).
func (s *Server) iterate(t *sim.Thread) bool {
	start := t.Clock()
	if d := s.injector().StallPause(t.Clock()); d > 0 {
		// The room was taken away: lease cycles without serving, in
		// chunks so Stopping stays polled (shutdown waits for the window
		// to close, exactly like the applications do).
		t.Pause(int(d))
		s.idleCycles += t.Clock() - start
		return false
	}
	if t.Stopping() {
		s.Drain(t)
		s.busyCycles += t.Clock() - start
		return true
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

// Drain services everything still queued: the daemon loop's shutdown
// path, and shared-room daemons'.
func (s *Server) Drain(t *sim.Thread) {
	if s.a == nil {
		return
	}
	for _, c := range s.a.clients {
		// A dropped doorbell must not strand published slots at shutdown:
		// re-ring both doorbells (the producers have exited, so the slot
		// lines are quiescent) before the final pops, keeping pushes ==
		// pops. With no slot hidden the re-ring issues nothing.
		c.mreq.Republish(t)
		c.freq.Republish(t)
		for s.popServe(t, c, c.mreq) {
		}
		for s.popServe(t, c, c.freq) {
		}
	}
}

// injector is the attached allocator's fault injector (nil before Attach).
func (s *Server) injector() *fault.Injector {
	if s.a == nil {
		return nil
	}
	return s.a.inj
}

// popServe pops one request off c's ring r, if one is published, and
// services it; it reports whether there was one. When latency recording
// is armed the request's span is folded: the ring's host-side stamp is
// the enqueue time, and the pop just happened so the current server
// clock is the dequeue time.
func (s *Server) popServe(t *sim.Thread, c *client, r *ring.SPSC) bool {
	w0, w1, ok := r.TryPop(t)
	if !ok {
		return false
	}
	enq, deq := r.PoppedStamp(), t.Clock()
	complete, served := s.serve(t, c, r == c.mreq, w0, w1)
	if lat := s.a.cfg.Latency; lat != nil && served {
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
// false when the validator rejected the request instead: failed seal,
// invalid payload, or an op code the protocol doesn't know.
func (s *Server) serve(t *sim.Thread, c *client, fromMalloc bool, w0, w1 uint64) (complete uint64, served bool) {
	a := s.a
	svcStart := t.Clock()
	w0, w1, ok := a.val.admit(a, t, w0, w1)
	if !ok {
		return a.val.reject(t, c, fromMalloc, w0), false
	}
	switch w0 & 0xff {
	case opMalloc:
		size := w0 >> 8
		addr := a.engineMalloc(t, size)
		respond(t, c, w1, addr)
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
		// A checking server rejects an unmappable or misaligned address
		// as a corrupt request, not a crash.
		if !a.engineFree(t, w1, a.val.checked()) {
			return a.val.reject(t, c, fromMalloc, w0), false
		}
		complete = t.Clock()
		// Asynchronous: no response and no seq.
	case opSync:
		respond(t, c, w1, 0)
		complete = t.Clock()
	case opPreheat:
		// Stock the class's stash and pre-carve its slab so the first
		// real allocation after a cold start is a local pop. Heat first:
		// the adaptive depth for a never-seen class is zero.
		class := int(w0 >> 8)
		c.noteHot(class)
		if a.preallocOn() {
			s.topUp(t, c, class)
		} else {
			blk := a.allocClass(t, class)
			a.freeClass(t, a.pages.Get(t, blk), class, blk)
		}
		complete = t.Clock()
	default:
		return a.val.reject(t, c, fromMalloc, w0), false
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
	if extra := a.inj.SlowPause(t.Clock() - svcStart); extra > 0 {
		// A slow room: the response is already out, so the injected
		// service-time multiple lands as delay on every later request.
		t.Pause(int(extra))
	}
	return complete, true
}

// validator is the server's policy for the pairs it pops, resolved once
// in New: trusting (the seed protocol) or checking (resilience.go).
type validator interface {
	// admit opens a popped pair into the request to serve; false rejects it.
	admit(a *Allocator, t *sim.Thread, w0, w1 uint64) (uint64, uint64, bool)
	checked() bool // engineFree's validate argument
	// reject answers a request serve refuses; it returns the clock then.
	reject(t *sim.Thread, c *client, fromMalloc bool, w0 uint64) uint64
}

// trusting is the seed server's validator: words are served unchecked,
// so frees always succeed and only an unknown op is refused, by a panic.
type trusting struct{}

func (trusting) admit(_ *Allocator, _ *sim.Thread, w0, w1 uint64) (uint64, uint64, bool) {
	return w0, w1, true
}
func (trusting) checked() bool { return false }
func (trusting) reject(_ *sim.Thread, _ *client, _ bool, w0 uint64) uint64 {
	panic(fmt.Sprintf("core: unknown ring op %#x", w0))
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
