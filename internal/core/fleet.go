package core

import (
	"fmt"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/timeline"
)

// Partition selects how a Fleet routes requests to its server shards.
type Partition int

const (
	// ByClient assigns each application thread to one shard
	// (round-robin in first-touch order), so a thread's whole traffic —
	// rings, stash, response line — stays with one server. This is the
	// default: it preserves the per-thread SPSC transport unchanged.
	ByClient Partition = iota
	// ByClass routes each request by its size class (class mod shards,
	// large allocations to shard 0), so every server owns a disjoint
	// slice of the class space and threads talk to several servers.
	ByClass
)

// String reports the partition's CLI spelling.
func (p Partition) String() string {
	if p == ByClass {
		return "class"
	}
	return "client"
}

// ParsePartition maps a CLI spelling to its partition scheme. The
// empty string is the default (by client).
func ParsePartition(s string) (Partition, error) {
	switch s {
	case "", "client":
		return ByClient, nil
	case "class":
		return ByClass, nil
	}
	return 0, fmt.Errorf("unknown partition %q (want client or class)", s)
}

// Fleet shards the offloaded allocator across S independent servers,
// each owning its clients' ring pairs and a private metadata engine —
// the "how many rooms does the house need" scaling question. Routing
// is host-side except for a small fixed dispatch charge; each shard is
// an unmodified Allocator, so the per-shard protocol (and its golden
// behaviour) is untouched.
type Fleet struct {
	part   Partition
	shards []*Allocator
	sc     *alloc.SizeClasses
	// group is the thread→shard assignment (ByClient), filled
	// round-robin in first-touch order; owner maps every live
	// allocation to the shard that served it so frees route home even
	// when another thread (or another class bucket) releases them.
	group map[int]int
	owner map[uint64]int

	// Failover state (armed by Resilience.FailoverAfter > 0 on a
	// multi-shard fleet): per-thread routing ledgers in first-touch
	// order, plus a bounded host-side event log for the trace.
	fclients map[int]*fleetClient
	forder   []int
	events   []timeline.FailoverEvent
	dropped  uint64 // events past the log cap
}

// fleetClient is one application thread's failover routing state. home
// is where the partition scheme would send its mallocs; active is where
// they actually land right now. Ownership of already-served blocks
// never moves — frees always route by the owner map.
type fleetClient struct {
	home, active int
	failedOver   bool
	downs        uint64
	rejoins      uint64
	forwarded    uint64
}

// ClientFailover is one thread's failover ledger, exported for
// telemetry: its home and currently active shard, how many times it
// re-homed away (Downs) and back (Rejoins), and how many mallocs were
// served by a non-home shard.
type ClientFailover struct {
	Thread           int
	HomeShard        int
	ActiveShard      int
	Downs            uint64
	Rejoins          uint64
	ForwardedMallocs uint64
}

// failoverEventCap bounds the event log; transitions past it still
// count in the per-client ledgers, only the trace records are dropped
// (and counted).
const failoverEventCap = 8192

// FailoverStats aggregates the per-client failover ledgers.
type FailoverStats struct {
	Downs            uint64
	Rejoins          uint64
	ForwardedMallocs uint64
	DroppedEvents    uint64
}

// Add accumulates o into s, covering every field (kept exhaustive by
// the reflection test in fleet_test.go).
func (s *FailoverStats) Add(o FailoverStats) {
	s.Downs += o.Downs
	s.Rejoins += o.Rejoins
	s.ForwardedMallocs += o.ForwardedMallocs
	s.DroppedEvents += o.DroppedEvents
}

// routeCost is the simulated cycles charged per request for the shard
// dispatch (a table lookup on the client side).
const routeCost = 2

// NewFleet builds servers independent shard allocators from one config;
// t performs the initial mmaps. Shard i runs under its own fault injector
// injs[i] when i < len(injs) (nil: clean), else under cfg.Faults. Attach
// shard i to its own Server daemon (Fleet.Shards) before running.
// servers must be >= 1.
func NewFleet(t *sim.Thread, cfg Config, servers int, part Partition, injs []*fault.Injector) *Fleet {
	if servers < 1 {
		panic(fmt.Sprintf("core: fleet needs at least one server, got %d", servers))
	}
	f := &Fleet{
		part:     part,
		sc:       alloc.NewSizeClasses(),
		group:    make(map[int]int),
		owner:    make(map[uint64]int),
		fclients: make(map[int]*fleetClient),
	}
	for i := 0; i < servers; i++ {
		shard := cfg
		if i < len(injs) {
			shard.Faults = injs[i]
		}
		f.shards = append(f.shards, New(t, shard))
	}
	return f
}

// Shards exposes the per-server allocators (shard i belongs to server
// daemon i) for attachment and telemetry.
func (f *Fleet) Shards() []*Allocator { return f.shards }

// ClientShards reports the thread→home-shard assignment (a copy).
// Under ByClient it is where each thread's allocations were served;
// under ByClass threads still get a home shard for large allocations.
// Host-side observation only.
func (f *Fleet) ClientShards() map[int]int {
	out := make(map[int]int, len(f.group))
	for th, sh := range f.group {
		out[th] = sh
	}
	return out
}

// Name implements alloc.Allocator.
func (f *Fleet) Name() string {
	return fmt.Sprintf("%s-x%d", f.shards[0].Name(), len(f.shards))
}

// threadShard returns t's home shard, assigning one round-robin on
// first touch (deterministic: one simulated thread runs at a time).
func (f *Fleet) threadShard(t *sim.Thread) int {
	if sh, ok := f.group[t.ID()]; ok {
		return sh
	}
	sh := len(f.group) % len(f.shards)
	f.group[t.ID()] = sh
	return sh
}

// mallocShard routes an allocation request.
func (f *Fleet) mallocShard(t *sim.Thread, size uint64) int {
	if f.part == ByClass {
		if class, ok := f.sc.ClassFor(size); ok {
			return class % len(f.shards)
		}
		return 0 // large allocations all carve from shard 0's span heap
	}
	return f.threadShard(t)
}

// Malloc implements alloc.Allocator: route to the owning shard and
// remember the owner so the matching free routes home.
func (f *Fleet) Malloc(t *sim.Thread, size uint64) uint64 {
	if size > maxMallocSize {
		return 0
	}
	t.Exec(routeCost)
	if f.FailoverArmed() {
		addr, sh := f.failoverMalloc(t, size)
		if addr != 0 {
			f.owner[addr] = sh
		}
		return addr
	}
	sh := f.mallocShard(t, size)
	addr := f.shards[sh].Malloc(t, size)
	if addr != 0 {
		f.owner[addr] = sh
	}
	return addr
}

// FailoverArmed reports whether the fleet re-routes mallocs around
// marked-down shards: the bounded waiter, a failover threshold set, and
// more than one shard to fail over to.
func (f *Fleet) FailoverArmed() bool {
	a := f.shards[0]
	return a.ResilienceEnabled() && a.cfg.Resilience.FailoverAfter > 0 && len(f.shards) > 1
}

// fclient returns t's failover ledger, creating it homed at home.
func (f *Fleet) fclient(t *sim.Thread, home int) *fleetClient {
	if fc, ok := f.fclients[t.ID()]; ok {
		return fc
	}
	fc := &fleetClient{home: home, active: home}
	f.fclients[t.ID()] = fc
	f.forder = append(f.forder, t.ID())
	return fc
}

// shardDown reports whether t has marked shard sh down: its client
// there is degraded, or has accumulated FailoverAfter consecutive
// failures. A shard the thread never talked to is presumed healthy.
func (f *Fleet) shardDown(t *sim.Thread, sh int) bool {
	a := f.shards[sh]
	c, ok := a.byThread[t.ID()]
	return ok && (c.res.degraded || c.res.consecFails >= a.cfg.Resilience.FailoverAfter)
}

// failoverMalloc routes one malloc with shard failover: try the home
// shard first, then rotate through the rest. Every attempted shard runs
// the full resilient protocol (mallocFallible), so a marked-down shard
// fails fast while still probed every ProbeCycles: the moment the home
// shard answers, the next malloc lands home again, recorded as a
// rejoin. The emergency allocator is the last tier, used only when
// every shard is down or the home shard is failing below the failover
// threshold (the single-server behaviour). Returns the address and the
// shard that owns it.
func (f *Fleet) failoverMalloc(t *sim.Thread, size uint64) (uint64, int) {
	home := f.mallocShard(t, size)
	fc := f.fclient(t, home)
	n := len(f.shards)
	for i := 0; i < n; i++ {
		sh := (home + i) % n
		addr, ok := f.shards[sh].mallocFallible(t, size)
		if !ok {
			if i == 0 && !f.shardDown(t, home) {
				// Below the failover threshold: don't spread a transient
				// hiccup across the fleet — fall straight to emergency.
				break
			}
			continue
		}
		f.noteFailover(t, fc, home, sh)
		return addr, sh
	}
	a := f.shards[home]
	c := a.clientOf(t)
	a.noteMalloc(size)
	return a.emergencyMalloc(t, c, size), home
}

// noteFailover updates t's routing ledger after a served malloc and
// records down/rejoin transitions.
func (f *Fleet) noteFailover(t *sim.Thread, fc *fleetClient, home, sh int) {
	fc.home = home
	if sh != home {
		fc.forwarded++
		if !fc.failedOver || fc.active != sh {
			fc.downs++
			f.noteEvent(t, fc.active, sh)
		}
		fc.failedOver = true
	} else if fc.failedOver {
		fc.rejoins++
		f.noteEvent(t, fc.active, sh)
		fc.failedOver = false
	}
	fc.active = sh
}

// noteEvent appends one transition to the bounded event log (host-side
// observation only — reading the thread clock issues no simulated
// traffic).
func (f *Fleet) noteEvent(t *sim.Thread, from, to int) {
	if len(f.events) >= failoverEventCap {
		f.dropped++
		return
	}
	f.events = append(f.events, timeline.FailoverEvent{
		Cycle: t.Clock(), Thread: t.ID(), From: from, To: to,
	})
}

// FailoverTelemetry reports the per-client failover ledgers (in
// first-touch order), the transition event log, and the fleet-wide
// totals. armed is false (and everything empty) when failover never
// engaged a routing decision — the disarmed fleet records nothing.
func (f *Fleet) FailoverTelemetry() (clients []ClientFailover, events []timeline.FailoverEvent, totals FailoverStats, armed bool) {
	if !f.FailoverArmed() {
		return nil, nil, FailoverStats{}, false
	}
	for _, th := range f.forder {
		fc := f.fclients[th]
		clients = append(clients, ClientFailover{
			Thread:           th,
			HomeShard:        fc.home,
			ActiveShard:      fc.active,
			Downs:            fc.downs,
			Rejoins:          fc.rejoins,
			ForwardedMallocs: fc.forwarded,
		})
		totals.Downs += fc.downs
		totals.Rejoins += fc.rejoins
		totals.ForwardedMallocs += fc.forwarded
	}
	totals.DroppedEvents = f.dropped
	return clients, append([]timeline.FailoverEvent(nil), f.events...), totals, true
}

// Free implements alloc.Allocator.
func (f *Fleet) Free(t *sim.Thread, addr uint64) {
	t.Exec(routeCost)
	sh, ok := f.owner[addr]
	if ok {
		delete(f.owner, addr)
	} else {
		sh = f.threadShard(t)
	}
	f.shards[sh].Free(t, addr)
}

// Stats implements alloc.Allocator by summing the shards.
func (f *Fleet) Stats() alloc.Stats {
	var s alloc.Stats
	for _, a := range f.shards {
		st := a.Stats()
		s.HeapBytes += st.HeapBytes
		s.LiveBytes += st.LiveBytes
		s.MallocCalls += st.MallocCalls
		s.FreeCalls += st.FreeCalls
	}
	return s
}

// Flush implements alloc.Flusher: drain this thread's queued frees on
// every shard it actually talked to (flushing an untouched shard would
// spuriously register the thread there).
func (f *Fleet) Flush(t *sim.Thread) {
	for _, a := range f.shards {
		if _, ok := a.byThread[t.ID()]; ok {
			a.Flush(t)
		}
	}
}

// Preheat warms the shard (or shards, under ByClass) that will serve
// the given sizes.
func (f *Fleet) Preheat(t *sim.Thread, sizes []uint64) {
	if f.part != ByClass {
		f.shards[f.threadShard(t)].Preheat(t, sizes)
		return
	}
	perShard := make([][]uint64, len(f.shards))
	for _, size := range sizes {
		sh := 0
		if class, ok := f.sc.ClassFor(size); ok {
			sh = class % len(f.shards)
		}
		perShard[sh] = append(perShard[sh], size)
	}
	for sh, sz := range perShard {
		if len(sz) > 0 {
			f.shards[sh].Preheat(t, sz)
		}
	}
}

// Served sums the shards' served-operation counts.
func (f *Fleet) Served() uint64 {
	var n uint64
	for _, a := range f.shards {
		n += a.Served()
	}
	return n
}

// RingTelemetry merges ring stats across every shard's clients.
func (f *Fleet) RingTelemetry() (malloc, free ring.Stats) {
	for _, a := range f.shards {
		m, fr := a.RingTelemetry()
		malloc.Add(m)
		free.Add(fr)
	}
	return malloc, free
}

// RingDepths sums host-visible ring occupancy across shards (the
// timeline sampler's gauge). Zero simulated cost.
func (f *Fleet) RingDepths() (mallocDepth, freeDepth uint64) {
	for _, a := range f.shards {
		m, fr := a.RingDepths()
		mallocDepth += m
		freeDepth += fr
	}
	return mallocDepth, freeDepth
}

// ResilienceTelemetry sums client-side degradation counters across
// shards.
func (f *Fleet) ResilienceTelemetry() ResilienceStats {
	var s ResilienceStats
	for _, a := range f.shards {
		s.Add(a.ResilienceTelemetry())
	}
	return s
}
