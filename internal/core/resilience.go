// Graceful degradation for the offload path. The paper gives the
// allocator its own room in the house; this file answers what the
// application does when the room is locked — the dedicated core is
// stalled, slow, or the ring misbehaves (see internal/fault). The
// client gets a per-request timeout with bounded exponential-backoff
// retries, and after enough consecutive failures falls back to a local
// emergency allocator until a periodic probe finds the server answering
// again. The server validates every ring word (sequence tag + parity in
// the otherwise-unused top byte) and NACKs corrupt requests instead of
// panicking, so corruption becomes a counted, recoverable event.
//
// Everything here is gated on Config.Resilience.Enabled (plus, for the
// injection sites, Config.Faults): with both off, no simulated
// instruction differs from the seed protocol, which keeps the golden
// counter suite bit-identical.
package core

import (
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
)

// Resilience configures the offload client's graceful degradation and
// the server's request validation. The zero value is disabled: the
// client uses the seed blocking protocol and the server serves words
// unchecked.
type Resilience struct {
	// Enabled turns the whole policy on.
	Enabled bool
	// TimeoutCycles bounds one wait for a response before the request is
	// re-rung (Republish) and retried.
	TimeoutCycles uint64
	// MaxRetries bounds the re-rings per request; past it the request is
	// abandoned and served locally.
	MaxRetries int
	// BackoffCycles is the first inter-retry pause; it doubles per retry.
	BackoffCycles uint64
	// FallbackAfter is how many consecutive abandoned requests flip the
	// client into degraded mode (local emergency allocation).
	FallbackAfter int
	// ProbeCycles is the minimum spacing of degraded-mode rejoin probes
	// (a sync barrier sent to test whether the server answers again).
	ProbeCycles uint64
	// MaxRequestBytes is the largest malloc the server will honour; a
	// corrupt size word past it is NACKed instead of grabbing the span
	// allocator.
	MaxRequestBytes uint64
	// FailoverAfter arms fleet failover: after this many consecutive
	// timeouts on the home shard, a client re-homes its mallocs to the
	// next healthy shard instead of the emergency allocator, which
	// becomes the last tier (every shard down). Zero keeps failover off
	// — degraded clients fall straight back to emergency allocation, the
	// PR 5 behaviour — and applyDefaults deliberately leaves it zero.
	// Frees always route to the owning shard regardless of failover.
	FailoverAfter int
}

// DefaultResilience is the policy the fault experiments start from:
// patient enough that a clean run never trips it (a first-touch malloc
// legitimately takes ~90k cycles while the server carves the class's
// initial slab), impatient enough that a stalled server costs
// microseconds of simulated time, not the run.
func DefaultResilience() Resilience {
	return Resilience{
		Enabled:         true,
		TimeoutCycles:   100000,
		MaxRetries:      3,
		BackoffCycles:   512,
		FallbackAfter:   2,
		ProbeCycles:     100000,
		MaxRequestBytes: 1 << 24,
	}
}

// applyDefaults fills zero fields of an enabled policy so a sparse
// config (say, only TimeoutCycles set) behaves sanely.
func (r *Resilience) applyDefaults() {
	d := DefaultResilience()
	if r.TimeoutCycles == 0 {
		r.TimeoutCycles = d.TimeoutCycles
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = d.MaxRetries
	}
	if r.BackoffCycles == 0 {
		r.BackoffCycles = d.BackoffCycles
	}
	if r.FallbackAfter == 0 {
		r.FallbackAfter = d.FallbackAfter
	}
	if r.ProbeCycles == 0 {
		r.ProbeCycles = d.ProbeCycles
	}
	if r.MaxRequestBytes == 0 {
		r.MaxRequestBytes = d.MaxRequestBytes
	}
}

// ResilienceStats counts the degradation machinery's events. Client-side
// counters accumulate per client; the NACK counters are bumped by the
// server into the offending client's stats.
type ResilienceStats struct {
	// Timeouts counts response waits that expired; Retries counts the
	// re-rings that followed (Retries <= Timeouts).
	Timeouts uint64
	Retries  uint64
	// MallocNacks / FreeNacks count requests the server rejected as
	// invalid (failed seal, bad size, unknown op, unmappable address),
	// split by the ring they arrived on.
	MallocNacks uint64
	FreeNacks   uint64
	// FallbackEntries / FallbackExits count degraded-mode transitions;
	// DegradedCycles is the time spent inside.
	FallbackEntries uint64
	FallbackExits   uint64
	DegradedCycles  uint64
	// EmergencyMallocs / EmergencyFrees count operations served by the
	// local emergency allocator.
	EmergencyMallocs uint64
	EmergencyFrees   uint64
	// DeferredFrees counts frees queued host-side because the ring was
	// full or the client degraded; they drain on recovery.
	DeferredFrees uint64
	// AbandonedRequests counts mallocs the client stopped waiting for;
	// ReclaimedBlocks counts those whose late response was still caught
	// and recycled (abandoned - reclaimed bounds the leak).
	AbandonedRequests uint64
	ReclaimedBlocks   uint64
}

// Add accumulates o into s.
func (s *ResilienceStats) Add(o ResilienceStats) {
	s.Timeouts += o.Timeouts
	s.Retries += o.Retries
	s.MallocNacks += o.MallocNacks
	s.FreeNacks += o.FreeNacks
	s.FallbackEntries += o.FallbackEntries
	s.FallbackExits += o.FallbackExits
	s.DegradedCycles += o.DegradedCycles
	s.EmergencyMallocs += o.EmergencyMallocs
	s.EmergencyFrees += o.EmergencyFrees
	s.DeferredFrees += o.DeferredFrees
	s.AbandonedRequests += o.AbandonedRequests
	s.ReclaimedBlocks += o.ReclaimedBlocks
}

// ResilienceTelemetry merges every client's degradation counters.
func (a *Allocator) ResilienceTelemetry() ResilienceStats {
	var s ResilienceStats
	for _, c := range a.clients {
		if c.res != nil {
			s.Add(c.res.stats)
		}
	}
	return s
}

// ResilienceEnabled reports whether the degradation policy is armed.
func (a *Allocator) ResilienceEnabled() bool { return a.cfg.Resilience.Enabled }

// --- word sealing -----------------------------------------------------------

// The top byte of slot word 0 is unused by the seed protocol (op in the
// low byte, payload in bits 8..54; bit 55 is the ring's lap tag,
// ring.TagBit, which callers leave clear). With resilience on, the client
// seals it: bits 60-63 carry a 4-bit sequence tag and bits 56-59 a
// 4-bit XOR parity over both words, so any single-bit corruption of the
// pair is detected by checkSeal and the request NACKed instead of
// misinterpreted.
const (
	sealCost    = 2               // host arithmetic charged per seal/check
	payloadBits = ring.TagBit - 1 // op + payload, below the ring's lap tag
	parityShift = 56
	tagShift    = 60

	// maxMallocSize is the largest size an opMalloc word can carry
	// (size<<8 must stay inside payloadBits). Malloc fails anything
	// larger before it reaches a ring: 128 TiB is past every address
	// space the simulator maps.
	maxMallocSize = payloadBits >> 8
)

// parity4 folds x to a 4-bit XOR parity nibble.
func parity4(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	return x & 0xf
}

// sealWord stamps w0's top byte with the tag and the parity over the
// (tagged) pair.
func sealWord(w0, w1, seq uint64) uint64 {
	w0 = w0&payloadBits | (seq&0xf)<<tagShift
	return w0 | parity4(w0^w1)<<parityShift
}

// checkSeal verifies a popped pair.
func checkSeal(w0, w1 uint64) bool {
	return parity4((w0&^(uint64(0xf)<<parityShift))^w1) == w0>>parityShift&0xf
}

// unseal strips the seal byte, recovering the seed encoding.
func unseal(w0 uint64) uint64 { return w0 & payloadBits }

// pushSealed seals the pair (w0, w1) and tries to push it on r.
func (c *client) pushSealed(t *sim.Thread, r *ring.SPSC, w0, w1 uint64) bool {
	t.Exec(sealCost)
	return r.TryPush(t, sealWord(w0, w1, c.seq), w1)
}

// --- per-client degradation state -------------------------------------------

// abandonedReq remembers a malloc the client stopped waiting for: the
// sequence number (to catch the late response) and the requested size
// (to rebalance live-byte accounting when the block is reclaimed and
// re-freed through the engine).
type abandonedReq struct {
	seq  uint64
	size uint64
}

// clientResilience is the host-side degradation state of one client.
type clientResilience struct {
	consecFails   int
	degraded      bool
	degradedSince uint64
	lastProbe     uint64
	// nackSeenM/nackSeenF mirror the page's NACK counters; nackM/nackF
	// are the server-side values it publishes.
	nackSeenM uint64
	nackSeenF uint64
	nackM     uint64
	nackF     uint64
	abandoned []abandonedReq
	// probeSeq is the outstanding asynchronous rejoin probe's sequence
	// number (0 = none); only the fleet failover path uses it.
	probeSeq uint64
	// deferred holds engine-owned block addresses whose free could not be
	// queued (ring full or degraded); drained opportunistically.
	deferred []uint64
	em       emergency
	stats    ResilienceStats
}

func newClientResilience() *clientResilience {
	return &clientResilience{em: emergency{
		free:   map[int][]uint64{},
		blocks: map[uint64]int64{},
	}}
}

// emergency is the local fallback allocator: a bump pointer over
// privately mmapped spans with per-class free stacks. It is deliberately
// primitive — it exists so the application makes progress while the
// server is away, not to win benchmarks — and its blocks never mix with
// the engine's (the engine's pagemap doesn't know them, and Free routes
// them here by the blocks map).
type emergency struct {
	cur, limit uint64
	free       map[int][]uint64
	// blocks maps a live emergency address to its class, or to -pages for
	// large blocks.
	blocks map[uint64]int64
}

const emergencySpanPages = 16 // 64 KiB spans; every size class fits (max 32 KiB)

// emergencyMalloc serves a malloc locally while degraded.
func (a *Allocator) emergencyMalloc(t *sim.Thread, c *client, size uint64) uint64 {
	rs := c.res
	rs.stats.EmergencyMallocs++
	t.Exec(6) // class lookup + free-stack pop / bump arithmetic
	class, ok := a.sc.ClassFor(size)
	if !ok {
		pages := int((size + mem.PageSize - 1) >> mem.PageShift)
		addr := t.Mmap(pages)
		t.MarkRegion(addr, pages<<mem.PageShift, region.User)
		a.stats.HeapBytes += uint64(pages) << mem.PageShift
		rs.em.blocks[addr] = -int64(pages)
		return addr
	}
	if fl := rs.em.free[class]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		rs.em.free[class] = fl[:len(fl)-1]
		rs.em.blocks[addr] = int64(class)
		return addr
	}
	bsize := a.sc.Size(class)
	if rs.em.cur+bsize > rs.em.limit {
		span := t.Mmap(emergencySpanPages)
		t.MarkRegion(span, emergencySpanPages<<mem.PageShift, region.User)
		a.stats.HeapBytes += emergencySpanPages << mem.PageShift
		rs.em.cur, rs.em.limit = span, span+emergencySpanPages<<mem.PageShift
	}
	addr := rs.em.cur
	rs.em.cur += bsize
	rs.em.blocks[addr] = int64(class)
	return addr
}

// emergencyFree releases an emergency block; false means the address is
// engine-owned and must travel the ring. The live-byte decrement happens
// here because the server-side path (engineFree) never sees these
// blocks.
func (a *Allocator) emergencyFree(t *sim.Thread, c *client, addr uint64) bool {
	rs := c.res
	enc, ok := rs.em.blocks[addr]
	if !ok {
		return false
	}
	t.Exec(4)
	delete(rs.em.blocks, addr)
	rs.stats.EmergencyFrees++
	if enc < 0 {
		// Large emergency blocks are not recycled: they are rare and
		// bounded by the degraded window, and the pages stay mapped.
		a.stats.LiveBytes -= uint64(-enc) << mem.PageShift
		return true
	}
	class := int(enc)
	a.stats.LiveBytes -= a.sc.Size(class)
	rs.em.free[class] = append(rs.em.free[class], addr)
	return true
}

// --- resilient client protocol ----------------------------------------------

// resilientMalloc is Malloc's offload tail under the resilience policy:
// sealed request, bounded wait, local fallback.
func (a *Allocator) resilientMalloc(t *sim.Thread, c *client, size uint64) uint64 {
	a.drainDeferred(t, c)
	if !c.res.degraded || a.tryRejoin(t, c, false) {
		if addr, ok := a.offloadMalloc(t, c, size); ok {
			return addr
		}
	}
	return a.emergencyMalloc(t, c, size)
}

// offloadMalloc is one sealed malloc under the bounded wait. On failure
// the request is abandoned — its late answer stays catchable by
// maybeReclaim — and enough consecutive failures flip the client into
// degraded mode; the caller picks the fallback tier: the local
// emergency allocator, or, under fleet failover, another shard.
func (a *Allocator) offloadMalloc(t *sim.Thread, c *client, size uint64) (uint64, bool) {
	rs := c.res
	w0 := opMalloc | size<<8
	seq, ok := a.issue(t, c, c.mreq, w0)
	if !ok {
		// The malloc ring is jammed with requests the server never took:
		// don't wait for a push slot that needs the dead server to free.
		rs.stats.Timeouts++
	} else if addr, ok := a.awaitBounded(t, c, c.mreq, w0, seq); ok {
		rs.consecFails = 0
		return addr, true
	}
	rs.abandoned = append(rs.abandoned, abandonedReq{seq: seq, size: size})
	rs.stats.AbandonedRequests++
	rs.consecFails++
	if !rs.degraded && rs.consecFails >= a.cfg.Resilience.FallbackAfter {
		a.enterDegraded(t, c)
	}
	return 0, false
}

// mallocFallible is the fleet failover entry point: one full resilient
// malloc attempt against this shard that reports failure instead of
// falling back to the emergency allocator, so the fleet can re-route
// the request to a healthy shard. It mirrors Malloc's offload path —
// same dispatch charge, batch boundary, stash fast path, sealed push,
// bounded wait — except the host-side malloc ledger is charged only on
// success: the shard that serves the request owns its accounting. A
// degraded shard fails fast (one host check, plus a ProbeCycles-spaced
// rejoin probe), so a dead home shard costs its clients almost nothing
// per malloc once marked down.
func (a *Allocator) mallocFallible(t *sim.Thread, size uint64) (uint64, bool) {
	c := a.clientOf(t)
	if c.res.degraded && !a.pollRejoin(t, c) {
		return 0, false
	}
	t.Exec(4)
	c.freq.Publish(t)
	if addr, ok := a.stashPop(t, c, size); ok {
		a.noteMalloc(size)
		return addr, true
	}
	a.drainDeferred(t, c)
	addr, ok := a.offloadMalloc(t, c, size)
	if ok {
		a.noteMalloc(size)
	}
	return addr, ok
}

// resilientFree is Free's offload tail under the resilience policy.
func (a *Allocator) resilientFree(t *sim.Thread, c *client, addr uint64) {
	rs := c.res
	if a.emergencyFree(t, c, addr) {
		return
	}
	if rs.degraded {
		// The server is away; park the free host-side.
		rs.deferred = append(rs.deferred, addr)
		rs.stats.DeferredFrees++
		return
	}
	a.drainDeferred(t, c)
	t.Exec(sealCost)
	if !c.freq.TryStage(t, sealWord(opFree, addr, c.seq), addr) {
		rs.deferred = append(rs.deferred, addr)
		rs.stats.DeferredFrees++
		return
	}
	if a.cfg.AsyncFree {
		if c.freq.Staged() >= maxBatch {
			c.freq.Publish(t)
		}
		return
	}
	// Synchronous-free mode: bounded barrier instead of the seed's
	// infinite spin.
	c.freq.Publish(t)
	a.barrier(t, c)
}

// drainDeferred re-queues parked frees while the ring accepts them.
func (a *Allocator) drainDeferred(t *sim.Thread, c *client) {
	rs := c.res
	for len(rs.deferred) > 0 {
		if !c.pushSealed(t, c.freq, opFree, rs.deferred[0]) {
			return
		}
		rs.deferred = rs.deferred[1:]
	}
}

// resilientFlush is Flush under the resilience policy: a bounded barrier
// that doubles as a degraded-mode rejoin point and settles the
// degraded-cycles ledger (the harness flushes at thread exit, so an
// open degraded window is folded in here).
func (a *Allocator) resilientFlush(t *sim.Thread, c *client) {
	rs := c.res
	if rs.degraded {
		a.tryRejoin(t, c, true)
	}
	if !rs.degraded {
		a.drainDeferred(t, c)
		c.freq.Publish(t) // staged frees travel ahead of the barrier
		pushed, ok := a.barrier(t, c)
		if !pushed {
			rs.stats.Timeouts++
		}
		if ok {
			rs.consecFails = 0
			a.drainDeferred(t, c)
		} else {
			rs.consecFails++
			if rs.consecFails >= a.cfg.Resilience.FallbackAfter {
				a.enterDegraded(t, c)
			}
		}
	}
	a.settleDegraded(t, c)
}

// resilientPreheat queues a preheat request without blocking; a full
// ring drops it (preheat is advisory).
func (a *Allocator) resilientPreheat(t *sim.Thread, c *client, class int) {
	c.pushSealed(t, c.freq, opPreheat|uint64(class)<<8, 0)
}

// enterDegraded flips the client to local emergency allocation and
// re-rings both doorbells so everything already queued surfaces the
// moment the server recovers.
func (a *Allocator) enterDegraded(t *sim.Thread, c *client) {
	rs := c.res
	rs.degraded = true
	rs.degradedSince = t.Clock()
	rs.lastProbe = t.Clock() // the server just proved unresponsive; wait a full interval
	rs.probeSeq = 0          // a stale async probe's answer must not fake a rejoin
	rs.stats.FallbackEntries++
	c.mreq.Republish(t)
	c.freq.Republish(t)
}

// exitDegraded returns the client to the offload protocol.
func (a *Allocator) exitDegraded(t *sim.Thread, c *client) {
	rs := c.res
	rs.degraded = false
	rs.consecFails = 0
	rs.probeSeq = 0
	rs.stats.FallbackExits++
	rs.stats.DegradedCycles += t.Clock() - rs.degradedSince
	a.drainDeferred(t, c)
}

// settleDegraded folds an open degraded window into DegradedCycles (the
// telemetry boundary; the window itself stays open).
func (a *Allocator) settleDegraded(t *sim.Thread, c *client) {
	rs := c.res
	if rs.degraded {
		rs.stats.DegradedCycles += t.Clock() - rs.degradedSince
		rs.degradedSince = t.Clock()
	}
}

// pollRejoin is the fleet failover path's non-blocking rejoin check: a
// degraded home shard is probed with a fire-and-forget sync barrier
// every ProbeCycles, and each call merely peeks at the response word
// for the answer. Unlike tryRejoin it never spins out a timeout — a
// failed-over client has a healthy shard serving it, so probing its dead
// home must cost a load, not TimeoutCycles of its tenant's latency. (The
// emergency path keeps the blocking probe: it has no other way back.)
// True means the shard answered and the client has rejoined.
func (a *Allocator) pollRejoin(t *sim.Thread, c *client) bool {
	rs := c.res
	if rs.probeSeq != 0 {
		if _, ok := a.peek(t, c, rs.probeSeq); ok {
			a.exitDegraded(t, c)
			return true
		}
	}
	if seq, ok := a.probe(t, c, false); ok {
		rs.probeSeq = seq
	}
	return false
}

// tryRejoin probes a degraded client's server with a sync barrier; on an
// answer within one timeout it exits degraded mode.
func (a *Allocator) tryRejoin(t *sim.Thread, c *client, force bool) bool {
	if seq, ok := a.probe(t, c, force); ok {
		if _, ok = a.spin(t, c, seq, t.Clock()+a.cfg.Resilience.TimeoutCycles, nil); ok {
			a.exitDegraded(t, c)
			return true
		}
		c.res.stats.Timeouts++
	}
	return false
}

// probe sends a rejoin probe — a sync barrier whose doorbell is re-rung,
// so it cannot be the dropped one — once ProbeCycles have passed since
// the last probe, or at once when forced (flush boundaries force one).
// False means no probe left: too soon, or the ring is still jammed.
func (a *Allocator) probe(t *sim.Thread, c *client, force bool) (seq uint64, ok bool) {
	rs := c.res
	if !force && t.Clock()-rs.lastProbe < a.cfg.Resilience.ProbeCycles {
		return 0, false
	}
	rs.lastProbe = t.Clock()
	if seq, ok = a.issue(t, c, c.freq, opSync); ok {
		c.freq.Republish(t)
	}
	return seq, ok
}

// --- server-side validation ---------------------------------------------------

// nack publishes a rejection: a counter bump on the client page's NACK
// word for the offending ring. The client treats a malloc-ring NACK as
// "my in-flight request was dropped — re-push it"; free-ring NACKs cover
// asynchronous requests (a corrupt free is dropped and counted) and sync
// barriers (re-pushed, idempotent).
func (s *Server) nack(t *sim.Thread, c *client, fromMalloc bool) uint64 {
	if c.res == nil {
		c.res = newClientResilience()
	}
	if fromMalloc {
		c.res.nackM++
		c.res.stats.MallocNacks++
		t.AtomicStore64(c.page+respNackM, c.res.nackM)
	} else {
		c.res.nackF++
		c.res.stats.FreeNacks++
		t.AtomicStore64(c.page+respNackF, c.res.nackF)
	}
	return t.Clock()
}

// pagemapRootSlots is the root directory's capacity (16 pages of
// 8-byte slots, see New); used to range-check untrusted addresses before
// the pagemap walk.
const pagemapRootSlots = 16 << mem.PageShift / 8

// validSmallFree is engineFree's validation stage for a slab block:
// class sanity and base, then the layout's alignment, capacity and
// double-free checks against the slab record rec. False means addr
// cannot be a live block of that slab.
func (a *Allocator) validSmallFree(t *sim.Thread, rec, classWord, addr uint64) bool {
	if classWord >= uint64(a.sc.NumClasses()) {
		return false // free span or garbage class word
	}
	base := t.Load64(rec + slBase)
	if addr < base {
		return false
	}
	return a.enc.valid(t, rec, base, a.sc.Size(int(classWord)), addr)
}
