// Graceful degradation for the offload path. The paper gives the
// allocator its own room in the house; this file answers what the
// application does when the room is locked — the dedicated core is
// stalled, slow, or the ring misbehaves (see internal/fault). New
// resolves two policies from Config.Resilience. The bounded waiter gives
// the client a per-request timeout with exponential-backoff retries and,
// after enough consecutive failures, a local emergency allocator until a
// periodic probe finds the server answering again. It keeps the blocking
// waiter's invariant of one answer-bearing request in flight: a request
// whose wait gave up stays pending, is the probe, and is settled (a
// malloc's block taken back) before the next one is numbered. The checking
// validator checks every ring word (sequence tag + parity in the
// otherwise-unused top byte) and NACKs corrupt requests, so corruption
// becomes a counted, recoverable event. Disabled, New resolves the seed's
// blocking waiter (resp.go) and trusting validator (nextgen.go), which
// carry no branch of the degraded path.
package core

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
)

// Resilience configures the offload client's graceful degradation and
// the server's request validation. The zero value is disabled: the seed
// protocol.
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
	// ProbeCycles is the minimum spacing of degraded-mode rejoin probes:
	// the pending request's ring re-rung, or, with none pending, a sync
	// barrier sent, to test whether the server answers again.
	ProbeCycles uint64
	// MaxRequestBytes is the largest malloc the server will honour; a
	// corrupt size word past it is NACKed instead of grabbing the span
	// allocator.
	MaxRequestBytes uint64
	// FailoverAfter arms fleet failover: after this many consecutive
	// timeouts on the home shard, a client re-homes its mallocs to the
	// next healthy shard instead of the emergency allocator, which
	// becomes the last tier (every shard down). Zero keeps failover off —
	// degraded clients fall straight back to emergency allocation — and
	// applyDefaults deliberately leaves it zero. Frees always route to
	// the owning shard regardless of failover.
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
	// AbandonedRequests counts mallocs whose wait gave up; each stays
	// pending until its late answer comes, and ReclaimedBlocks counts
	// those whose block was taken back and freed (abandoned - reclaimed
	// is at most the one still pending).
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

// ResilienceEnabled reports whether New resolved the bounded waiter.
func (a *Allocator) ResilienceEnabled() bool { return a.wait == bounded{} }

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

// pendingReq is a bounded client's one numbered request the server has
// not answered yet (seq 0: none): its ring and op word, to re-push or
// re-ring it, and for a malloc the size its late block is reclaimed at.
type pendingReq struct {
	seq uint64
	r   *ring.SPSC
	w0  uint64
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
	pending   pendingReq
	repush    bool // a NACK on the pending request's ring awaits its re-push
	// deferred holds engine-owned block addresses whose free could not be
	// queued (ring full or degraded); drained opportunistically.
	deferred []uint64
	em       emergency
	stats    ResilienceStats
}

// emergency is a client's local fallback allocator: a bump pointer over
// privately mmapped spans with per-class free stacks, deliberately
// primitive (it keeps the application going while the server is away).
// Its blocks never mix with the engine's: the engine's pagemap doesn't
// know them, and Free routes them here by the allocator's emBlocks map,
// whichever thread frees them.
type emergency struct {
	cur, limit uint64
	free       map[int][]uint64
}

// emBlock is a live emergency block: the client whose tier carved it,
// and its class, or -pages for a large block.
type emBlock struct {
	owner *client
	enc   int64
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
		a.emBlocks[addr] = emBlock{c, -int64(pages)}
		return addr
	}
	if fl := rs.em.free[class]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		rs.em.free[class] = fl[:len(fl)-1]
		a.emBlocks[addr] = emBlock{c, int64(class)}
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
	a.emBlocks[addr] = emBlock{c, int64(class)}
	return addr
}

// emergencyFree releases an emergency block to its owner's free stacks,
// whichever client c frees it; false means the address is engine-owned
// and must travel the ring. The live-byte decrement happens here because
// the server-side path (engineFree) never sees these blocks.
func (a *Allocator) emergencyFree(t *sim.Thread, c *client, addr uint64) bool {
	b, ok := a.emBlocks[addr]
	if !ok {
		return false
	}
	t.Exec(4)
	delete(a.emBlocks, addr)
	c.res.stats.EmergencyFrees++
	if b.enc < 0 {
		// Large emergency blocks are not recycled: they are rare and
		// bounded by the degraded window, and the pages stay mapped.
		a.stats.LiveBytes -= uint64(-b.enc) << mem.PageShift
		return true
	}
	class := int(b.enc)
	a.stats.LiveBytes -= a.sc.Size(class)
	em := &b.owner.res.em
	em.free[class] = append(em.free[class], addr)
	return true
}

// --- the bounded waiter -------------------------------------------------------

// bounded is the resilient client's waiter: sealed requests, waits
// bounded by timeouts and retries, and the local emergency tier.
type bounded struct{}

// register gives a new client its degradation state and, when the plan
// drops doorbells, the drop hooks: only a bounded client recovers them.
func (bounded) register(a *Allocator, c *client) {
	c.res = &clientResilience{em: emergency{free: map[int][]uint64{}}}
	if a.inj.Plan().DropEveryN > 0 {
		c.mreq.SetDropHook(a.inj.DropDoorbell)
		c.freq.SetDropHook(a.inj.DropDoorbell)
	}
}

func (bounded) push(t *sim.Thread, c *client, r *ring.SPSC, w0 uint64) bool {
	return c.pushSealed(t, r, w0, c.seq)
}

// malloc is Malloc's offload tail: sealed request, bounded wait, local
// fallback.
func (bounded) malloc(a *Allocator, t *sim.Thread, c *client, size uint64) uint64 {
	a.drainDeferred(t, c)
	if !c.res.degraded || a.tryRejoin(t, c, false) {
		if addr, ok := a.offloadMalloc(t, c, size); ok {
			return addr
		}
	}
	return a.emergencyMalloc(t, c, size)
}

// offloadMalloc is one sealed malloc under the bounded wait. It fails
// when issue refuses it (the pending request stays unanswered) or its
// own wait gives up; then the malloc is abandoned but stays pending,
// and settling it takes its block back. The caller picks the fallback
// tier: the local emergency allocator, or, under fleet failover,
// another shard.
func (a *Allocator) offloadMalloc(t *sim.Thread, c *client, size uint64) (uint64, bool) {
	rs := c.res
	if _, ok := a.issue(t, c, c.mreq, opMalloc|size<<8); ok {
		if addr, ok := a.awaitBounded(t, c); ok {
			rs.consecFails = 0
			return addr, true
		}
		rs.stats.AbandonedRequests++
	}
	a.failed(t, c)
	return 0, false
}

// failed counts a round trip that got no answer. FallbackAfter in a row
// flip the client to local emergency allocation, and re-ring both
// doorbells so everything already queued surfaces the moment the server
// recovers.
func (a *Allocator) failed(t *sim.Thread, c *client) {
	rs := c.res
	if rs.consecFails++; rs.degraded || rs.consecFails < a.cfg.Resilience.FallbackAfter {
		return
	}
	rs.degraded = true
	rs.degradedSince = t.Clock()
	rs.lastProbe = t.Clock() // the server just proved unresponsive; wait a full interval
	rs.stats.FallbackEntries++
	c.mreq.Republish(t)
	c.freq.Republish(t)
}

// mallocFallible is the fleet failover entry point: one resilient malloc
// attempt against this shard that reports failure instead of falling
// back to the emergency allocator, so the fleet can re-route it. It
// mirrors Malloc's offload path, except that only the shard that serves
// the request charges the host-side malloc ledger. A degraded shard
// fails fast (one host check, plus a ProbeCycles-spaced rejoin probe),
// so a dead home shard costs its clients almost nothing per malloc.
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

// free is Free's offload tail: emergency blocks stay local, a free the
// ring cannot take (server away, ring full) is parked host-side, and
// synchronous-free mode waits on a bounded barrier.
func (b bounded) free(a *Allocator, t *sim.Thread, c *client, addr uint64) {
	rs := c.res
	if a.emergencyFree(t, c, addr) {
		return
	}
	if !rs.degraded {
		a.drainDeferred(t, c)
		t.Exec(sealCost)
	}
	if rs.degraded || !c.freq.TryStage(t, sealWord(opFree, addr, c.seq), addr) {
		rs.deferred = append(rs.deferred, addr)
		rs.stats.DeferredFrees++
		return
	}
	if !a.cfg.AsyncFree {
		c.freq.Publish(t)
		b.barrier(a, t, c)
	} else if c.freq.Staged() >= maxBatch {
		c.freq.Publish(t)
	}
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

// flush is a bounded barrier that doubles as a degraded-mode rejoin
// point and settles the degraded-cycles ledger (the harness flushes at
// thread exit, so an open degraded window is folded in here).
func (b bounded) flush(a *Allocator, t *sim.Thread, c *client) {
	rs := c.res
	if rs.degraded {
		a.tryRejoin(t, c, true)
	}
	if !rs.degraded {
		a.drainDeferred(t, c)
		c.freq.Publish(t) // staged frees travel ahead of the barrier
		if b.barrier(a, t, c) {
			rs.consecFails = 0
			a.drainDeferred(t, c)
		} else {
			a.failed(t, c)
		}
	}
	if rs.degraded {
		rs.stats.DegradedCycles += t.Clock() - rs.degradedSince
		rs.degradedSince = t.Clock()
	}
}

// preheat queues a preheat request without blocking; a full ring drops
// it (preheat is advisory).
func (bounded) preheat(t *sim.Thread, c *client, class int) {
	c.pushSealed(t, c.freq, opPreheat|uint64(class)<<8, 0)
}

// pollRejoin is the fleet failover path's non-blocking rejoin check on
// a degraded home shard: each call peeks for the pending request's
// answer, and probe re-rings it every ProbeCycles. Unlike tryRejoin,
// the emergency path's blocking probe, it never spins out a timeout: a
// failed-over client has a healthy shard serving it. True means the
// shard answered and the client rejoined.
func (a *Allocator) pollRejoin(t *sim.Thread, c *client) bool {
	if seq := c.res.pending.seq; seq != 0 {
		if addr, ok := peek(t, c, seq); ok {
			return a.rejoin(t, c, addr)
		}
	}
	a.probe(t, c, false)
	return false
}

// tryRejoin probes a degraded client's server and waits one timeout for
// the pending request's answer; on it the client rejoins.
func (a *Allocator) tryRejoin(t *sim.Thread, c *client, force bool) bool {
	if !a.probe(t, c, force) {
		return false
	}
	if addr, ok := a.spin(t, c, c.res.pending.seq, t.Clock()+a.cfg.Resilience.TimeoutCycles, true); ok {
		return a.rejoin(t, c, addr)
	}
	c.res.stats.Timeouts++
	return false
}

// probe re-rings the pending request's ring, so its doorbell cannot be
// the dropped one, once ProbeCycles have passed since the last probe, or
// at once when forced (flush boundaries force one). With nothing
// pending, a sync barrier is issued to be the probe. False means no
// probe left: too soon, or the barrier could not be pushed.
func (a *Allocator) probe(t *sim.Thread, c *client, force bool) bool {
	rs := c.res
	if !force && t.Clock()-rs.lastProbe < a.cfg.Resilience.ProbeCycles {
		return false
	}
	rs.lastProbe = t.Clock()
	if rs.pending.seq == 0 {
		if _, ok := a.issue(t, c, c.freq, opSync); !ok {
			return false
		}
	}
	rs.pending.r.Republish(t)
	return true
}

// rejoin takes the pending request's answer addr and returns the client
// to the offload protocol.
func (a *Allocator) rejoin(t *sim.Thread, c *client, addr uint64) bool {
	rs := c.res
	a.late(c, rs.pending, addr)
	rs.pending = pendingReq{}
	rs.degraded = false
	rs.consecFails = 0
	rs.stats.FallbackExits++
	rs.stats.DegradedCycles += t.Clock() - rs.degradedSince
	a.drainDeferred(t, c)
	return true
}

// --- the checking validator ---------------------------------------------------

// checking is the resilient server's validator: every popped pair is
// untrusted, and a bad one is NACKed instead of served.
type checking struct{}

// admit runs the injector's bit-flipper (corruption is only injected
// where it is caught), the seal check, and the size and class caps.
func (checking) admit(a *Allocator, t *sim.Thread, w0, w1 uint64) (uint64, uint64, bool) {
	w0, w1 = a.inj.Corrupt(w0, w1)
	t.Exec(sealCost)
	if !checkSeal(w0, w1) {
		return w0, w1, false
	}
	w0 = unseal(w0)
	switch w0 & 0xff {
	case opMalloc:
		return w0, w1, w0>>8 <= a.cfg.Resilience.MaxRequestBytes
	case opPreheat:
		return w0, w1, w0>>8 < uint64(a.sc.NumClasses())
	}
	return w0, w1, true
}

func (checking) checked() bool { return true }

// reject NACKs: it bumps the client page's NACK word for the ring. A
// malloc-ring NACK means "my in-flight request was dropped — re-push it";
// free-ring NACKs cover asynchronous requests (a corrupt free is dropped
// and counted) and sync barriers (re-pushed, idempotent).
func (checking) reject(t *sim.Thread, c *client, fromMalloc bool, _ uint64) uint64 {
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

// validSmallFree is engineFree's validation stage for a slab block:
// class sanity and base, then the layout's alignment, capacity and
// double-free checks against the slab record rec. False means addr
// cannot be a live block of that slab.
func (a *Allocator) validSmallFree(t *sim.Thread, rec, classWord, addr uint64) bool {
	if classWord >= uint64(a.sc.NumClasses()) {
		return false // free span or garbage class word
	}
	base := t.Load64(rec + alloc.RecBase)
	if addr < base {
		return false
	}
	return a.enc.valid(t, rec, base, a.sc.Size(int(classWord)), addr)
}
