// The response word: the server's answer to a client's request, the
// hand-off of the paper's §4.1. Only this file stores or loads the word
// or numbers a request; every wait (a blocking malloc, a barrier, a
// bounded wait, a rejoin probe) is issue, then spin or peek.
package core

import (
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
)

// The response line opens the client page. The answer is one word and
// one store: the low 17 bits of the request's seq in bits 47-63 (the
// tag) over the malloc result (0 for a sync barrier). Every simulated
// address is below 2^47. Only requests that get an answer take a seq
// (frees and preheats carry none), and a blocking client waits on one at
// a time, so a wait starts with the previous seq's answer (or the zeroed
// page's seq 0) in the word and tags are exact. A bounded client's waits
// stay exact unless its server leaves 2^17 requests in a row unanswered
// or answers one 2^17 seqs late.
//
// The NACK words share the line: counters a checking server bumps when
// it rejects a request from the malloc or the free ring.
const (
	respWord     = 0 // tag(seq)<<respTagShift | addr
	respTagShift = 47
	respTagMask  = 1<<64 - 1<<respTagShift
	respTagSpan  = 1 << (64 - respTagShift) // seqs before a tag repeats
	respNackM    = 16                       // malloc-ring rejections
	respNackF    = 24                       // free-ring rejections
)

// answers reports whether response word v carries seq's tag.
func answers(v, seq uint64) bool { return (v^seq<<respTagShift)&respTagMask == 0 }

// respond is the server's answer to seq: addr for a malloc, 0 for a barrier.
func respond(t *sim.Thread, c *client, seq, addr uint64) {
	t.AtomicStore64(c.page+respWord, seq<<respTagShift|addr)
}

// waiter is the client's policy for its server, resolved once in New:
// blocking (the seed protocol) or bounded (resilience.go). Besides
// register (a new client's set-up) and push (issue's push of request
// c.seq), it holds the offload tails of Malloc, Free, Preheat and Flush.
type waiter interface {
	register(a *Allocator, c *client)
	push(t *sim.Thread, c *client, r *ring.SPSC, w0 uint64) bool
	malloc(a *Allocator, t *sim.Thread, c *client, size uint64) uint64
	free(a *Allocator, t *sim.Thread, c *client, addr uint64)
	preheat(t *sim.Thread, c *client, class int)
	flush(a *Allocator, t *sim.Thread, c *client)
}

// issue numbers a request that gets an answer and pushes it on r with
// the seq as its payload, the waiter's way: a blocking Push, or a bounded
// client's sealed TryPush (false: the ring is full).
func (a *Allocator) issue(t *sim.Thread, c *client, r *ring.SPSC, w0 uint64) (seq uint64, ok bool) {
	c.seq++
	return c.seq, a.wait.push(t, c, r, w0)
}

// peek loads the response word once and reports the answer to seq, if
// it is there. Any other word may be the late answer to a malloc a
// resilient client abandoned, and is offered to maybeReclaim.
func (a *Allocator) peek(t *sim.Thread, c *client, seq uint64) (addr uint64, ok bool) {
	v := t.AtomicLoad64(c.page + respWord)
	if answers(v, seq) {
		return v &^ respTagMask, true
	}
	if c.res != nil {
		a.maybeReclaim(c, v)
	}
	return 0, false
}

// nackWatch arms spin's NACK handling: a change of the counter at off
// means a request on ring r was rejected, and the awaited one (op word
// w0) is re-pushed: always if a duplicate is harmless (dupSafe, a
// barrier), else only while no abandoned malloc, whose duplicate would
// leak, could be the one rejected. A pending re-push outlives its
// attempt.
type nackWatch struct {
	r       *ring.SPSC
	w0, off uint64
	seen    *uint64 // the client's mirror of the counter
	dupSafe bool
	repush  bool
}

// spin polls the response word until seq is answered or, with a nonzero
// until, the clock reaches until; w, if non-nil, also watches a NACK
// counter. It is the client's only wait loop, declared to the time warp:
// a steady round loads the response line (once, or twice with w) and
// pauses, and until caps a bulk skip, so a timeout lands on the same
// clock with warp on and off.
func (a *Allocator) spin(t *sim.Thread, c *client, seq, until uint64, w *nackWatch) (addr uint64, got bool) {
	n := 1
	c.spinAt[0] = c.page + respWord
	if w != nil {
		c.spinAt[1], n = c.page+w.off, 2
	}
	t.WarpLoop(sim.WaitSpec{
		Round: func() bool {
			if w != nil && w.repush && c.pushSealed(t, w.r, w.w0, seq) {
				w.repush = false
			}
			if addr, got = a.peek(t, c, seq); got {
				return true
			}
			if w != nil {
				if nk := t.AtomicLoad64(c.page + w.off); nk != *w.seen {
					*w.seen = nk
					if w.dupSafe || len(c.res.abandoned) == 0 {
						c.res.stats.Retries++
						w.repush = true
					}
				}
			}
			t.Pause(4)
			return false
		},
		Addrs: func() []uint64 { return c.spinAt[:n] },
		Until: until,
	})
	return addr, got
}

// awaitBounded is the bounded waiter's wait for the answer to seq, pushed
// on r with op word w0: rounds of TimeoutCycles spinning, each
// expiry a timeout followed — up to MaxRetries times — by a doorbell
// re-ring (the doorbell may have been lost) and a doubling pause.
func (a *Allocator) awaitBounded(t *sim.Thread, c *client, r *ring.SPSC, w0, seq uint64) (uint64, bool) {
	p, rs := &a.cfg.Resilience, c.res
	w := &nackWatch{r: r, w0: w0, off: respNackF, seen: &rs.nackSeenF, dupSafe: true}
	if r == c.mreq {
		w.off, w.seen, w.dupSafe = respNackM, &rs.nackSeenM, false
	}
	backoff := p.BackoffCycles
	for attempt := 0; ; attempt++ {
		if addr, ok := a.spin(t, c, seq, t.Clock()+p.TimeoutCycles, w); ok {
			return addr, true
		}
		rs.stats.Timeouts++
		if attempt >= p.MaxRetries {
			return 0, false
		}
		rs.stats.Retries++
		r.Republish(t)
		t.Pause(int(backoff))
		backoff *= 2
	}
}

// barrier sends a sync barrier down the free ring, behind everything
// queued there, and waits for its answer; the push itself can fail too.
func (bounded) barrier(a *Allocator, t *sim.Thread, c *client) (pushed, answered bool) {
	seq, pushed := a.issue(t, c, c.freq, opSync)
	if pushed {
		_, answered = a.awaitBounded(t, c, c.freq, opSync, seq)
	}
	return pushed, answered
}

// blocking is the seed protocol's waiter: requests travel unsealed and
// every wait spins until its answer comes.
type blocking struct{}

func (blocking) register(*Allocator, *client) {}
func (blocking) push(t *sim.Thread, c *client, r *ring.SPSC, w0 uint64) bool {
	r.Push(t, w0, c.seq)
	return true
}

// malloc is a synchronous request: push, then spin on the response word.
func (blocking) malloc(a *Allocator, t *sim.Thread, c *client, size uint64) uint64 {
	seq, _ := a.issue(t, c, c.mreq, opMalloc|size<<8)
	addr, _ := a.spin(t, c, seq, 0, nil)
	return addr
}

// free stages the request and stores the line when it fills; Malloc,
// Preheat and Flush publish a partial one. Synchronous-free mode
// publishes at once and chases the free with a sync barrier so the
// client observes completion (the ring is FIFO per client).
func (w blocking) free(a *Allocator, t *sim.Thread, c *client, addr uint64) {
	c.freq.Stage(t, opFree, addr)
	if !a.cfg.AsyncFree {
		c.freq.Publish(t)
		w.flush(a, t, c)
	} else if c.freq.Staged() >= maxBatch {
		c.freq.Publish(t)
	}
}

func (blocking) preheat(t *sim.Thread, c *client, class int) {
	c.freq.Push(t, opPreheat|uint64(class)<<8, 0)
}

// flush sends a sync barrier down the free ring and spins until it is
// answered. Push publishes the staged backlog ahead of it in slot order,
// so the barrier keeps its FIFO position behind every queued free.
func (blocking) flush(a *Allocator, t *sim.Thread, c *client) {
	seq, _ := a.issue(t, c, c.freq, opSync)
	a.spin(t, c, seq, 0, nil)
}

// maybeReclaim catches an abandoned malloc's late answer in v, a word a
// wait just loaded: the block is queued for a deferred free, and the
// live-byte ledger gets back the increment the emergency replacement
// consumed, which the engine's eventual free of the block takes off.
func (a *Allocator) maybeReclaim(c *client, v uint64) {
	rs := c.res
	// Entries are in seq order. One 2^17 requests old shares its tag with
	// a newer request, so its answer can no longer be told apart: drop it
	// unreclaimed (AbandonedRequests - ReclaimedBlocks counts the leak).
	for len(rs.abandoned) > 0 && c.seq-rs.abandoned[0].seq >= respTagSpan {
		rs.abandoned = rs.abandoned[1:]
	}
	for i, ab := range rs.abandoned {
		if !answers(v, ab.seq) {
			continue
		}
		rs.abandoned = append(rs.abandoned[:i], rs.abandoned[i+1:]...)
		rs.deferred = append(rs.deferred, v&^respTagMask)
		rs.stats.ReclaimedBlocks++
		rs.stats.DeferredFrees++
		a.stats.LiveBytes += a.blockBytes(ab.size)
		return
	}
}
