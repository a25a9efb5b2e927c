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
// (frees and preheats carry none), and a client has at most one of them
// in flight: a blocking client waits each out, and a bounded client's
// unanswered one stays pending until issue settles it. So a wait starts
// with the previous seq's answer (or the zeroed page's seq 0) in the
// word, no other answer can land on it, and tags are exact.
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
// register (a new client's set-up) and push (number's push of request
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
// the seq as its payload. A bounded client's request then stays pending
// until its answer is taken, and issue is where at most one stays
// pending: it first settles the pending one (the same ladder its own
// wait gave up on, then its late answer is taken), and refuses (false)
// while that stays unanswered.
func (a *Allocator) issue(t *sim.Thread, c *client, r *ring.SPSC, w0 uint64) (seq uint64, ok bool) {
	if rs := c.res; rs != nil && rs.pending.seq != 0 {
		p := rs.pending
		addr, ok := a.awaitBounded(t, c)
		if !ok {
			return 0, false
		}
		a.late(c, p, addr)
	}
	return a.number(t, c, r, w0)
}

// number pushes request c.seq+1 the waiter's way (a blocking Push, or a
// bounded client's sealed TryPush) and numbers it only once it is
// pushed; false means the ring is full. A bounded client's numbered
// request is its pending one.
func (a *Allocator) number(t *sim.Thread, c *client, r *ring.SPSC, w0 uint64) (uint64, bool) {
	c.seq++
	if !a.wait.push(t, c, r, w0) {
		c.seq--
		return 0, false
	}
	if c.res != nil {
		c.res.pending = pendingReq{seq: c.seq, r: r, w0: w0}
	}
	return c.seq, true
}

// peek loads the response word once and reports the answer to seq, if
// it is there.
func peek(t *sim.Thread, c *client, seq uint64) (addr uint64, ok bool) {
	if v := t.AtomicLoad64(c.page + respWord); answers(v, seq) {
		return v &^ respTagMask, true
	}
	return 0, false
}

// spin polls the response word until seq is answered or, with a nonzero
// until, the clock reaches until. It is the client's only wait loop,
// declared to the time warp: a steady round loads the response line
// (once, or twice with nacks) and pauses, and until caps an arithmetic
// advance, so a timeout lands on the same clock with warp on and off.
//
// With nacks, seq is the pending request's and the round also watches
// its ring's NACK counter: a change means a request on that ring was
// rejected, and the pending one is re-pushed under the next seq, the
// one then awaited. The NACK may be another request's (on the free ring,
// a free's), so a copy may still be queued, but the ring is FIFO: that
// copy is answered first and the word ends on the new tag.
func (a *Allocator) spin(t *sim.Thread, c *client, seq, until uint64, nacks bool) (addr uint64, got bool) {
	rs := c.res
	var nackAt uint64
	var seen *uint64 // the client's mirror of the watched counter
	if nacks {
		nackAt, seen = c.page+respNackF, &rs.nackSeenF
		if rs.pending.r == c.mreq {
			nackAt, seen = c.page+respNackM, &rs.nackSeenM
		}
	}
	t.WarpLoop(sim.WaitSpec{
		Round: func() bool {
			if nacks && rs.repush {
				if next, ok := a.number(t, c, rs.pending.r, rs.pending.w0); ok {
					rs.repush, seq = false, next
				}
			}
			if addr, got = peek(t, c, seq); got {
				return true
			}
			if nacks {
				if nk := t.AtomicLoad64(nackAt); nk != *seen {
					*seen = nk
					rs.stats.Retries++
					rs.repush = true
				}
			}
			t.Pause(4)
			return false
		},
		Until: until,
	})
	return addr, got
}

// awaitBounded is the bounded waiter's wait for the pending request's
// answer: rounds of TimeoutCycles spinning, each expiry a timeout
// followed — up to MaxRetries times — by a doorbell re-ring (the
// doorbell may have been lost) and a doubling pause. On an answer the
// request is no longer pending; on none it stays pending.
func (a *Allocator) awaitBounded(t *sim.Thread, c *client) (uint64, bool) {
	p, rs := &a.cfg.Resilience, c.res
	backoff := p.BackoffCycles
	for attempt := 0; ; attempt++ {
		if addr, ok := a.spin(t, c, rs.pending.seq, t.Clock()+p.TimeoutCycles, true); ok {
			rs.pending = pendingReq{}
			return addr, true
		}
		rs.stats.Timeouts++
		if attempt >= p.MaxRetries {
			return 0, false
		}
		rs.stats.Retries++
		rs.pending.r.Republish(t)
		t.Pause(int(backoff))
		backoff *= 2
	}
}

// late takes the answer addr to p, a request whose own wait gave up on
// it. A malloc's caller was served by another tier, so the block is
// queued for a deferred free, and the live-byte ledger gets back the
// increment the other tier's block consumed, which the engine's free of
// this block takes off.
func (a *Allocator) late(c *client, p pendingReq, addr uint64) {
	if p.w0&0xff != opMalloc {
		return
	}
	rs := c.res
	rs.deferred = append(rs.deferred, addr)
	rs.stats.ReclaimedBlocks++
	rs.stats.DeferredFrees++
	a.stats.LiveBytes += a.blockBytes(p.w0 >> 8)
}

// barrier sends a sync barrier down the free ring, behind everything
// queued there, and waits for its answer; issue can refuse it too.
func (bounded) barrier(a *Allocator, t *sim.Thread, c *client) bool {
	if _, ok := a.issue(t, c, c.freq, opSync); !ok {
		return false
	}
	_, ok := a.awaitBounded(t, c)
	return ok
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
	addr, _ := a.spin(t, c, seq, 0, false)
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
	a.spin(t, c, seq, 0, false)
}
