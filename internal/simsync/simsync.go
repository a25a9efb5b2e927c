// Package simsync provides synchronization primitives built from the
// simulator's atomic operations, with their lock words living in
// simulated memory.
//
// These are the "software mutex locks ... controlling access to
// metadata" whose cost the paper calls a critical bottleneck (§2.3):
// every acquisition is a real simulated RMW, every contended acquisition
// ping-pongs a real simulated cache line.
package simsync

import "nextgenmalloc/internal/sim"

// SpinLock is a test-and-test-and-set spinlock with exponential backoff.
// The zero value is unusable; place the lock word with New or At.
type SpinLock struct {
	addr uint64
}

// NewSpinLock places a spinlock at addr (an 8-byte word the caller has
// mapped and zeroed).
func NewSpinLock(addr uint64) SpinLock { return SpinLock{addr: addr} }

// Lock acquires the lock, spinning with backoff under contention. The
// contended wait is declared to the scheduler's time warp: once the
// backoff caps, a held lock makes every round an identical lock-word
// load plus pause, which the engine skips in bulk (the simulated spin
// cost is charged exactly; only host stepping is saved).
func (l SpinLock) Lock(t *sim.Thread) {
	backoff := 4
	t.WarpLoop(sim.WaitSpec{
		Round: func() bool {
			// Test-and-test-and-set: spin on a plain load first so the line
			// stays Shared until it looks free.
			if t.Load64(l.addr) == 0 && t.CAS64(l.addr, 0, 1) {
				return true
			}
			t.Pause(backoff)
			if backoff < 256 {
				backoff *= 2
			}
			return false
		},
	})
}

// TryLock attempts a single acquisition.
func (l SpinLock) TryLock(t *sim.Thread) bool {
	return t.Load64(l.addr) == 0 && t.CAS64(l.addr, 0, 1)
}

// Unlock releases the lock.
func (l SpinLock) Unlock(t *sim.Thread) {
	t.AtomicStore64(l.addr, 0)
}

// TicketLock is a fair FIFO lock: two adjacent 8-byte words
// (next-ticket, now-serving).
type TicketLock struct {
	addr uint64
}

// NewTicketLock places a ticket lock at addr (16 mapped, zeroed bytes).
func NewTicketLock(addr uint64) TicketLock { return TicketLock{addr: addr} }

// Lock takes a ticket and waits for service. The wait is declared to
// the time warp (one now-serving load per round).
func (l TicketLock) Lock(t *sim.Thread) {
	ticket := t.FetchAdd64(l.addr, 1)
	t.WarpLoop(sim.WaitSpec{
		Round: func() bool {
			if t.Load64(l.addr+8) == ticket {
				return true
			}
			t.Pause(16)
			return false
		},
	})
}

// Unlock advances the serving counter.
func (l TicketLock) Unlock(t *sim.Thread) {
	serving := t.Load64(l.addr + 8)
	t.AtomicStore64(l.addr+8, serving+1)
}
