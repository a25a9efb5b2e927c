// Package bump is a trivial arena (bump-pointer) allocator. It exists as
// the degenerate baseline — near-zero metadata traffic, unbounded
// fragmentation — and as a fixture for the simulator's own tests.
package bump

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/sim"
)

// chunkPages is how many pages each refill grabs from the kernel.
const chunkPages = 256

// Allocator is a bump allocator; Free is a no-op (the paper's §2.1
// fragmentation/speed trade-off taken to its speed extreme).
type Allocator struct {
	state uint64 // sim address of {cursor, limit}
	stats alloc.Stats
	sizes map[uint64]uint64 // live block sizes (host-side shadow for stats)
}

// New builds the allocator; t performs the initial state mmap.
func New(t *sim.Thread) *Allocator {
	state := alloc.MapMeta(t, 1, false)
	a := &Allocator{state: state, sizes: make(map[uint64]uint64)}
	t.Store64(state, 0)   // cursor
	t.Store64(state+8, 0) // limit
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "bump" }

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(t *sim.Thread, size uint64) uint64 {
	a.stats.MallocCalls++
	need := (size + 15) &^ 15
	if need == 0 {
		need = 16
	}
	t.Exec(2) // align arithmetic
	cursor := t.Load64(a.state)
	limit := t.Load64(a.state + 8)
	if cursor+need > limit || cursor == 0 {
		pages := chunkPages
		if n := int((need + 4095) >> 12); n > pages {
			pages = n
		}
		cursor = t.Mmap(pages)
		limit = cursor + uint64(pages)<<12
		t.Store64(a.state+8, limit)
		a.stats.HeapBytes += uint64(pages) << 12
	}
	t.Store64(a.state, cursor+need)
	a.stats.LiveBytes += size
	a.sizes[cursor] = size
	return cursor
}

// Free implements alloc.Allocator; it only updates statistics.
func (a *Allocator) Free(t *sim.Thread, addr uint64) {
	a.stats.FreeCalls++
	t.Exec(1)
	if sz, ok := a.sizes[addr]; ok {
		a.stats.LiveBytes -= sz
		delete(a.sizes, addr)
	}
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }
