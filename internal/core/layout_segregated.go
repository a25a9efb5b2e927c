package core

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/sim"
)

// slStack is the segregated record tail: the free-index stack, 2 bytes
// per unit, follows the shared fixed fields.
const slStack = 64

// segregated is the paper's proposed encoding (§3.1.2): a stack of
// 16-bit free-unit indices in the metadata record, so user pages hold
// no allocator state at all.
type segregated struct{ seedFormat }

func (segregated) stateBytes(capacity int) int { return 2 * capacity }

// carve pushes every index onto the stack, 4 per word.
func (segregated) carve(t *sim.Thread, rec, _ uint64, n int) {
	alloc.CarveIndexStack(t, rec+slStack, n)
}

func (segregated) pop(t *sim.Thread, rec, top, size uint64) uint64 {
	t.Exec(2)
	idx := t.Load16(rec + slStack + (top-1)*2)
	return t.Load64(rec+alloc.RecBase) + idx*size
}

func (segregated) push(t *sim.Thread, rec, top, size, addr uint64) {
	t.Exec(3) // index arithmetic
	idx := (addr - t.Load64(rec+alloc.RecBase)) / size
	t.Store16(rec+slStack+top*2, idx)
}
