package core

import "nextgenmalloc/internal/sim"

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
	for i := 0; i < n; i += 4 {
		var w uint64
		for j := 0; j < 4 && i+j < n; j++ {
			w |= uint64(i+j) << (16 * j)
		}
		t.Store64(rec+slStack+uint64(i)*2, w)
	}
}

func (segregated) pop(t *sim.Thread, rec, top, size uint64) uint64 {
	t.Exec(2)
	idx := t.Load16(rec + slStack + (top-1)*2)
	return t.Load64(rec+slBase) + idx*size
}

func (segregated) push(t *sim.Thread, rec, top, size, addr uint64) {
	t.Exec(3) // index arithmetic
	idx := (addr - t.Load64(rec+slBase)) / size
	t.Store16(rec+slStack+top*2, idx)
}
