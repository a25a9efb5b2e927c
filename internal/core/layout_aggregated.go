package core

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
)

// slFreeHead is the aggregated record's one state word: the address of
// the first free block.
const slFreeHead = 56

// aggregated threads an intrusive next-pointer through the free blocks
// themselves (Figure 2 top, the Mimalloc-style layout): the record holds
// only the list head, and every free block's first word is allocator
// state.
type aggregated struct{ seedFormat }

func (aggregated) stateBytes(int) int { return 8 }

// carve threads the list through the blocks back to front, so it pops
// in address order.
func (aggregated) carve(t *sim.Thread, rec, size uint64, n int) {
	base := t.Load64(rec + alloc.RecBase)
	var head uint64
	for i := n - 1; i >= 0; i-- {
		blk := base + uint64(i)*size
		t.Store64(blk, head)
		t.MarkRegion(blk, 16, region.Meta) // intrusive link granule
		head = blk
	}
	t.Store64(rec+slFreeHead, head)
}

func (aggregated) pop(t *sim.Thread, rec, _, size uint64) uint64 {
	head := t.Load64(rec + slFreeHead)
	t.Store64(rec+slFreeHead, t.Load64(head)) // intrusive: touches the block
	t.MarkRegion(head, int(size), region.User)
	return head
}

func (aggregated) push(t *sim.Thread, rec, _, _, addr uint64) {
	t.Store64(addr, t.Load64(rec+slFreeHead))
	t.MarkRegion(addr, 16, region.Meta) // link word overwrites user data
	t.Store64(rec+slFreeHead, addr)
}
