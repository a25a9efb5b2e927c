// Package mem provides the simulated memory substrate: sparse physical
// memory, per-process page tables, and a small kernel that models the
// mmap/brk system calls the paper's user-level allocators sit on.
//
// Everything an allocator or workload stores — metadata and user data
// alike — lives in this simulated memory and is reached through simulated
// virtual addresses, so the cache and TLB models observe the real access
// streams of the real data structures.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageShift is log2 of the simulated page size (4 KiB, the x86/Arm
// baseline the paper assumes).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Frame is one physical page of backing store.
type Frame [PageSize]byte

// Load reads size bytes (1, 2, 4, or 8) at off within the frame,
// little-endian. The caller guarantees the access stays inside the page.
func (f *Frame) Load(off uint64, size int) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(f[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(f[off:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(f[off:]))
	case 1:
		return uint64(f[off])
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(f[off+uint64(i)])
	}
	return v
}

// Store writes size bytes (1, 2, 4, or 8) at off within the frame,
// little-endian. The caller guarantees the access stays inside the page.
func (f *Frame) Store(off uint64, size int, val uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(f[off:], val)
	case 4:
		binary.LittleEndian.PutUint32(f[off:], uint32(val))
	case 2:
		binary.LittleEndian.PutUint16(f[off:], uint16(val))
	case 1:
		f[off] = byte(val)
	default:
		for i := 0; i < size; i++ {
			f[off+uint64(i)] = byte(val)
			val >>= 8
		}
	}
}

// dirShift sizes one page-directory chunk: 512 frames = 2 MiB of
// simulated memory per chunk. Frame numbers are handed out densely by
// the address space (see AddressSpace.nextPFN), so the directory is a
// compact two-level array rather than a hash map — the per-access map
// lookup was the single hottest host operation in the seed engine.
const (
	dirShift = 9
	dirSize  = 1 << dirShift
	dirMask  = dirSize - 1
)

// Physical is a sparse physical memory: frames come into existence the
// first time they are touched and are always zero-filled, mirroring
// demand-zero allocation.
type Physical struct {
	dir [][]*Frame // two-level page directory: dir[pfn>>dirShift][pfn&dirMask]

	// MRU translation cache: the last frame touched. mruPFN is pfn+1 so
	// the zero value never matches (pfn 0 is reserved anyway).
	mruPFN   uint64
	mruFrame *Frame
}

// NewPhysical returns an empty physical memory.
func NewPhysical() *Physical {
	return &Physical{}
}

func (p *Physical) frame(pfn uint64) *Frame {
	if pfn+1 == p.mruPFN {
		return p.mruFrame
	}
	c := pfn >> dirShift
	for uint64(len(p.dir)) <= c {
		p.dir = append(p.dir, nil)
	}
	chunk := p.dir[c]
	if chunk == nil {
		chunk = make([]*Frame, dirSize)
		p.dir[c] = chunk
	}
	f := chunk[pfn&dirMask]
	if f == nil {
		f = new(Frame)
		chunk[pfn&dirMask] = f
	}
	p.mruPFN, p.mruFrame = pfn+1, f
	return f
}

// FrameFor returns the backing frame of the page containing paddr,
// materializing it on first touch (demand-zero). Callers that cache the
// pointer must drop it when the page may have been released.
func (p *Physical) FrameFor(paddr uint64) *Frame {
	return p.frame(paddr >> PageShift)
}

// Release drops a frame's backing store (used by munmap).
func (p *Physical) Release(pfn uint64) {
	c := pfn >> dirShift
	if c < uint64(len(p.dir)) && p.dir[c] != nil && p.dir[c][pfn&dirMask] != nil {
		p.dir[c][pfn&dirMask] = nil
	}
	if pfn+1 == p.mruPFN {
		p.mruPFN, p.mruFrame = 0, nil
	}
}

// checkSpan panics when an access would cross a page boundary; the
// simulator only issues naturally aligned scalar accesses, so a crossing
// access is always a bug in the caller.
func checkSpan(paddr uint64, size int) {
	if paddr&PageMask > PageSize-uint64(size) {
		panic(fmt.Sprintf("mem: access at %#x size %d crosses a page boundary", paddr, size))
	}
}

// Load reads size bytes (1, 2, 4, or 8) at physical address paddr,
// little-endian.
func (p *Physical) Load(paddr uint64, size int) uint64 {
	checkSpan(paddr, size)
	return p.frame(paddr>>PageShift).Load(paddr&PageMask, size)
}

// Store writes size bytes (1, 2, 4, or 8) at physical address paddr,
// little-endian.
func (p *Physical) Store(paddr uint64, size int, val uint64) {
	checkSpan(paddr, size)
	p.frame(paddr>>PageShift).Store(paddr&PageMask, size, val)
}
