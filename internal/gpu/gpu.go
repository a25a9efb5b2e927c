// Package gpu models the paper's §3.3.1 heterogeneous extension: a
// GPU-style device whose memory management runs on a dedicated engine
// core, with *asynchronous allocation folded into the asynchronous copy
// stream* ("Asynchronous allocation can be used, which can also be part
// of the asynchronous CUDA memory copy").
//
// The model is a coherent unified-memory system (UVM with host-resident
// pages, as on integrated or coherently-attached GPUs): device buffers
// live in hugepage-backed shared memory, the engine core performs
// allocation, DMA copies, and kernel execution in stream order, and the
// CPU overlaps its own work with the stream exactly as a CUDA program
// overlaps host code with an async stream.
//
// The engine's allocator is a single-threaded segregated slab engine in
// the NextGen-Malloc mould: no locks, no atomics, metadata in its own
// region — the paper's point that "both CPU and GPU memory allocators
// can be decoupled from user programs".
package gpu

import (
	"fmt"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
)

// Stream operation codes. The T variants address the buffer indirectly
// as "the result of ticket a", so a whole
// alloc -> copy -> kernel -> copy-back -> free chain can be queued
// without the CPU ever waiting for the allocation — the paper's
// "asynchronous allocation ... part of the asynchronous CUDA memory
// copy".
const (
	OpAlloc    = 1 // a = size           -> result = buffer address
	OpFree     = 2 // a = address
	OpCopy     = 3 // a = dst, b = src, n bytes (DMA through the engine core)
	OpKernel   = 4 // a = buffer, n bytes, b = flops per 8-byte element
	OpCopyInT  = 5 // a = alloc ticket (dst), b = src, n bytes
	OpCopyOutT = 6 // a = dst, b = alloc ticket (src), n bytes
	OpKernelT  = 7 // a = alloc ticket, n bytes, b = flops
	OpFreeT    = 8 // a = alloc ticket
)

// Command descriptor layout (64-byte slots in shared memory).
const (
	cmdOp     = 0
	cmdA      = 8
	cmdB      = 16
	cmdN      = 24
	cmdResult = 32
	cmdBytes  = 64
	cmdDepth  = 64 // in-flight window
)

// Shared-page layout: completion counter line, command array, ring.
const (
	completedOff = 0
	cmdOff       = 64
	ringOff      = cmdOff + cmdDepth*cmdBytes
)

// Ticket identifies a queued stream operation.
type Ticket uint64

// Engine is the device-side service: create it on the application
// thread, spawn Serve on the engine core.
type Engine struct {
	page uint64
	req  *ring.SPSC
	seq  uint64 // next ticket (host mirror, app side)

	// Device heap state (engine-core private; plain loads/stores), on
	// the metadata kit in the metadata region, mapped by Serve.
	sc         *alloc.SizeClasses
	classCur   []uint64
	classSlabs [][]uint64 // every slab of a class (engine-side index)
	pages      alloc.PageMap
	recs       alloc.Records
	spans      alloc.Spans

	stats Stats
}

// Stats counts engine activity.
type Stats struct {
	Allocs, Frees, Copies, Kernels uint64
	BytesCopied                    uint64
	SlabBytes                      uint64 // device memory mapped for slabs
}

// New builds the engine's shared state; t is the application thread.
func New(t *sim.Thread) *Engine {
	pages := (ringOff + ring.BytesFor(cmdDepth) + mem.PageSize - 1) >> mem.PageShift
	page := t.Mmap(pages)
	e := &Engine{
		page: page,
		req:  ring.New(page+ringOff, cmdDepth),
		sc:   alloc.NewSizeClasses(),
	}
	e.classCur = make([]uint64, e.sc.NumClasses())
	e.classSlabs = make([][]uint64, e.sc.NumClasses())
	return e
}

// Stats returns engine counters.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) cmdSlot(ticket Ticket) uint64 {
	return e.page + cmdOff + uint64(ticket%cmdDepth)*cmdBytes
}

// enqueue writes a descriptor and publishes it; blocks while the
// in-flight window is full (cmdDepth outstanding ops), so a descriptor
// slot is never rewritten before the engine has consumed it.
func (e *Engine) enqueue(t *sim.Thread, op, a, b, n uint64) Ticket {
	for e.seq >= cmdDepth && t.AtomicLoad64(e.page+completedOff)+cmdDepth <= e.seq {
		t.Pause(16)
	}
	ticket := Ticket(e.seq)
	e.seq++
	slot := e.cmdSlot(ticket)
	t.Store64(slot+cmdOp, op)
	t.Store64(slot+cmdA, a)
	t.Store64(slot+cmdB, b)
	t.Store64(slot+cmdN, n)
	e.req.Push(t, op, uint64(ticket))
	return ticket
}

// AllocAsync queues a device allocation.
func (e *Engine) AllocAsync(t *sim.Thread, size uint64) Ticket {
	return e.enqueue(t, OpAlloc, size, 0, 0)
}

// FreeAsync queues a device free.
func (e *Engine) FreeAsync(t *sim.Thread, addr uint64) Ticket {
	return e.enqueue(t, OpFree, addr, 0, 0)
}

// CopyAsync queues a DMA copy of n bytes.
func (e *Engine) CopyAsync(t *sim.Thread, dst, src, n uint64) Ticket {
	return e.enqueue(t, OpCopy, dst, src, n)
}

// CopyInAsync queues a copy into the buffer a pending AllocAsync will
// return (stream-ordered, so the allocation has completed by then).
func (e *Engine) CopyInAsync(t *sim.Thread, dst Ticket, src, n uint64) Ticket {
	return e.enqueue(t, OpCopyInT, uint64(dst), src, n)
}

// CopyOutAsync queues a copy out of a ticket-addressed buffer.
func (e *Engine) CopyOutAsync(t *sim.Thread, dst uint64, src Ticket, n uint64) Ticket {
	return e.enqueue(t, OpCopyOutT, dst, uint64(src), n)
}

// KernelTAsync queues a kernel over a ticket-addressed buffer.
func (e *Engine) KernelTAsync(t *sim.Thread, buf Ticket, n, flops uint64) Ticket {
	return e.enqueue(t, OpKernelT, uint64(buf), flops, n)
}

// FreeTAsync queues a free of a ticket-addressed buffer.
func (e *Engine) FreeTAsync(t *sim.Thread, buf Ticket) Ticket {
	return e.enqueue(t, OpFreeT, uint64(buf), 0, 0)
}

// resolve turns an alloc ticket into its buffer address (engine side;
// stream order guarantees the alloc already executed).
func (e *Engine) resolve(t *sim.Thread, ticket uint64) uint64 {
	return t.Load64(e.cmdSlot(Ticket(ticket)) + cmdResult)
}

// KernelAsync queues a kernel over a buffer: each 8-byte element is
// loaded, flops ALU ops run, and the result is stored back.
func (e *Engine) KernelAsync(t *sim.Thread, buf, n, flops uint64) Ticket {
	return e.enqueue(t, OpKernel, buf, flops, n)
}

// Wait blocks the application thread until ticket has completed.
func (e *Engine) Wait(t *sim.Thread, ticket Ticket) {
	for t.AtomicLoad64(e.page+completedOff) <= uint64(ticket) {
		t.Pause(16)
	}
}

// Result reads a completed operation's result word (e.g. OpAlloc's
// buffer address). Only valid until cmdDepth further ops are queued.
func (e *Engine) Result(t *sim.Thread, ticket Ticket) uint64 {
	return t.Load64(e.cmdSlot(ticket) + cmdResult)
}

// Sync waits for everything queued so far.
func (e *Engine) Sync(t *sim.Thread) {
	if e.seq > 0 {
		e.Wait(t, Ticket(e.seq-1))
	}
}

// --- engine-core side -------------------------------------------------------

// Serve is the engine core's daemon body. It first maps the device
// heap's metadata; the span list's sentinel is the first record.
func (e *Engine) Serve(t *sim.Thread) {
	e.pages = alloc.NewPageMap(t, true)
	e.recs = alloc.NewRecords(t, slRecBytes, 32, true)
	e.spans = alloc.NewSpans(t, e.recs.Alloc(t), &e.recs, &e.stats.SlabBytes)
	var completed uint64
	for {
		_, w1, ok := e.req.TryPop(t)
		if !ok {
			if t.Stopping() {
				return
			}
			t.Pause(32)
			continue
		}
		e.execute(t, Ticket(w1))
		completed++
		t.AtomicStore64(e.page+completedOff, completed)
	}
}

func (e *Engine) execute(t *sim.Thread, ticket Ticket) {
	slot := e.cmdSlot(ticket)
	op := t.Load64(slot + cmdOp)
	a := t.Load64(slot + cmdA)
	b := t.Load64(slot + cmdB)
	n := t.Load64(slot + cmdN)
	switch op {
	case OpAlloc:
		e.stats.Allocs++
		t.Store64(slot+cmdResult, e.deviceMalloc(t, a))
	case OpFree:
		e.stats.Frees++
		e.deviceFree(t, a)
	case OpFreeT:
		e.stats.Frees++
		e.deviceFree(t, e.resolve(t, a))
	case OpCopyInT:
		e.stats.Copies++
		e.stats.BytesCopied += n
		dst := e.resolve(t, a)
		for off := uint64(0); off < n; off += 8 {
			t.Store64(dst+off, t.Load64(b+off))
		}
	case OpCopyOutT:
		e.stats.Copies++
		e.stats.BytesCopied += n
		src := e.resolve(t, b)
		for off := uint64(0); off < n; off += 8 {
			t.Store64(a+off, t.Load64(src+off))
		}
	case OpKernelT:
		e.stats.Kernels++
		buf := e.resolve(t, a)
		for off := uint64(0); off < n; off += 8 {
			v := t.Load64(buf + off)
			t.Exec(int(b))
			t.Store64(buf+off, v*3+1)
		}
	case OpCopy:
		e.stats.Copies++
		e.stats.BytesCopied += n
		// The copy engine streams line-sized chunks through the engine
		// core (a coherent DMA).
		for off := uint64(0); off < n; off += 8 {
			t.Store64(a+off, t.Load64(b+off))
		}
	case OpKernel:
		e.stats.Kernels++
		for off := uint64(0); off < n; off += 8 {
			v := t.Load64(a + off)
			t.Exec(int(b))
			t.Store64(a+off, v*3+1)
		}
	default:
		panic(fmt.Sprintf("gpu: bad op %d", op))
	}
}

// --- device heap (single-threaded slab engine, NextGen style) --------------

// Slab record fields after the shared alloc.Rec* header: NextGen's
// segregated record (internal/core), a 16-bit index stack of up to 512
// free units after the fixed fields.
const (
	slClass    = alloc.RecClass
	slTop      = 40 // free units in the slab
	slCapacity = 48
	slStack    = 64
	slRecBytes = slStack + 2*512
)

func (e *Engine) deviceMalloc(t *sim.Thread, size uint64) uint64 {
	class, ok := e.sc.ClassFor(size)
	if !ok {
		pages := int((size + mem.PageSize - 1) >> mem.PageShift)
		return t.MmapHuge(pages) // large buffers map directly
	}
	rec := e.classCur[class]
	if rec == 0 || t.Load64(rec+slTop) == 0 {
		rec = 0
		// Rotate to another slab of the class with free blocks.
		for _, r := range e.classSlabs[class] {
			t.Exec(1)
			if t.Load64(r+slTop) > 0 {
				rec = r
				break
			}
		}
		if rec == 0 {
			rec = e.freshSlab(t, class)
		}
		e.classCur[class] = rec
	}
	top := t.Load64(rec + slTop)
	t.Store64(rec+slTop, top-1)
	idx := t.Load16(rec + slStack + (top-1)*2)
	return t.Load64(rec+alloc.RecBase) + idx*e.sc.Size(class)
}

// freshSlab carves a slab for class as NextGen's engine does: the span,
// the fixed fields, the index stack, and last the free count.
func (e *Engine) freshSlab(t *sim.Thread, class int) uint64 {
	pages := e.sc.SpanPages(class)
	rec := e.spans.Alloc(t, pages)
	e.pages.Register(t, rec)
	n := min(e.sc.ObjectsPerSpan(class, pages), 512)
	t.Store64(rec+slClass, uint64(class))
	t.Store64(rec+slCapacity, uint64(n))
	alloc.CarveIndexStack(t, rec+slStack, n)
	t.Store64(rec+slTop, uint64(n))
	e.classSlabs[class] = append(e.classSlabs[class], rec)
	return rec
}

func (e *Engine) deviceFree(t *sim.Thread, addr uint64) {
	rec := e.pages.Get(t, addr)
	if rec == 0 {
		// Directly mapped large buffer: leave it mapped (the stream test
		// workloads recycle via the slab classes).
		return
	}
	class := int(t.Load64(rec + slClass))
	t.Exec(3)
	idx := (addr - t.Load64(rec+alloc.RecBase)) / e.sc.Size(class)
	top := t.Load64(rec + slTop)
	t.Store16(rec+slStack+top*2, idx)
	t.Store64(rec+slTop, top+1)
}
