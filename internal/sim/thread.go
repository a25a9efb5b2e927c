package sim

import (
	"fmt"
	"iter"

	"nextgenmalloc/internal/cache"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/tlb"
)

// The micro-TLB is a host-side memoization of the software page walk
// (mem.AddressSpace.PageShiftAt + MustTranslate, two hash-map lookups in
// the seed engine) plus the frame pointer of the backing page. It is
// invisible to the simulated machine: the hardware TLB model is still
// consulted on every access and all PMU counters are unchanged. Entries
// are validated against the address-space epoch, which advances on every
// munmap, so a cached frame can never outlive its mapping.
const (
	mtlbBits = 7
	mtlbSize = 1 << mtlbBits
	mtlbMask = mtlbSize - 1
)

// mtlbEntry caches one page translation. vpn is stored +1 so the zero
// value never matches a real page.
type mtlbEntry struct {
	vpn   uint64
	frame *mem.Frame
	base  uint64       // physical page base
	cls   *pageClasses // the page's granule class array (region table)
	shift uint8        // translation granularity for the hardware TLB model
}

// class returns the address class of vaddr's granule (the entry must
// cover vaddr's page).
func (e *mtlbEntry) class(vaddr uint64) region.Class {
	return e.cls[(vaddr&mem.PageMask)>>granuleShift]
}

// Thread is one simulated hardware thread, pinned 1:1 to a core. All
// simulated work — compute, loads, stores, atomics, system calls — is
// issued through its methods, each of which advances the core clock and
// the PMU counters.
//
// Thread methods must only be called from the function passed to
// Machine.Spawn, on the goroutine the machine created for it.
type Thread struct {
	m      *Machine
	id     int
	name   string
	core   int
	fn     func(*Thread)
	daemon bool
	// mode says whether a wait round is being recorded or replayed
	// (warp.go); the script-capable ops (Load, Exec, Pause) check it, so
	// it sits in the struct's first line with the other per-op fields.
	mode   opMode
	tlb    *tlb.TLB      // this core's TLB (== m.tlbs[core])
	caches *cache.System // the shared hierarchy (== m.caches)

	clock        uint64
	instr        uint64
	atomics      uint64
	kernelCycles uint64

	// Coroutine plumbing: yield suspends the thread back to the
	// scheduler loop in Machine.Run; next resumes it with a fresh lease
	// already stored in t.lease. See Thread.start.
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	lease uint64
	done  bool
	// heapIdx is this thread's position in the scheduler's run heap.
	heapIdx int

	// Wait-loop scripts and parking (warp.go).
	script []scriptOp // the round being recorded
	prev   []scriptOp // the round recorded before it
	// Replay of a woken round's prefix: ops [replayAt, replayEnd) of
	// pk.ops, then the lease goes back to replayLease.
	replayAt, replayEnd int
	replayLease         uint64
	parked              bool
	pk                  parking

	mtlb      [mtlbSize]mtlbEntry
	mtlbEpoch uint64

	// lastLine is the line tag of this thread's previous memory access,
	// +1 so the zero value never matches. Only when the next access lands
	// on the same line is the O(1) SameLineFastClass probe worth attempting;
	// everything else goes straight to the full hierarchy walk.
	lastLine uint64
	// lastE memoizes the micro-TLB slot the previous scalar access
	// resolved through. The slot's vpn field self-validates: it changes
	// if the slot is reused for another page and zeroes when an epoch
	// flush clears the array, so a stale pointer can never mistranslate.
	lastE *mtlbEntry
}

// ID returns the thread's id (its spawn order).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Core returns the core the thread is pinned to.
func (t *Thread) Core() int { return t.core }

// Clock returns the thread's current cycle count.
func (t *Thread) Clock() uint64 { return t.clock }

// Instructions returns the thread's retired instruction count.
func (t *Thread) Instructions() uint64 { return t.instr }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Stopping reports whether the machine is shutting down (all non-daemon
// threads finished); daemon loops must poll this and return.
func (t *Thread) Stopping() bool { return t.m.stopping }

// start arms the thread's coroutine. The body does not run until the
// scheduler's first next() call, and every suspension point is an
// explicit yield in step — control transfer is a direct coroutine
// switch, not a channel rendezvous through the runtime scheduler.
func (t *Thread) start() {
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.fn(t)
	})
}

// step is called before every simulated operation; it suspends the
// thread back to the scheduler once the clock has passed the lease end.
func (t *Thread) step() {
	if t.clock <= t.lease {
		return
	}
	t.suspend()
}

// suspend yields to the scheduler. A replaying thread holds a zero
// lease, so an op that is not in its script lands here instead of
// running concretely.
func (t *Thread) suspend() {
	if t.mode == modeReplay {
		panic(fmt.Sprintf("sim: %s left its recorded wait round during replay", t.name))
	}
	t.yield(struct{}{})
}

// Exec retires n ALU instructions (1 cycle each — the in-order,
// IPC-1 model the paper's arithmetic uses).
func (t *Thread) Exec(n int) {
	if n <= 0 {
		return
	}
	if t.mode != modePlain || t.clock > t.lease {
		t.tickSlow(opExec, n)
		return
	}
	t.instr += uint64(n)
	t.clock += uint64(n)
}

// translate resolves vaddr through the per-thread micro-TLB, falling
// back to the software page walk on a miss. The returned entry is owned
// by the micro-TLB and valid until the next munmap.
func (t *Thread) translate(vaddr uint64) *mtlbEntry {
	if ep := t.m.as.Epoch(); ep != t.mtlbEpoch {
		t.mtlb = [mtlbSize]mtlbEntry{}
		t.mtlbEpoch = ep
	}
	vpn := vaddr >> mem.PageShift
	e := &t.mtlb[vpn&mtlbMask]
	if e.vpn != vpn+1 {
		shift := t.m.as.PageShiftAt(vaddr)
		paddr := t.m.as.MustTranslate(vaddr)
		*e = mtlbEntry{
			vpn:   vpn + 1,
			frame: t.m.phys.FrameFor(paddr),
			base:  paddr &^ uint64(mem.PageMask),
			cls:   t.m.regions.page(vaddr),
			shift: uint8(shift),
		}
	}
	return e
}

// access performs the TLB walk and cache access for one scalar memory
// operation and returns the translation entry (physical base + frame).
func (t *Thread) access(vaddr uint64, size int, isStore bool) *mtlbEntry {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		panic(fmt.Sprintf("sim: unsupported access size %d", size))
	}
	if vaddr&uint64(size-1) != 0 {
		panic(fmt.Sprintf("sim: unaligned %d-byte access at %#x by %s", size, vaddr, t.name))
	}
	t.step()
	t.instr++
	e := t.lastE
	if e == nil || vaddr>>mem.PageShift != e.vpn-1 || t.mtlbEpoch != t.m.as.Epoch() {
		e = t.translate(vaddr)
		t.lastE = e
	}
	paddr := e.base | vaddr&mem.PageMask
	tag := paddr >> cache.LineShift
	cls := e.class(vaddr)
	// Repeat hits on the thread's most recent line (the dominant access
	// pattern) resolve without walking either the TLB model or the cache
	// hierarchy; the model updates are identical to the full paths' hit
	// cases. Same line implies same page, so a TLB MRU hit is the
	// expected outcome; each helper backs off without side effects when
	// its precondition fails and the full path runs instead.
	var cyc uint64
	if tag+1 == t.lastLine {
		if !t.tlb.HitMRU(vaddr, isStore, uint(e.shift)) {
			cyc = t.tlb.AccessClass(vaddr, isStore, uint(e.shift), cls)
		}
		if hit, ok := t.caches.SameLineFastClass(t.core, tag, isStore, cls); ok {
			t.clock += cyc + hit
			return e
		}
	} else {
		t.lastLine = tag + 1
		cyc = t.tlb.AccessClass(vaddr, isStore, uint(e.shift), cls)
	}
	cyc += t.caches.AccessClass(t.core, paddr, isStore, cls)
	t.clock += cyc
	return e
}

// Load reads size bytes (1/2/4/8) at vaddr, little-endian.
func (t *Thread) Load(vaddr uint64, size int) uint64 {
	if t.mode != modePlain {
		return t.scriptLoad(vaddr, size)
	}
	e := t.access(vaddr, size, false)
	return e.frame.Load(vaddr&mem.PageMask, size)
}

// Store writes size bytes (1/2/4/8) at vaddr, little-endian.
func (t *Thread) Store(vaddr uint64, size int, val uint64) {
	e := t.access(vaddr, size, true)
	e.frame.Store(vaddr&mem.PageMask, size, val)
}

// Load8/16/64 and Store8/16/64 are sized conveniences.
func (t *Thread) Load8(a uint64) uint64  { return t.Load(a, 1) }
func (t *Thread) Load16(a uint64) uint64 { return t.Load(a, 2) }
func (t *Thread) Load64(a uint64) uint64 { return t.Load(a, 8) }

func (t *Thread) Store8(a, v uint64)  { t.Store(a, 1, v) }
func (t *Thread) Store16(a, v uint64) { t.Store(a, 2, v) }
func (t *Thread) Store64(a, v uint64) { t.Store(a, 8, v) }

// atomic performs the locked-RMW access pattern: an exclusive (write)
// access plus the serialization cost the paper cites as 67 cycles [3].
func (t *Thread) atomic(vaddr uint64) *mtlbEntry {
	e := t.access(vaddr, 8, true)
	t.clock += t.m.cfg.AtomicExtraCycles
	t.atomics++
	return e
}

// CAS64 is an atomic compare-and-swap on a 64-bit word, returning whether
// the swap happened.
func (t *Thread) CAS64(vaddr, old, new uint64) bool {
	e := t.atomic(vaddr)
	off := vaddr & mem.PageMask
	if e.frame.Load(off, 8) != old {
		return false
	}
	e.frame.Store(off, 8, new)
	return true
}

// FetchAdd64 atomically adds delta to the 64-bit word at vaddr and
// returns the previous value.
func (t *Thread) FetchAdd64(vaddr, delta uint64) uint64 {
	e := t.atomic(vaddr)
	off := vaddr & mem.PageMask
	cur := e.frame.Load(off, 8)
	e.frame.Store(off, 8, cur+delta)
	return cur
}

// Swap64 atomically exchanges the word at vaddr with v.
func (t *Thread) Swap64(vaddr, v uint64) uint64 {
	e := t.atomic(vaddr)
	off := vaddr & mem.PageMask
	cur := e.frame.Load(off, 8)
	e.frame.Store(off, 8, v)
	return cur
}

// AtomicLoad64 is an acquire load (plain load plus a light fence on this
// memory model).
func (t *Thread) AtomicLoad64(vaddr uint64) uint64 {
	return t.Load64(vaddr)
}

// AtomicStore64 is a release store.
func (t *Thread) AtomicStore64(vaddr, v uint64) {
	t.Store64(vaddr, v)
}

// Pause models a spin-wait hint (cheap stall without an instruction
// fetch storm).
func (t *Thread) Pause(cycles int) {
	if t.mode != modePlain || t.clock > t.lease {
		t.tickSlow(opPause, cycles)
		return
	}
	t.clock += uint64(cycles)
}

// blockStep performs the model updates for one word of a block access:
// scheduler step, instruction retire, TLB charge, cache charge. When the
// word lands on the line the core touched last and that line is still
// L1-resident in an owned state, the cache update takes the O(1)
// same-line path; the simulated state transitions and counters are
// identical either way.
func (t *Thread) blockStep(vaddr uint64, e *mtlbEntry, isStore bool) {
	t.step()
	t.instr++
	paddr := e.base | vaddr&mem.PageMask
	tag := paddr >> cache.LineShift
	cls := e.class(vaddr)
	var cyc uint64
	if tag+1 == t.lastLine {
		if !t.tlb.HitMRU(vaddr, isStore, uint(e.shift)) {
			cyc = t.tlb.AccessClass(vaddr, isStore, uint(e.shift), cls)
		}
		if hit, ok := t.caches.SameLineFastClass(t.core, tag, isStore, cls); ok {
			t.clock += cyc + hit
			return
		}
	} else {
		t.lastLine = tag + 1
		cyc = t.tlb.AccessClass(vaddr, isStore, uint(e.shift), cls)
	}
	cyc += t.caches.AccessClass(t.core, paddr, isStore, cls)
	t.clock += cyc
}

// blockBatch tries to retire several consecutive 8-byte words of a block
// access in one step. It succeeds only when every word would take the
// same-line fast path AND none of them would yield to the scheduler:
// the batch stops at the line boundary, the end of the block, and the
// lease boundary, so the thread suspends at exactly the same points a
// word-at-a-time walk would. Returns the number of words retired (0 =
// caller must take the per-word path).
func (t *Thread) blockBatch(a uint64, e *mtlbEntry, rem int, isStore bool) int {
	if t.clock > t.lease {
		return 0 // the next step() must yield
	}
	paddr := e.base | a&mem.PageMask
	tag := paddr >> cache.LineShift
	if tag+1 != t.lastLine {
		return 0
	}
	k := int(cache.LineSize-paddr&(cache.LineSize-1)) / 8
	if w := rem / 8; w < k {
		k = w
	}
	// Word j (0-based) yields iff clock + j*hit > lease; cap k so no
	// batched word crosses that boundary.
	hit := t.caches.L1HitCycles()
	if avail := t.lease - t.clock; hit > 0 && avail/hit < uint64(k-1) {
		k = int(avail/hit) + 1
	}
	if k <= 1 {
		return 0
	}
	if !t.tlb.PageResidentMRU(a, uint(e.shift)) {
		return 0
	}
	// The whole batch is attributed to the first word's class; a batch
	// never crosses a line, so at 16-byte granularity at most the line's
	// tail granule could differ — workload block touches are in practice
	// class-uniform.
	hitCyc, ok := t.caches.SameLineBatchClass(t.core, tag, isStore, uint64(k), e.class(a))
	if !ok {
		return 0
	}
	t.tlb.AccessBatchMRU(isStore, uint64(k))
	t.instr += uint64(k)
	t.clock += uint64(k) * hitCyc
	return k
}

// blockTail rounds a sub-word remainder down to a power-of-two access
// size (matching the natural alignment of the word walk).
func blockTail(rem int) int {
	sz := rem
	for sz&(sz-1) != 0 {
		sz--
	}
	return sz
}

// BlockWrite touches n bytes starting at vaddr with stores, one per
// 8-byte word (vectorized: one instruction per word, cache access per
// word). Used for user-data writes and memset-like work.
func (t *Thread) BlockWrite(vaddr uint64, n int, pattern uint64) {
	var e *mtlbEntry
	for off := 0; off < n; {
		sz := 8
		if n-off < 8 {
			sz = blockTail(n - off)
		}
		a := vaddr + uint64(off)
		if a&uint64(sz-1) != 0 {
			panic(fmt.Sprintf("sim: unaligned %d-byte access at %#x by %s", sz, a, t.name))
		}
		if e == nil || a>>mem.PageShift != e.vpn-1 || t.mtlbEpoch != t.m.as.Epoch() {
			e = t.translate(a)
		}
		if sz == 8 {
			if k := t.blockBatch(a, e, n-off, true); k > 0 {
				for j := 0; j < k; j++ {
					e.frame.Store((a+uint64(j)*8)&mem.PageMask, 8, pattern)
				}
				off += k * 8
				continue
			}
		}
		t.blockStep(a, e, true)
		e.frame.Store(a&mem.PageMask, sz, pattern)
		off += 8 // word stride even for the rounded-down tail access
	}
}

// BlockRead touches n bytes starting at vaddr with loads and returns a
// checksum (so the compiler-level fiction of "the program uses the
// data" holds in the simulation too).
func (t *Thread) BlockRead(vaddr uint64, n int) uint64 {
	var sum uint64
	var e *mtlbEntry
	for off := 0; off < n; {
		sz := 8
		if n-off < 8 {
			sz = blockTail(n - off)
		}
		a := vaddr + uint64(off)
		if a&uint64(sz-1) != 0 {
			panic(fmt.Sprintf("sim: unaligned %d-byte access at %#x by %s", sz, a, t.name))
		}
		if e == nil || a>>mem.PageShift != e.vpn-1 || t.mtlbEpoch != t.m.as.Epoch() {
			e = t.translate(a)
		}
		if sz == 8 {
			if k := t.blockBatch(a, e, n-off, false); k > 0 {
				for j := 0; j < k; j++ {
					sum += e.frame.Load((a+uint64(j)*8)&mem.PageMask, 8)
				}
				off += k * 8
				continue
			}
		}
		t.blockStep(a, e, false)
		sum += e.frame.Load(a&mem.PageMask, sz)
		off += 8 // word stride even for the rounded-down tail access
	}
	return sum
}

// --- System calls -------------------------------------------------------

// Mmap maps npages anonymous pages, charging the kernel-crossing cost.
func (t *Thread) Mmap(npages int) uint64 {
	t.step()
	base, cyc := t.m.kernel.Mmap(npages)
	t.instr++
	t.clock += cyc
	t.kernelCycles += cyc
	return base
}

// MmapHuge maps npages anonymous pages on 2 MiB hugepages (rounded up),
// the mapping hugepage-aware allocators use for their chunk pools.
func (t *Thread) MmapHuge(npages int) uint64 {
	t.step()
	base, cyc := t.m.kernel.MmapHuge(npages)
	t.instr++
	t.clock += cyc
	t.kernelCycles += cyc
	return base
}

// MmapMeta maps npages pages in the dedicated metadata region.
func (t *Thread) MmapMeta(npages int) uint64 {
	t.step()
	base, cyc := t.m.kernel.MmapMeta(npages)
	t.instr++
	t.clock += cyc
	t.kernelCycles += cyc
	return base
}

// Munmap unmaps npages pages at base.
func (t *Thread) Munmap(base uint64, npages int) {
	t.step()
	cyc := t.m.kernel.Munmap(base, npages)
	t.instr++
	t.clock += cyc
	t.kernelCycles += cyc
	t.m.tlbs[t.core].Invalidate()
}

// Sbrk grows the program break by npages pages and returns the old break.
func (t *Thread) Sbrk(npages int) uint64 {
	t.step()
	base, cyc := t.m.kernel.SbrkGrow(npages)
	t.instr++
	t.clock += cyc
	t.kernelCycles += cyc
	return base
}

// Counters returns this thread's core counters as of now (usable
// mid-run by the owning thread).
func (t *Thread) Counters() Counters {
	return t.m.CoreCounters(t.core)
}

// LineSize re-exports the cache line size for layout computations.
const LineSize = cache.LineSize
