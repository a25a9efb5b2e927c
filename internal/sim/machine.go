package sim

import (
	"fmt"

	"nextgenmalloc/internal/cache"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/tlb"
)

// Machine is one simulated multicore computer: a set of cores over a
// shared cache system and one address space, plus a kernel.
//
// Exactly one simulated thread executes at a time (leases are handed out
// by a deterministic scheduler), so the simulation is single-writer and
// bit-reproducible for a given seed while still modelling fine-grained
// interleaving of the threads' memory operations.
type Machine struct {
	cfg     Config
	phys    *mem.Physical
	as      *mem.AddressSpace
	kernel  *mem.Kernel
	caches  *cache.System
	tlbs    []*tlb.TLB
	threads []*Thread
	regions *RegionTable

	coreBusy     []bool   // a live thread is pinned here
	coreInstr    []uint64 // retired instructions per core (incl. finished threads)
	coreClock    []uint64 // committed clock per core (finished threads)
	coreAtomics  []uint64
	coreKernelCy []uint64

	running  bool
	stopping bool

	// probe, when non-nil, is invoked from the scheduler loop after every
	// lease with the current wall clock. It runs host-side between thread
	// resumptions: it may read counters and host state but must not issue
	// simulated operations, so an armed probe cannot perturb the clock,
	// the scheduling order, or any PMU counter.
	//
	// Time warp (Config.Warp) never changes the probe cadence: a parked
	// thread's leases are still granted one by one, each advancing its
	// clock arithmetically to where the stepped lease would leave it, so
	// probes fire after the same leases and see the same wall clocks
	// with warp on and off. A parked thread's loads are charged to its
	// core's cache and TLB only when they are read (CoreCounters,
	// CoreClassCounters) or the thread wakes, so the counters a probe
	// reads are exact when read, not after every lease.
	probe func(wall uint64)

	// heap is the run queue: an indexed min-heap of live threads ordered
	// by (clock, id), so the scheduler picks the next thread and its
	// lease base in O(log n) instead of scanning every thread per lease.
	heap []*Thread

	// parked holds the threads parked in a proven-steady wait loop
	// (warp.go), and horizon the lowest of their horizons (^0 = none).
	parked  []*Thread
	horizon uint64
	// settles counts settle calls: host state a wait round reads may
	// change only at one.
	settles uint64

	warp WarpStats
}

// WarpStats is the machine-wide time-warp ledger: how much host stepping
// the warp fast path avoided. Purely host-side observation — warped
// cycles are simulated cycles that were accounted without being stepped.
type WarpStats struct {
	// Windows counts parked-lease advances that completed at least one
	// whole round.
	Windows uint64
	// Rounds counts wait-loop rounds completed arithmetically.
	Rounds uint64
	// CyclesWarped is the total simulated cycles advanced without
	// stepping (each also appears in the owning core's Cycles, exactly
	// as if stepped).
	CyclesWarped uint64
	// LargestSkip is the largest single advance, in cycles.
	LargestSkip uint64
	// Parks counts threads parking in a proven-steady wait loop, and
	// DaemonParks the parks of daemon threads (offload servers) among
	// them.
	Parks, DaemonParks uint64
	// ParkedLeases counts leases served to parked threads without
	// resuming them (including the rest of the lease they parked in).
	ParkedLeases uint64
	// FullChecks counts the parked leases that re-checked every watched
	// word's L1 way, L1 TLB way and class, not only its value: those
	// after the core's L1, the region marks or the address space changed
	// since the park or the last full check.
	FullChecks uint64
}

// WarpStats returns the time-warp ledger (zero when Config.Warp is off
// or no wait loop reached a steady state).
func (m *Machine) WarpStats() WarpStats { return m.warp }

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	phys := mem.NewPhysical()
	as := mem.NewAddressSpace(phys)

	base := cfg.Profile.Cache
	perCore := make([]cache.Config, cfg.Cores)
	tlbs := make([]*tlb.TLB, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		p := cfg.Profile
		if ov, ok := cfg.CoreOverrides[i]; ok {
			p = ov
		}
		perCore[i] = p.Cache
		tc := p.TLB
		if tc.L2Entries == 0 {
			// A single-level TLB still needs a (degenerate) second level;
			// give it one entry group that never hits by using the walk
			// cost for everything past L1.
			tc.L2Entries = tc.L1Ways // minimal, effectively useless
			tc.L2Ways = tc.L1Ways
		}
		tlbs[i] = tlb.New(tc)
	}

	m := &Machine{
		cfg:          cfg,
		phys:         phys,
		as:           as,
		kernel:       mem.NewKernel(as, cfg.Syscall),
		caches:       cache.NewSystemHetero(base, perCore),
		tlbs:         tlbs,
		regions:      newRegionTable(),
		coreBusy:     make([]bool, cfg.Cores),
		coreInstr:    make([]uint64, cfg.Cores),
		coreClock:    make([]uint64, cfg.Cores),
		coreAtomics:  make([]uint64, cfg.Cores),
		coreKernelCy: make([]uint64, cfg.Cores),
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Kernel returns the simulated kernel.
func (m *Machine) Kernel() *mem.Kernel { return m.kernel }

// AddressSpace returns the process address space.
func (m *Machine) AddressSpace() *mem.AddressSpace { return m.as }

// Cores returns the number of cores.
func (m *Machine) Cores() int { return m.cfg.Cores }

// Spawn registers a simulated thread pinned to core. All threads must be
// spawned before Run. A daemon thread (see SpawnDaemon) does not keep
// the machine alive.
func (m *Machine) Spawn(name string, core int, fn func(*Thread)) *Thread {
	return m.spawn(name, core, fn, false)
}

// SpawnDaemon registers a service thread (e.g. the NextGen allocator
// core). When every non-daemon thread has finished, the machine flips
// Stopping; daemons must poll Thread.Stopping and return.
func (m *Machine) SpawnDaemon(name string, core int, fn func(*Thread)) *Thread {
	return m.spawn(name, core, fn, true)
}

func (m *Machine) spawn(name string, core int, fn func(*Thread), daemon bool) *Thread {
	if m.running {
		panic("sim: Spawn after Run")
	}
	if core < 0 || core >= m.cfg.Cores {
		panic(fmt.Sprintf("sim: core %d out of range", core))
	}
	if m.coreBusy[core] {
		panic(fmt.Sprintf("sim: core %d already has a thread", core))
	}
	m.coreBusy[core] = true
	t := &Thread{
		m:      m,
		id:     len(m.threads),
		name:   name,
		core:   core,
		fn:     fn,
		daemon: daemon,
		tlb:    m.tlbs[core],
		caches: m.caches,
	}
	m.threads = append(m.threads, t)
	return t
}

// SetProbe installs the scheduler-loop observation hook (see the probe
// field). Install before Run; pass nil to disarm.
func (m *Machine) SetProbe(fn func(wall uint64)) {
	if m.running {
		panic("sim: SetProbe after Run")
	}
	m.probe = fn
}

// AddProbe chains fn onto any probe already installed, so independent
// observers (the timeline sampler, the fault injector) can share the
// scheduler hook. Probes run in installation order under the same
// contract as SetProbe: host-side observation only.
func (m *Machine) AddProbe(fn func(wall uint64)) {
	if m.running {
		panic("sim: AddProbe after Run")
	}
	if prev := m.probe; prev != nil {
		m.probe = func(wall uint64) {
			prev(wall)
			fn(wall)
		}
		return
	}
	m.probe = fn
}

// Run executes every spawned thread to completion, interleaving them
// deterministically: the thread with the lowest core clock always runs
// next, holding a lease until just past the next-lowest clock plus the
// configured quantum. Run returns the final wall-clock (the maximum core
// clock reached).
//
// Threads run as coroutines (iter.Pull), so a lease handoff is a direct
// stack switch that never enters the Go runtime scheduler — an order of
// magnitude cheaper on the host than the channel park/unpark a
// goroutine-per-thread design pays, with the exact same deterministic
// decision sequence. A side effect is that a panic in simulated code
// now unwinds through Run on the caller's goroutine instead of killing
// a detached goroutine.
func (m *Machine) Run() uint64 {
	if m.running {
		panic("sim: Run called twice")
	}
	m.running = true
	for _, t := range m.threads {
		t.start()
	}

	// Build the run heap: live threads ordered by (clock, id). The root
	// is always the unique scheduling minimum — the same thread the old
	// one-pass scan picked — and the lease base (lowest clock among the
	// others) is the smaller of the root's children: the heap property
	// orders parent clocks below descendant clocks, so every non-root
	// thread's clock is bounded below by a child of the root.
	m.heap = make([]*Thread, len(m.threads))
	copy(m.heap, m.threads)
	for i, t := range m.heap {
		t.heapIdx = i
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	userCount := 0
	for _, t := range m.threads {
		if !t.daemon {
			userCount++
		}
	}

	m.horizon = ^uint64(0)
	var wall uint64
	for len(m.heap) > 0 {
		if userCount == 0 && !m.stopping {
			// Parked daemons read Stopping: settle them before it flips.
			m.settle()
			m.stopping = true
		}
		t := m.heap[0]
		lease := ^uint64(0)
		if len(m.heap) > 1 {
			lease = m.heap[1].clock
			if len(m.heap) > 2 && m.heap[2].clock < lease {
				lease = m.heap[2].clock
			}
		}
		// Lease until just past the next-lowest clock.
		if lease != ^uint64(0) {
			lease += m.cfg.Quantum
		}
		t.lease = lease
		if (t.parked && m.advance(t)) || m.resume(t) {
			// The lease only ever moves the root's clock forward, so a
			// single sift-down restores the heap.
			m.siftDown(0)
		} else {
			t.done = true
			m.retire(t)
			last := len(m.heap) - 1
			m.heapSwap(0, last)
			m.heap[last] = nil
			m.heap = m.heap[:last]
			if last > 0 {
				m.siftDown(0)
			}
			if !t.daemon {
				userCount--
			}
		}
		if t.clock > wall {
			wall = t.clock
		}
		if wall >= m.horizon {
			m.settleWall(wall)
		}
		if m.probe != nil {
			m.probe(wall)
		}
	}
	return wall
}

// resume runs t's coroutine through its lease, serving the rest of the
// lease arithmetically whenever t parks; it reports false once t's body
// has returned.
func (m *Machine) resume(t *Thread) bool {
	for {
		if _, more := t.next(); !more {
			return false
		}
		if !t.parked || m.advance(t) {
			return true
		}
	}
}

// heapLess orders the run heap by (clock, id) — the scheduler's total
// order (ids are unique, so there are no equal keys).
func (m *Machine) heapLess(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

func (m *Machine) heapSwap(i, j int) {
	h := m.heap
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (m *Machine) siftDown(i int) {
	n := len(m.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && m.heapLess(r, c) {
			c = r
		}
		if !m.heapLess(c, i) {
			return
		}
		m.heapSwap(i, c)
		i = c
	}
}

// retire folds a finished thread's private counters into the per-core
// totals and frees its core.
func (m *Machine) retire(t *Thread) {
	m.coreInstr[t.core] += t.instr
	if t.clock > m.coreClock[t.core] {
		m.coreClock[t.core] = t.clock
	}
	m.coreAtomics[t.core] += t.atomics
	m.coreKernelCy[t.core] += t.kernelCycles
	m.coreBusy[t.core] = false
}

// Stopping reports whether all non-daemon threads have finished.
func (m *Machine) Stopping() bool { return m.stopping }

// CoreCounters returns the PMU snapshot for one core. It may be called
// after Run, or mid-run by the owning thread (live threads' in-flight
// counts are included).
func (m *Machine) CoreCounters(core int) Counters {
	m.chargeCore(core)
	cs := m.caches.Stats(core)
	ts := m.tlbs[core].Stats()
	c := Counters{
		Cycles:          m.coreClock[core],
		Instructions:    m.coreInstr[core],
		Loads:           cs.Loads,
		Stores:          cs.Stores,
		L1Misses:        cs.L1Misses,
		L2Misses:        cs.L2Misses,
		LLCLoadMisses:   cs.LLCLoadMisses,
		LLCStoreMisses:  cs.LLCStoreMisses,
		DTLBLoadMisses:  ts.LoadMisses,
		DTLBStoreMisses: ts.StoreMisses,
		STLBHits:        ts.STLBHits,
		AtomicOps:       m.coreAtomics[core],
		KernelCycles:    m.coreKernelCy[core],
		Invalidations:   cs.Invalidations,
		DirtyTransfers:  cs.DirtyTransfers,
	}
	// Include live threads still pinned to this core.
	for _, t := range m.threads {
		if t.core == core && !t.done {
			c.Cycles = max(c.Cycles, t.clock)
			c.Instructions += t.instr
			c.AtomicOps += t.atomics
			c.KernelCycles += t.kernelCycles
		}
	}
	return c
}

// TotalCounters sums the counters of every core that executed anything;
// Cycles is the sum of active-core cycles (how perf's task-clock-based
// totals behave in the paper's tables).
func (m *Machine) TotalCounters() Counters {
	var sum Counters
	for core := 0; core < m.cfg.Cores; core++ {
		c := m.CoreCounters(core)
		if c.Instructions == 0 {
			continue
		}
		sum.Add(c)
	}
	return sum
}
