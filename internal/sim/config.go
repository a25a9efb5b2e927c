// Package sim is the execution-driven multicore simulator that everything
// else runs on: cores with private caches and TLBs, a shared LLC with
// directory coherence, a deterministic cooperative scheduler, and a
// Thread API through which allocators and workloads issue every
// instruction and memory access they perform.
//
// The paper's evaluation is a set of PMU counter tables; this package is
// the PMU. Cycles, instructions, LLC-load/store-misses and
// dTLB-load/store-misses are accumulated per core exactly as perf would
// attribute them.
package sim

import (
	"nextgenmalloc/internal/cache"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/tlb"
)

// CoreProfile selects the private-cache geometry and memory latency of a
// core. The paper's §3.2 asks whether the allocator's "room" should be a
// big general-purpose core or a small near-memory core; these profiles
// are that knob.
type CoreProfile struct {
	Cache cache.Config
	TLB   tlb.Config
}

// BigCoreProfile is a contemporary out-of-order server core.
func BigCoreProfile() CoreProfile {
	return CoreProfile{Cache: cache.DefaultConfig(), TLB: tlb.DefaultConfig()}
}

// NearMemoryProfile is a small in-order core stacked near DRAM: a tiny
// L1, no L2, and much lower memory latency (paper §3.2: "a small (micro)
// cache for buffering metadata", "lower memory access latencies").
func NearMemoryProfile() CoreProfile {
	c := cache.DefaultConfig()
	c.L1Size = 8 << 10
	c.L1Ways = 4
	c.L2Size = 0
	c.MemCycles = 80
	t := tlb.DefaultConfig()
	t.L1Entries = 32
	t.L2Entries = 0
	return CoreProfile{Cache: c, TLB: t}
}

// Config describes a machine.
type Config struct {
	// Cores is the number of cores (default 16, the paper's AWS-A1 box).
	Cores int
	// Profile is the default core profile.
	Profile CoreProfile
	// CoreOverrides substitutes profiles for specific core IDs.
	CoreOverrides map[int]CoreProfile
	// Syscall is the kernel crossing cost model.
	Syscall mem.SyscallCosts
	// AtomicExtraCycles is added on top of the cache access for a locked
	// RMW; with the 4-cycle L1 hit this lands on the paper's 67-cycle
	// Atomic Read-Modify-Write figure [3].
	AtomicExtraCycles uint64
	// FenceCycles is the cost of a full memory barrier.
	FenceCycles uint64
	// Quantum is the scheduler lease slack in cycles; smaller values
	// interleave threads more finely at higher simulation cost.
	Quantum uint64
	// Warp enables the time-warp fast path for declared wait loops
	// (Thread.WarpLoop): once a wait round is observed to be steady, the
	// remaining rounds that fit inside the current lease are applied
	// arithmetically instead of being executed on the host. Every
	// counter, clock, and scheduling decision is bit-identical either
	// way — warp only removes host work, never simulated work — so the
	// golden suite runs with it on. The zero value (off) preserves the
	// fully-stepped engine for A/B verification.
	Warp bool
}

// DefaultConfig mirrors the paper's 16-core evaluation machine.
func DefaultConfig() Config {
	return Config{
		Cores:             16,
		Profile:           BigCoreProfile(),
		Syscall:           mem.DefaultSyscallCosts(),
		AtomicExtraCycles: 63,
		FenceCycles:       20,
		// 64-cycle leases keep cross-core event skew below the LLC
		// round-trip time, so polling cores observe requests with
		// realistic latency (coarser leases would inflate every
		// cross-core interaction by the lease length).
		Quantum: 64,
		Warp:    true,
	}
}

// ScaledConfig is the experiment machine: the cache and TLB capacities
// are scaled down by ~4x so that the scaled-down workloads (hundreds of
// thousands of allocator calls instead of the paper's 2.8e8, tens of MB
// of heap instead of GBs) exert the same *relative* pressure on the
// hierarchy that the full-size workloads exert on the full-size
// hierarchy. Latencies are unchanged. This is the standard scaling
// methodology for sampled simulation; EXPERIMENTS.md records it with
// every table.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	cfg.Profile.Cache.L1Size = 8 << 10
	cfg.Profile.Cache.L2Size = 32 << 10
	cfg.Profile.Cache.LLCSize = 1 << 20
	cfg.Profile.TLB.L1Entries = 32
	cfg.Profile.TLB.L2Entries = 256
	cfg.Profile.TLB.L2Ways = 8
	return cfg
}

// Counters is the PMU snapshot for one core (or a sum over cores).
type Counters struct {
	Cycles          uint64
	Instructions    uint64
	Loads           uint64
	Stores          uint64
	L1Misses        uint64
	L2Misses        uint64
	LLCLoadMisses   uint64
	LLCStoreMisses  uint64
	DTLBLoadMisses  uint64
	DTLBStoreMisses uint64
	STLBHits        uint64
	AtomicOps       uint64
	Invalidations   uint64
	DirtyTransfers  uint64
	KernelCycles    uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Cycles += o.Cycles
	c.Instructions += o.Instructions
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.L1Misses += o.L1Misses
	c.L2Misses += o.L2Misses
	c.LLCLoadMisses += o.LLCLoadMisses
	c.LLCStoreMisses += o.LLCStoreMisses
	c.DTLBLoadMisses += o.DTLBLoadMisses
	c.DTLBStoreMisses += o.DTLBStoreMisses
	c.STLBHits += o.STLBHits
	c.AtomicOps += o.AtomicOps
	c.Invalidations += o.Invalidations
	c.DirtyTransfers += o.DirtyTransfers
	c.KernelCycles += o.KernelCycles
}

// Sub returns c minus o field-wise (for interval measurements).
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Cycles:          c.Cycles - o.Cycles,
		Instructions:    c.Instructions - o.Instructions,
		Loads:           c.Loads - o.Loads,
		Stores:          c.Stores - o.Stores,
		L1Misses:        c.L1Misses - o.L1Misses,
		L2Misses:        c.L2Misses - o.L2Misses,
		LLCLoadMisses:   c.LLCLoadMisses - o.LLCLoadMisses,
		LLCStoreMisses:  c.LLCStoreMisses - o.LLCStoreMisses,
		DTLBLoadMisses:  c.DTLBLoadMisses - o.DTLBLoadMisses,
		DTLBStoreMisses: c.DTLBStoreMisses - o.DTLBStoreMisses,
		STLBHits:        c.STLBHits - o.STLBHits,
		AtomicOps:       c.AtomicOps - o.AtomicOps,
		Invalidations:   c.Invalidations - o.Invalidations,
		DirtyTransfers:  c.DirtyTransfers - o.DirtyTransfers,
		KernelCycles:    c.KernelCycles - o.KernelCycles,
	}
}

// MPKI returns misses per kilo-instruction for a counter value.
func MPKI(misses, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(instructions)
}
