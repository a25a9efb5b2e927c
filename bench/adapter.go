package main

// adapter.go is the only file in bench/ that imports internal/*. Every
// type, field and function the benchmark reads from the program under
// test is named here (and listed in README.md, "Frozen surface"), so a
// later refactor that may not edit bench/ knows exactly what has to keep
// compiling. It holds no logic: aliases, constructors and parameter
// blocks only.

import (
	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/cache"
	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/model"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/timeline"
	"nextgenmalloc/internal/tlb"
	"nextgenmalloc/internal/workload"
)

type (
	// alloc
	Allocator  = alloc.Allocator
	Flusher    = alloc.Flusher
	AllocStats = alloc.Stats

	// sim
	Thread         = sim.Thread
	Machine        = sim.Machine
	Counters       = sim.Counters
	ClassBreakdown = sim.ClassBreakdown
	WaitSpec       = sim.WaitSpec

	// harness
	Options  = harness.Options
	Result   = harness.Result
	Workload = workload.Workload

	// telemetry carried by Result
	RingStats       = ring.Stats
	ResilienceStats = core.ResilienceStats
	FailoverStats   = core.FailoverStats
	FaultStats      = fault.Stats
	OffloadSpan     = timeline.Span
	RequestSpan     = slo.Span

	// layers driven directly by the host microbenchmarks
	CacheSystem = cache.System
	TLB         = tlb.TLB
	Physical    = mem.Physical
	Ring        = ring.SPSC
)

// classicKinds are the Figure 1 / Table 1 allocators in the paper's
// column order.
var classicKinds = harness.ClassicKinds

// Geometry the host microbenchmarks stride by.
const (
	lineShift = cache.LineShift
	pageShift = mem.PageShift
)

// opMalloc is the offload span kind of a synchronous malloc round trip.
const opMalloc = timeline.OpMalloc

// regionClasses names Result.Classes' indices in order.
var regionClasses = func() []string {
	var names []string
	for _, c := range region.Classes() {
		names = append(names, c.String())
	}
	return names
}()

func runE(opt Options) (Result, error) { return harness.RunE(opt) }

// xalancFigure1 is the Figure 1 / Table 1 xalanc trace.
func xalancFigure1(ops int, seed uint64) Workload {
	w := workload.DefaultXalanc(ops)
	w.Seed = seed
	return w
}

// xalancTable3 is the same generator at the paper's Table 3 allocation
// density (experiments.table3Xalanc).
func xalancTable3(ops int, seed uint64) Workload {
	w := workload.DefaultXalanc(ops)
	w.ComputePerOp = 360
	w.ChaseClusters = 16
	w.ChaseEvery = 3
	w.Seed = seed
	return w
}

func xmalloc(threads, opsPerThread int, seed uint64) Workload {
	return &workload.Xmalloc{NThreads: threads, OpsPerThread: opsPerThread, TouchBytes: 128, Seed: seed}
}

// service is the open-loop request server: one request per gapCycles per
// worker, latency timed from the due arrival. Two always-on interactive
// tenants and unbatched arrivals; README.md ("service_failover") records
// why the tenant mix and burst length are what they are.
func service(workers, requestsPerWorker int, gapCycles, seed uint64) Workload {
	return &workload.Service{
		NWorkers:          workers,
		RequestsPerWorker: requestsPerWorker,
		Tenants:           2,
		MeanGapCycles:     gapCycles,
		BurstLen:          1,
		Seed:              seed,
	}
}

// sloOptions arms the per-tenant tracker with room for every raw span.
func sloOptions(spanCap int) *slo.Options {
	o := slo.DefaultOptions()
	o.SpanCap = spanCap
	return &o
}

// shardOutage stalls shard 0 for stallCycles every periodCycles, first at
// cycle 200 000 (experiments.failoverKillStart).
func shardOutage(stallCycles, periodCycles uint64) []fault.Plan {
	return []fault.Plan{{Seed: 1, StallStart: 200000, StallCycles: stallCycles, StallPeriod: periodCycles, Shard: 1}}
}

// failoverResilience is experiments.failoverResilience(true): a ~324k-cycle
// retry ladder, then re-home to a healthy shard on the first abandoned
// request.
func failoverResilience() *core.Resilience {
	return &core.Resilience{
		Enabled:         true,
		TimeoutCycles:   100000,
		MaxRetries:      2,
		BackoffCycles:   8000,
		FallbackAfter:   1,
		ProbeCycles:     100000,
		MaxRequestBytes: 1 << 24,
		FailoverAfter:   1,
	}
}

// breakevenMissesPerCall is the paper's §4.1 break-even (1.25).
func breakevenMissesPerCall() float64 { return model.PaperInputs().BreakEvenMissReduction() }

// Constructors for the host microbenchmarks (layers.go).

func newCacheSystem(llcBytes int) *CacheSystem {
	cfg := cache.DefaultConfig()
	cfg.LLCSize = llcBytes
	return cache.NewSystem(cfg, 4)
}

func newTLB() *TLB { return tlb.New(tlb.DefaultConfig()) }

func newPhysical() *Physical { return mem.NewPhysical() }

func newMachine(cores int) *Machine {
	cfg := sim.DefaultConfig()
	cfg.Cores = cores
	return sim.New(cfg)
}

func newRing(base uint64, slots int) *Ring { return ring.New(base, slots) }

func ringPages(slots int) int { return mem.PagesFor(uint64(ring.BytesFor(slots))) }
