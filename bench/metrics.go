package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric. BENCHMARK.json repeats name, unit,
// direction and bound (bench_test.go keeps the two in step); moves is the
// prediction written down before measuring: which end-to-end metric, on
// which workload, the layer metric should move.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: share of the base by which it may worsen
	host   bool    // measured on the host clock (noisy), not the simulated one
	moves  string
	value  func(*ledger) float64
	// perRep, for a host metric with one reading per timed rep, replaces
	// value: the metric is the median reading, and the readings' spread
	// decides whether it is resolved.
	perRep func(*ledger, repHost) float64
}

// eval returns the metric's value and, for perRep metrics, the readings
// behind it.
func (d metricDef) eval(l *ledger) (float64, []float64) {
	if d.perRep == nil {
		return d.value(l), nil
	}
	reps := l.perRep(func(h repHost) float64 { return d.perRep(l, h) })
	return median(reps), reps
}

// unresolvedSpread is the max/min over a host metric's readings above
// which it is reported as unresolved, never as a pass.
const unresolvedSpread = 1.25

func spreadOf(reps []float64) float64 {
	if lo := minOf(reps); lo > 0 {
		return maxOf(reps) / lo
	}
	return 0
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// ratio divides saturating: 0 when there is nothing to divide by. Every
// derived number goes through it or through sat, never through report
// text (see README.md, "Seen while building").
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func pct(num, den uint64) float64 { return math.Min(100, 100*ratio(num, den)) }

// sat is a - b, floored at 0.
func sat(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

func sum(v []uint64) (s uint64) {
	for _, x := range v {
		s += x
	}
	return s
}

func sorted(v []uint64) []uint64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spanLedger is what the wrapped rep saw at the alloc.Allocator boundary.
type spanLedger struct {
	ops          uint64
	totalCycles  uint64
	totalMisses  uint64
	mallocDur    []uint64 // ascending
	freeDur      []uint64 // ascending
	allocCycles  uint64   // malloc + free + flush spans
	allocMisses  uint64
	mallocCycles uint64
	freeCycles   uint64
}

func spanLedgerOf(r rep) spanLedger {
	var s spanLedger
	for i, ct := range r.traces {
		res := r.results[i]
		s.ops += res.AllocStats.MallocCalls + res.AllocStats.FreeCalls
		s.totalCycles += res.Total.Cycles
		s.totalMisses += appMisses(res.Total)
		for _, w := range ct.workers {
			for _, c := range w.calls {
				d := c.end - c.start
				s.allocCycles += d
				s.allocMisses += uint64(c.misses)
				switch c.kind {
				case spanMalloc:
					s.mallocDur = append(s.mallocDur, d)
				case spanFree:
					s.freeDur = append(s.freeDur, d)
				}
			}
		}
	}
	s.mallocCycles, s.freeCycles = sum(s.mallocDur), sum(s.freeDur)
	sorted(s.mallocDur)
	sorted(s.freeDur)
	return s
}

// ledger pools one measurement over its cells, in raw integer form; the
// metric tables below only divide.
type ledger struct {
	m *measurement

	ops     uint64
	mallocs uint64
	total   Counters // application cores
	server  Counters
	wall    uint64
	classes ClassBreakdown
	heap    uint64
	live    uint64
	kinds   map[string]Result // by cell label

	// offload telemetry (zero on xalanc_classic)
	mring, fring                   RingStats
	busy, idle                     uint64
	emptyPolls, emptyPollCycles    uint64
	served, maxGap                 uint64
	res                            ResilienceStats
	injected                       FaultStats
	failover                       FailoverStats
	warpCycles                     uint64
	roundTrip, queueWait, svcTime  []uint64 // sync malloc offload spans, ascending
	requests                       []uint64 // what the caller waits for, ascending
	lateness                       []uint64 // open-loop generator lag, ascending
	arrivals, violations, abandons uint64
	worstTenantP99                 uint64
	worstBurn                      float64

	spans spanLedger
	ref   *spanLedger
	micro map[string]float64 // host microbenchmarks, measured once per process
}

func ledgerOf(m *measurement) *ledger {
	l := &ledger{m: m, kinds: map[string]Result{}, spans: spanLedgerOf(m.warm)}
	if m.ref != nil {
		s := spanLedgerOf(*m.ref)
		l.ref = &s
	}
	for i, res := range m.timed[0].results {
		l.kinds[m.cells[i].label] = res
		l.ops += res.AllocStats.MallocCalls + res.AllocStats.FreeCalls
		l.mallocs += res.AllocStats.MallocCalls
		l.total.Add(res.Total)
		l.server.Add(res.Server)
		l.wall += res.WallCycles
		l.classes.Add(res.Classes)
		l.heap += res.AllocStats.HeapBytes
		l.live += res.AllocStats.LiveBytes
		l.warpCycles += res.Warp.CyclesWarped
		l.served += res.Served
		if o := res.Offload; o != nil {
			l.mring.Add(o.MallocRing)
			l.fring.Add(o.FreeRing)
			l.busy += o.ServerBusyCycles
			l.idle += o.ServerIdleCycles
			l.emptyPolls += o.ServerEmptyPolls
			l.emptyPollCycles += o.ServerEmptyPollCycles
		}
		for _, s := range res.Servers {
			for _, c := range s.Clients {
				l.maxGap = max(l.maxGap, c.MaxGapCycles)
			}
		}
		if r := res.Resilience; r != nil {
			l.res.Add(r.Client)
			l.injected.Add(r.Injected)
		}
		if f := res.Failover; f != nil {
			l.failover.Add(f.Totals)
		}
		if tr := res.SLO; tr.HasData() {
			for _, sp := range tr.Spans() {
				l.requests = append(l.requests, sp.EndToEnd())
				l.lateness = append(l.lateness, sp.QueueWait())
			}
			l.arrivals += tr.Completed() + tr.Abandoned()
			l.violations += tr.Violations()
			l.abandons += tr.Abandoned()
			for _, id := range tr.TenantIDs() {
				l.worstTenantP99 = max(l.worstTenantP99, tr.Tenant(id).Total.Total.Quantile(0.99))
			}
			if w, ok := tr.WorstWindow(); ok {
				l.worstBurn = math.Max(l.worstBurn, tr.BurnRate(w))
			}
		}
	}
	if len(l.requests) == 0 {
		// No request layer above the allocator: what the caller waits
		// for is a malloc (frees are fire-and-forget on the offload path,
		// and pooling both would park the median between two populations).
		l.requests = append(l.requests, l.spans.mallocDur...)
	}
	sorted(l.requests)
	sorted(l.lateness)
	if m.sampled != nil {
		for _, res := range m.sampled.results {
			if res.Latency == nil {
				continue
			}
			for _, sp := range res.Latency.Spans {
				if sp.Op == opMalloc {
					l.roundTrip = append(l.roundTrip, sp.EndToEnd())
					l.queueWait = append(l.queueWait, sp.QueueWait())
					l.svcTime = append(l.svcTime, sp.Service())
				}
			}
		}
		sorted(l.roundTrip)
		sorted(l.queueWait)
		sorted(l.svcTime)
	}
	return l
}

// perRep reads one host quantity off every timed rep.
func (l *ledger) perRep(f func(repHost) float64) []float64 {
	v := make([]float64, len(l.m.timed))
	for i, r := range l.m.timed {
		v[i] = f(r.host)
	}
	return v
}

func (l *ledger) hostMedian(f func(repHost) float64) float64 { return median(l.perRep(f)) }

func repSeconds(h repHost) float64 { return h.Seconds }

// repMedian is the median rep's cost on the host clock: process CPU
// seconds, not wall (see repHost).
func (l *ledger) repMedian() float64 {
	return l.hostMedian(func(h repHost) float64 { return h.CPUSeconds })
}

// allCores is the simulated work the host had to step through.
func (l *ledger) allCores() Counters {
	c := l.total
	c.Add(l.server)
	return c
}

// classMisses is one address class's LLC + dTLB misses on the
// application cores.
func (l *ledger) classMisses(name string) uint64 {
	for i, n := range regionClasses {
		if n == name {
			c := l.classes[i]
			return c.LLCLoadMisses + c.LLCStoreMisses + c.DTLBLoadMisses + c.DTLBStoreMisses
		}
	}
	return 0
}

// tracedOverheadPct compares the traced reps' host time with the
// untraced median.
func (l *ledger) tracedOverheadPct() float64 {
	base := l.repMedian()
	if base == 0 {
		return 0
	}
	traced := []float64{l.m.warm.host.CPUSeconds}
	if l.m.sampled != nil {
		traced = append(traced, l.m.sampled.host.CPUSeconds)
	}
	return 100 * (median(traced) - base) / base
}

func perOp(f func(*ledger) uint64) func(*ledger) float64 {
	return func(l *ledger) float64 { return ratio(f(l), l.ops) }
}

func perServed(f func(*ledger) uint64) func(*ledger) float64 {
	return func(l *ledger) float64 { return ratio(f(l), l.served) }
}

func count(f func(*ledger) uint64) func(*ledger) float64 {
	return func(l *ledger) float64 { return float64(f(l)) }
}

func quantile(f func(*ledger) []uint64, q float64) func(*ledger) float64 {
	return func(l *ledger) float64 { return float64(percentile(f(l), q)) }
}

// bandMean is the q-quantile of an ascending slice read as the mean of
// the samples ranked within half of either side of it. A single order
// statistic of a simulated protocol is an integer that sits on the same
// value at every seed (27 % of xalanc_offload's mallocs take exactly 380
// cycles); the band average moves when the distribution around it does.
func bandMean(f func(*ledger) []uint64, q, half float64) func(*ledger) float64 {
	return func(l *ledger) float64 {
		v := f(l)
		lo := int((q - half) * float64(len(v)))
		hi := min(len(v), int((q+half)*float64(len(v)))+1)
		if lo >= hi {
			return 0
		}
		return float64(sum(v[lo:hi])) / float64(hi-lo)
	}
}

// endToEnd is what a user of the system sees. Bounds are three times the
// widest seed-to-seed quartile spread measured on any workload (README.md,
// "Bounds"), because every metric is reported on every workload.
var endToEnd = []metricDef{
	{name: "sim_cycles_per_op", unit: "cycles/op", bound: 0.06,
		value: perOp(func(l *ledger) uint64 { return l.total.Cycles })},
	{name: "sim_wall_cycles_per_op", unit: "cycles/op", bound: 0.06,
		value: perOp(func(l *ledger) uint64 { return l.wall })},
	{name: "sim_app_misses_per_op", unit: "misses/op", bound: 0.20,
		value: perOp(func(l *ledger) uint64 { return appMisses(l.total) })},
	{name: "sim_req_p50_cycles", unit: "cycles", bound: 0.05,
		value: bandMean(func(l *ledger) []uint64 { return l.requests }, 0.50, 0.10)},
	{name: "sim_req_p99_cycles", unit: "cycles", bound: 0.25,
		value: bandMean(func(l *ledger) []uint64 { return l.requests }, 0.99, 0.005)},
	{name: "host_kops_per_s", unit: "kops/s", higher: true, bound: 0.25, host: true,
		perRep: func(l *ledger, h repHost) float64 { return float64(l.ops) / 1000 / math.Max(h.CPUSeconds, 1e-9) }},
	{name: "host_alloc_mb_per_rep", unit: "MB", bound: 0.12, host: true,
		perRep: func(_ *ledger, h repHost) float64 { return float64(h.AllocBytes) / 1e6 }},
	{name: "setup_s", unit: "s", bound: 0.25, host: true,
		value: func(l *ledger) float64 { return l.m.setupSeconds }},
}

const (
	mvOffload  = "sim_cycles_per_op on xalanc_offload"
	mvFleet    = "sim_wall_cycles_per_op on xmalloc_fleet"
	mvClassic  = "sim_cycles_per_op, sim_app_misses_per_op on xalanc_classic"
	mvFailover = "sim_req_p99_cycles, failed ops on service_failover"
	mvHost     = "host_kops_per_s"
)

func kindMetrics() []metricDef {
	var defs []metricDef
	for _, kind := range classicKinds {
		defs = append(defs,
			metricDef{name: "allocators." + kind + ".cycles_per_op", unit: "cycles/op", moves: mvClassic,
				value: func(l *ledger) float64 {
					r := l.kinds[kind]
					return ratio(r.Total.Cycles, r.AllocStats.MallocCalls+r.AllocStats.FreeCalls)
				}},
			metricDef{name: "allocators." + kind + ".misses_per_op", unit: "misses/op", moves: mvClassic,
				value: func(l *ledger) float64 {
					r := l.kinds[kind]
					return ratio(appMisses(r.Total), r.AllocStats.MallocCalls+r.AllocStats.FreeCalls)
				}})
	}
	return defs
}

// perLayer is the ledger: one block per package, outside in. A metric a
// workload does not reach reads 0 there.
var perLayer = concat(
	[]metricDef{
		// workload: everything the worker does outside allocator calls.
		{name: "workload.user_cycles_per_op", unit: "cycles/op", moves: "sim_cycles_per_op on both xalanc workloads (placement/locality)",
			value: func(l *ledger) float64 { return ratio(sat(l.spans.totalCycles, l.spans.allocCycles), l.spans.ops) }},
		{name: "workload.user_misses_per_op", unit: "misses/op", moves: "sim_app_misses_per_op on both xalanc workloads",
			value: func(l *ledger) float64 { return ratio(sat(l.spans.totalMisses, l.spans.allocMisses), l.spans.ops) }},
		{name: "workload.gen_late_cycles_p99", unit: "cycles", moves: "sim_req_p99_cycles on service_failover",
			value: quantile(func(l *ledger) []uint64 { return l.lateness }, 0.99)},

		// alloc: client-visible cost at the alloc.Allocator boundary.
		{name: "alloc.malloc_cycles_per_call", unit: "cycles", moves: "sim_cycles_per_op everywhere, most on xmalloc_fleet",
			value: func(l *ledger) float64 { return ratio(l.spans.mallocCycles, uint64(len(l.spans.mallocDur))) }},
		{name: "alloc.malloc_cycles_p50", unit: "cycles", moves: "sim_req_p50_cycles",
			value: quantile(func(l *ledger) []uint64 { return l.spans.mallocDur }, 0.50)},
		{name: "alloc.malloc_cycles_p99", unit: "cycles", moves: "sim_req_p99_cycles",
			value: quantile(func(l *ledger) []uint64 { return l.spans.mallocDur }, 0.99)},
		{name: "alloc.free_cycles_per_call", unit: "cycles", moves: "sim_cycles_per_op everywhere, most on xmalloc_fleet",
			value: func(l *ledger) float64 { return ratio(l.spans.freeCycles, uint64(len(l.spans.freeDur))) }},
		{name: "alloc.free_cycles_p50", unit: "cycles", moves: "sim_req_p50_cycles",
			value: quantile(func(l *ledger) []uint64 { return l.spans.freeDur }, 0.50)},
		{name: "alloc.free_cycles_p99", unit: "cycles", moves: "sim_req_p99_cycles",
			value: quantile(func(l *ledger) []uint64 { return l.spans.freeDur }, 0.99)},
		{name: "alloc.misses_per_call", unit: "misses/op", moves: "sim_app_misses_per_op",
			value: func(l *ledger) float64 { return ratio(l.spans.allocMisses, l.spans.ops) }},
		{name: "alloc.cycle_share_pct", unit: "%", moves: "sim_cycles_per_op",
			value: func(l *ledger) float64 { return pct(l.spans.allocCycles, l.spans.totalCycles) }},
	},
	kindMetrics(),
	[]metricDef{
		// core: the offload path, from Result.Latency and server telemetry.
		{name: "core.round_trip_cycles_p50", unit: "cycles", moves: mvOffload,
			value: quantile(func(l *ledger) []uint64 { return l.roundTrip }, 0.50)},
		{name: "core.round_trip_cycles_p99", unit: "cycles", moves: mvOffload,
			value: quantile(func(l *ledger) []uint64 { return l.roundTrip }, 0.99)},
		{name: "core.queue_wait_cycles_p50", unit: "cycles", moves: mvFleet,
			value: quantile(func(l *ledger) []uint64 { return l.queueWait }, 0.50)},
		{name: "core.queue_wait_cycles_p99", unit: "cycles", moves: mvFleet,
			value: quantile(func(l *ledger) []uint64 { return l.queueWait }, 0.99)},
		{name: "core.service_cycles_p50", unit: "cycles", moves: mvOffload,
			value: quantile(func(l *ledger) []uint64 { return l.svcTime }, 0.50)},
		{name: "core.service_cycles_p99", unit: "cycles", moves: mvOffload,
			value: quantile(func(l *ledger) []uint64 { return l.svcTime }, 0.99)},
		{name: "core.server_busy_pct", unit: "%", moves: mvFleet,
			value: func(l *ledger) float64 { return pct(l.busy, l.busy+l.idle) }},
		{name: "core.server_busy_cycles_per_served", unit: "cycles/op", moves: mvOffload,
			value: perServed(func(l *ledger) uint64 { return l.busy })},
		{name: "core.empty_polls_per_served", unit: "count/op", moves: mvHost + " on xalanc_offload (warp collapses them)",
			value: perServed(func(l *ledger) uint64 { return l.emptyPolls })},
		{name: "core.empty_poll_cycles_per_served", unit: "cycles/op", moves: mvOffload,
			value: perServed(func(l *ledger) uint64 { return l.emptyPollCycles })},
		{name: "core.server_misses_per_served", unit: "misses/op", moves: mvOffload,
			value: perServed(func(l *ledger) uint64 { return appMisses(l.server) })},
		{name: "core.stash_hit_pct", unit: "%", higher: true, moves: mvOffload,
			value: func(l *ledger) float64 { return pct(sat(l.mallocs, l.mring.Pushes), l.mallocs) }},
		{name: "core.max_service_gap_cycles", unit: "cycles", moves: mvFleet,
			value: count(func(l *ledger) uint64 { return l.maxGap })},

		// core/resilience, fleet failover, fault: zero unless faults are armed.
		{name: "core.timeouts", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.res.Timeouts })},
		{name: "core.retries", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.res.Retries })},
		{name: "core.nacks", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.res.MallocNacks + l.res.FreeNacks })},
		{name: "core.emergency_ops", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.res.EmergencyMallocs + l.res.EmergencyFrees })},
		{name: "core.deferred_frees", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.res.DeferredFrees })},
		{name: "core.degraded_cycles_pct", unit: "%", moves: mvFailover,
			value: func(l *ledger) float64 { return pct(l.res.DegradedCycles, l.total.Cycles) }},
		{name: "core.failover_downs", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.failover.Downs })},
		{name: "core.failover_rejoins", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.failover.Rejoins })},
		{name: "core.forwarded_mallocs", unit: "count", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.failover.ForwardedMallocs })},
		{name: "fault.stall_cycles_injected", unit: "cycles", moves: mvFailover,
			value: count(func(l *ledger) uint64 { return l.injected.StallCycles })},

		// ring: the transport under core.
		{name: "ring.pushes_per_op", unit: "count/op", moves: mvOffload,
			value: perOp(func(l *ledger) uint64 { return l.mring.Pushes + l.fring.Pushes })},
		{name: "ring.reqs_per_publish", unit: "count", higher: true, moves: mvFleet,
			value: func(l *ledger) float64 {
				return ratio(l.mring.Pushes+l.fring.Pushes, l.mring.PushBatches+l.fring.PushBatches)
			}},
		{name: "ring.full_retries_per_kop", unit: "count/kop", moves: mvFleet,
			value: func(l *ledger) float64 { return 1000 * ratio(l.mring.FullRetries+l.fring.FullRetries, l.ops) }},
		{name: "ring.producer_stall_cycles_per_op", unit: "cycles/op", moves: mvFleet,
			value: perOp(func(l *ledger) uint64 { return l.mring.StallCycles + l.fring.StallCycles })},
		{name: "ring.line_transfers_per_op", unit: "count/op", moves: mvOffload,
			value: perOp(func(l *ledger) uint64 { return l.total.DirtyTransfers + l.total.Invalidations })},

		// region: which lines miss; sums exactly to sim_app_misses_per_op.
		{name: "region.user_misses_per_op", unit: "misses/op", moves: "sim_app_misses_per_op",
			value: perOp(func(l *ledger) uint64 { return l.classMisses("user") })},
		{name: "region.meta_misses_per_op", unit: "misses/op", moves: "sim_app_misses_per_op",
			value: perOp(func(l *ledger) uint64 { return l.classMisses("metadata") })},
		{name: "region.ring_misses_per_op", unit: "misses/op", moves: "sim_app_misses_per_op",
			value: perOp(func(l *ledger) uint64 { return l.classMisses("ring") })},
		{name: "region.global_misses_per_op", unit: "misses/op", moves: "sim_app_misses_per_op",
			value: perOp(func(l *ledger) uint64 { return l.classMisses("global") })},

		// cache, tlb, mem: the modelled hierarchy, application cores.
		{name: "cache.l1_misses_per_op", unit: "misses/op", moves: "sim_cycles_per_op",
			value: perOp(func(l *ledger) uint64 { return l.total.L1Misses })},
		{name: "cache.l2_misses_per_op", unit: "misses/op", moves: "sim_cycles_per_op",
			value: perOp(func(l *ledger) uint64 { return l.total.L2Misses })},
		{name: "cache.llc_misses_per_op", unit: "misses/op", moves: "sim_cycles_per_op",
			value: perOp(func(l *ledger) uint64 { return l.total.LLCLoadMisses + l.total.LLCStoreMisses })},
		{name: "tlb.dtlb_misses_per_op", unit: "misses/op", moves: "sim_cycles_per_op",
			value: perOp(func(l *ledger) uint64 { return l.total.DTLBLoadMisses + l.total.DTLBStoreMisses })},
		{name: "tlb.stlb_hits_per_op", unit: "count/op", moves: "sim_cycles_per_op",
			value: perOp(func(l *ledger) uint64 { return l.total.STLBHits })},
		{name: "mem.kernel_cycles_per_op", unit: "cycles/op", moves: "sim_cycles_per_op",
			value: perOp(func(l *ledger) uint64 { return l.total.KernelCycles })},
		{name: "mem.heap_bytes_per_live_byte", unit: "ratio", moves: "sim_app_misses_per_op (footprint)",
			value: func(l *ledger) float64 { return ratio(l.heap, l.live) }},

		// sim: what one simulated event costs the host on this workload.
		{name: "sim.host_ns_per_access", unit: "ns", host: true, moves: mvHost,
			value: func(l *ledger) float64 {
				c := l.allCores()
				return 1e9 * l.repMedian() / math.Max(1, float64(c.Loads+c.Stores))
			}},
		{name: "sim.host_ns_per_instr", unit: "ns", host: true, moves: mvHost,
			value: func(l *ledger) float64 {
				return 1e9 * l.repMedian() / math.Max(1, float64(l.allCores().Instructions))
			}},
		{name: "sim.mcycles_per_host_s", unit: "Mcycles/s", higher: true, host: true, moves: mvHost,
			value: func(l *ledger) float64 {
				if s := l.repMedian(); s > 0 {
					return float64(l.allCores().Cycles) / 1e6 / s
				}
				return 0
			}},
		{name: "sim.warp_rounds_skipped_pct", unit: "%", higher: true, moves: mvHost + " on xalanc_offload, service_failover",
			value: func(l *ledger) float64 { return pct(l.warpCycles, l.allCores().Cycles) }},

		// slo: the request ledger above the allocator.
		{name: "slo.miss_pct", unit: "%", moves: "sim_req_p99_cycles on service_failover",
			value: func(l *ledger) float64 { return pct(l.violations+l.abandons, l.arrivals) }},
		{name: "slo.worst_tenant_p99_cycles", unit: "cycles", moves: "sim_req_p99_cycles on service_failover",
			value: count(func(l *ledger) uint64 { return l.worstTenantP99 })},
		{name: "slo.worst_window_burn_rate", unit: "ratio", moves: "sim_req_p99_cycles on service_failover",
			value: func(l *ledger) float64 { return l.worstBurn }},
		{name: "slo.violations", unit: "count", moves: "sim_req_p99_cycles on service_failover",
			value: count(func(l *ledger) uint64 { return l.violations })},
		{name: "slo.abandons", unit: "count", moves: "failed ops on service_failover",
			value: count(func(l *ledger) uint64 { return l.abandons })},

		// harness: what a rep costs the host beyond the simulation proper.
		{name: "harness.rep_s_p50", unit: "s", host: true, moves: mvHost,
			value: func(l *ledger) float64 { return l.hostMedian(repSeconds) }},
		{name: "harness.rep_s_min", unit: "s", host: true, moves: mvHost,
			value: func(l *ledger) float64 { return minOf(l.perRep(repSeconds)) }},
		{name: "harness.rep_s_max", unit: "s", host: true, moves: mvHost,
			value: func(l *ledger) float64 { return maxOf(l.perRep(repSeconds)) }},
		{name: "harness.cpu_s_per_rep", unit: "s", host: true, moves: mvHost,
			value: func(l *ledger) float64 { return l.hostMedian(func(h repHost) float64 { return h.CPUSeconds }) }},
		{name: "harness.setup_s_per_rep", unit: "s", host: true, moves: "setup_s",
			value: func(l *ledger) float64 { return l.hostMedian(func(h repHost) float64 { return h.SetupSeconds }) }},
		{name: "harness.host_allocs_per_op", unit: "count/op", host: true, moves: "host_alloc_mb_per_rep",
			value: func(l *ledger) float64 {
				return l.hostMedian(func(h repHost) float64 { return float64(h.Mallocs) }) / math.Max(1, float64(l.ops))
			}},
		{name: "harness.gc_cycles_per_rep", unit: "count", host: true, moves: "host_alloc_mb_per_rep",
			value: func(l *ledger) float64 { return l.hostMedian(func(h repHost) float64 { return float64(h.GCs) }) }},
		{name: "harness.peak_rss_mb", unit: "MB", host: true, moves: "host_alloc_mb_per_rep",
			value: func(*ledger) float64 { return peakRSSMB() }},
		{name: "harness.traced_overhead_pct", unit: "%", host: true, moves: "none (cost of observing)",
			value: func(l *ledger) float64 { return l.tracedOverheadPct() }},

		// model: the §4.1 position and the gap to the paper. The paper's
		// figures are the only reference; the simulator is otherwise
		// unvalidated.
		{name: "model.comm_cycles_added_per_call", unit: "cycles", moves: mvOffload,
			value: func(l *ledger) float64 {
				if l.ref == nil {
					return 0
				}
				return ratio(l.spans.allocCycles, l.spans.ops) - ratio(l.ref.allocCycles, l.ref.ops)
			}},
		{name: "model.misses_removed_per_call", unit: "misses/op", higher: true, moves: mvOffload,
			value: func(l *ledger) float64 {
				if l.ref == nil {
					return 0
				}
				return ratio(l.ref.totalMisses, l.ref.ops) - ratio(l.spans.totalMisses, l.spans.ops)
			}},
		{name: "model.breakeven_misses_per_call", unit: "misses/op", moves: "none (paper constant, 1.25)",
			value: func(*ledger) float64 { return breakevenMissesPerCall() }},
		{name: "model.table3_gain_pct", unit: "%", higher: true, moves: mvOffload + " (paper: +4.51)",
			value: func(l *ledger) float64 {
				if l.ref == nil || l.ref.totalCycles == 0 {
					return 0
				}
				return 100 * (float64(l.ref.totalCycles) - float64(l.spans.totalCycles)) / float64(l.ref.totalCycles)
			}},
		{name: "model.fig1_spread", unit: "ratio", moves: mvClassic + " (paper: 1.72)",
			value: func(l *ledger) float64 {
				return ratio(l.kinds["ptmalloc2"].Total.Cycles, l.kinds["mimalloc"].Total.Cycles)
			}},
		{name: "model.table1_dtlb_ratio", unit: "ratio", moves: mvClassic + " (paper: >10)",
			value: func(l *ledger) float64 {
				return ratio(l.kinds["ptmalloc2"].Total.DTLBLoadMisses, l.kinds["mimalloc"].Total.DTLBLoadMisses)
			}},
	},
	microMetrics(),
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// layerOf is the package a per-layer metric belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
