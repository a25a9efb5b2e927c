// Package metrics defines the stable machine-readable result schema the
// CLIs emit behind their -metrics flags. One file holds one or more
// experiments; each experiment holds one result per (allocator,
// workload) run, including the per-class miss attribution and — for
// offload runs — the ring/server transport telemetry.
//
// The schema is versioned: consumers check the top-level "schema" field
// ("ngm-metrics/v1") and reject anything else. Field names are
// snake_case and never reused with a different meaning; additions are
// backward-compatible (new optional fields only).
package metrics

import (
	"encoding/json"
	"fmt"
	"os"

	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/timeline"
)

// Schema is the current schema identifier.
const Schema = "ngm-metrics/v1"

// File is the top-level object.
type File struct {
	Schema      string       `json:"schema"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment groups the results of one named table/figure run.
type Experiment struct {
	ID      string   `json:"id"`
	Results []Result `json:"results"`
}

// Result is one (allocator, workload) run.
type Result struct {
	Allocator    string `json:"allocator"`
	Workload     string `json:"workload"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	WallCycles   uint64 `json:"wall_cycles"`

	LLCLoadMisses   uint64 `json:"llc_load_misses"`
	LLCStoreMisses  uint64 `json:"llc_store_misses"`
	DTLBLoadMisses  uint64 `json:"dtlb_load_misses"`
	DTLBStoreMisses uint64 `json:"dtlb_store_misses"`

	// Layout names the NextGen metadata layout the run used
	// (segregated, aggregated, or compact); absent for non-NextGen
	// allocators (additive in schema v1).
	Layout string `json:"layout,omitempty"`
	// MetaRecordBytes is that layout's slab-record stride in the
	// metadata region; absent for non-NextGen allocators (additive in
	// schema v1).
	MetaRecordBytes int `json:"meta_record_bytes,omitempty"`

	// Classes maps address-class name (user, metadata, ring, global) to
	// that class's share of the worker cores' traffic and misses.
	Classes map[string]ClassCounters `json:"classes"`
	// ServerClasses is present for offload runs: the dedicated core's
	// attribution over the measured region.
	ServerClasses map[string]ClassCounters `json:"server_classes,omitempty"`
	// Offload is present for offload runs.
	Offload *Offload `json:"offload,omitempty"`
	// Timeline is present when the run sampled time-resolved telemetry
	// (additive in schema v1).
	Timeline *Timeline `json:"timeline,omitempty"`
	// OffloadLatency is present when the run recorded offload request
	// spans (additive in schema v1).
	OffloadLatency *OffloadLatency `json:"offload_latency,omitempty"`
	// Resilience is present when the run armed the graceful-degradation
	// policy or a fault plan (additive in schema v1).
	Resilience *Resilience `json:"resilience,omitempty"`
	// Failover is present when the run armed fleet failover (additive in
	// schema v1): per-client re-homing ledgers and fleet totals.
	Failover *Failover `json:"failover,omitempty"`
	// Warp is present when the scheduler's time warp skipped at least
	// one idle window (additive in schema v1). Host telemetry only:
	// every simulated counter above is bit-identical with warp off.
	Warp *Warp `json:"warp,omitempty"`
	// Servers is present for offload runs (additive in schema v1): one
	// entry per server daemon — the sharded-fleet view. A single-server
	// run carries one entry whose totals match the offload block.
	Servers []ServerMetrics `json:"servers,omitempty"`
	// SLO is present when the run armed the per-tenant SLO tracker and
	// the workload fed it at least one request (additive in schema v1).
	SLO *SLO `json:"slo,omitempty"`
}

// SLO is the per-tenant SLO telemetry of a request-serving run: the
// armed budgets, the tumbling violation windows, and one row per
// tenant. Per-tenant request counts partition completed_requests, as do
// the window request counts (both checked by Validate).
type SLO struct {
	WindowCycles      uint64  `json:"window_cycles"`
	TargetRate        float64 `json:"target_rate"`
	BudgetInteractive uint64  `json:"budget_interactive_cycles"`
	BudgetBulk        uint64  `json:"budget_bulk_cycles"`
	CompletedRequests uint64  `json:"completed_requests"`
	AbandonedRequests uint64  `json:"abandoned_requests"`
	Violations        uint64  `json:"violations"`
	// WorstWindow is the retained window with the most violations
	// (absent when no request completed); WorstBurnRate is that window's
	// violation rate over target_rate.
	WorstWindow   *SLOWindow  `json:"worst_window,omitempty"`
	WorstBurnRate float64     `json:"worst_burn_rate"`
	Windows       []SLOWindow `json:"windows"`
	Tenants       []TenantSLO `json:"tenants"`
	// DroppedSpans counts raw request spans beyond the retention cap
	// (the ledgers above still include them).
	DroppedSpans uint64 `json:"dropped_spans"`
}

// SLOWindow is one tumbling violation-accounting window.
type SLOWindow struct {
	StartCycle uint64 `json:"start_cycle"`
	Requests   uint64 `json:"requests"`
	Violations uint64 `json:"violations"`
}

// TenantSLO is one tenant's ledger. Percentiles are end-to-end cycles
// across the tenant's classes; a tenant that completed no request
// (churned out, or abandons only) carries zero digests.
type TenantSLO struct {
	Tenant                int                 `json:"tenant"`
	Requests              uint64              `json:"requests"`
	Abandons              uint64              `json:"abandons"`
	Violations            uint64              `json:"violations"`
	P50                   uint64              `json:"p50"`
	P99                   uint64              `json:"p99"`
	P999                  uint64              `json:"p999"`
	Max                   uint64              `json:"max"`
	MeanCycles            float64             `json:"mean_cycles"`
	WorstWindowViolations uint64              `json:"worst_window_violations"`
	WorstWindowStart      uint64              `json:"worst_window_start_cycle"`
	Classes               map[string]SLOClass `json:"classes,omitempty"`
}

// SLOClass is one (tenant, op class) slice with the class's budget.
type SLOClass struct {
	Requests     uint64 `json:"requests"`
	Violations   uint64 `json:"violations"`
	BudgetCycles uint64 `json:"budget_cycles"`
	P99          uint64 `json:"p99"`
	Max          uint64 `json:"max"`
}

// ServerMetrics is one server daemon's slice of a (possibly sharded)
// offload run.
type ServerMetrics struct {
	Core            int    `json:"core"`
	BusyCycles      uint64 `json:"busy_cycles"`
	IdleCycles      uint64 `json:"idle_cycles"`
	EmptyPolls      uint64 `json:"empty_polls"`
	EmptyPollCycles uint64 `json:"empty_poll_cycles"`
	ServedOps       uint64 `json:"served_ops"`
	Nacks           uint64 `json:"nacks"`
	MallocRing      Ring   `json:"malloc_ring"`
	FreeRing        Ring   `json:"free_ring"`
	// PerClient is the server's service-fairness ledger, one entry per
	// registered client thread.
	PerClient []ClientServiceMetrics `json:"per_client"`
	// Injected is this shard's own fault-injection ledger, present only
	// when an armed plan actually hit this shard (additive in schema
	// v1) — a targeted plan's telemetry shows which room was broken.
	Injected *InjectedFaults `json:"injected,omitempty"`
}

// InjectedFaults mirrors fault.Stats in snake_case: what the injector
// did to one shard.
type InjectedFaults struct {
	Stalls         uint64 `json:"stalls"`
	StallCycles    uint64 `json:"stall_cycles"`
	DoorbellDrops  uint64 `json:"doorbell_drops"`
	CorruptWords   uint64 `json:"corrupt_words"`
	SlowdownCycles uint64 `json:"slowdown_cycles"`
}

// Failover is the fleet failover ledger of a run: how many times
// clients re-homed their mallocs away from a marked-down shard (downs),
// re-homed back after a successful probe (rejoins), and how many
// mallocs a non-home shard served (forwarded_mallocs). Every event in
// the transition log pairs with a down or a rejoin; overflow past the
// log cap is counted in dropped_events (checked by Validate).
type Failover struct {
	Downs            uint64           `json:"downs"`
	Rejoins          uint64           `json:"rejoins"`
	ForwardedMallocs uint64           `json:"forwarded_mallocs"`
	DroppedEvents    uint64           `json:"dropped_events"`
	Clients          []FailoverClient `json:"clients"`
	Events           []FailoverEvent  `json:"events,omitempty"`
}

// FailoverClient is one application thread's failover routing ledger.
type FailoverClient struct {
	Thread           int    `json:"thread"`
	HomeShard        int    `json:"home_shard"`
	ActiveShard      int    `json:"active_shard"`
	Downs            uint64 `json:"downs"`
	Rejoins          uint64 `json:"rejoins"`
	ForwardedMallocs uint64 `json:"forwarded_mallocs"`
}

// FailoverEvent is one re-home transition.
type FailoverEvent struct {
	Cycle  uint64 `json:"cycle"`
	Thread int    `json:"thread"`
	From   int    `json:"from_shard"`
	To     int    `json:"to_shard"`
}

// ClientServiceMetrics is one client's share of a server's service:
// how many of its requests completed and the widest gap in cycles
// between consecutive completions (the starvation metric).
type ClientServiceMetrics struct {
	Thread              int    `json:"thread"`
	ServedOps           uint64 `json:"served_ops"`
	MaxServiceGapCycles uint64 `json:"max_service_gap_cycles"`
}

// Warp is the time-warp ledger: how much host work the cycle-skipping
// scheduler avoided. Windows counts bulk skips, Rounds the wait-loop
// iterations those skips replayed arithmetically, CyclesWarped the
// simulated cycles covered (summed across threads, so it can exceed
// the wall clock), LargestSkip the biggest single window in cycles.
type Warp struct {
	Windows      uint64 `json:"windows"`
	Rounds       uint64 `json:"rounds"`
	CyclesWarped uint64 `json:"cycles_warped"`
	LargestSkip  uint64 `json:"largest_skip"`
}

// ClassCounters mirrors sim.ClassCounters in snake_case.
type ClassCounters struct {
	Loads           uint64 `json:"loads"`
	Stores          uint64 `json:"stores"`
	L1Misses        uint64 `json:"l1_misses"`
	LLCLoadMisses   uint64 `json:"llc_load_misses"`
	LLCStoreMisses  uint64 `json:"llc_store_misses"`
	DTLBLoadMisses  uint64 `json:"dtlb_load_misses"`
	DTLBStoreMisses uint64 `json:"dtlb_store_misses"`
}

// Offload is the transport telemetry of an offload run.
type Offload struct {
	MallocRing       Ring   `json:"malloc_ring"`
	FreeRing         Ring   `json:"free_ring"`
	ServerBusyCycles uint64 `json:"server_busy_cycles"`
	ServerIdleCycles uint64 `json:"server_idle_cycles"`
	// ServerEmptyPolls / ServerEmptyPollCycles count poll passes that
	// found no ring work and the cycles those passes spent scanning
	// (additive in schema v1; absent means an older producer).
	ServerEmptyPolls      uint64 `json:"server_empty_polls"`
	ServerEmptyPollCycles uint64 `json:"server_empty_poll_cycles"`
	ServedOps             uint64 `json:"served_ops"`
}

// Ring is one direction's SPSC telemetry. Occupancy is the log2-bucket
// histogram of ring depth after each push (bucket b counts depths in
// [2^(b-1), 2^b); bucket 0 is unused). PushBatches counts
// publications, so pushes/push_batches is the average coalesced batch
// width (additive in schema v1).
type Ring struct {
	Pushes      uint64   `json:"pushes"`
	Pops        uint64   `json:"pops"`
	PushBatches uint64   `json:"push_batches"`
	FullRetries uint64   `json:"full_retries"`
	StallCycles uint64   `json:"stall_cycles"`
	Occupancy   []uint64 `json:"occupancy_log2"`
}

// Timeline is the sampled counter series: cumulative machine-wide
// values (summed over cores) at each sample cycle, so a consumer
// differences neighbours to get per-interval rates.
type Timeline struct {
	IntervalCycles uint64           `json:"interval_cycles"`
	Samples        []TimelineSample `json:"samples"`
}

// TimelineSample is one cumulative snapshot.
type TimelineSample struct {
	Cycle           uint64 `json:"cycle"`
	Instructions    uint64 `json:"instructions"`
	LLCLoadMisses   uint64 `json:"llc_load_misses"`
	LLCStoreMisses  uint64 `json:"llc_store_misses"`
	DTLBLoadMisses  uint64 `json:"dtlb_load_misses"`
	DTLBStoreMisses uint64 `json:"dtlb_store_misses"`
	MallocRingDepth uint64 `json:"malloc_ring_depth"`
	FreeRingDepth   uint64 `json:"free_ring_depth"`
	ServerBusy      uint64 `json:"server_busy_cycles"`
	ServerEmptyPoll uint64 `json:"server_empty_poll_cycles"`
}

// Resilience is the graceful-degradation and fault-injection ledger of
// a run: client-side policy events plus what the injector actually did.
type Resilience struct {
	Timeouts          uint64 `json:"timeouts"`
	Retries           uint64 `json:"retries"`
	MallocNacks       uint64 `json:"malloc_nacks"`
	FreeNacks         uint64 `json:"free_nacks"`
	FallbackEntries   uint64 `json:"fallback_entries"`
	FallbackExits     uint64 `json:"fallback_exits"`
	DegradedCycles    uint64 `json:"degraded_cycles"`
	EmergencyMallocs  uint64 `json:"emergency_mallocs"`
	EmergencyFrees    uint64 `json:"emergency_frees"`
	DeferredFrees     uint64 `json:"deferred_frees"`
	AbandonedRequests uint64 `json:"abandoned_requests"`
	ReclaimedBlocks   uint64 `json:"reclaimed_blocks"`

	InjectedStalls         uint64 `json:"injected_stalls"`
	InjectedStallCycles    uint64 `json:"injected_stall_cycles"`
	InjectedDoorbellDrops  uint64 `json:"injected_doorbell_drops"`
	InjectedCorruptWords   uint64 `json:"injected_corrupt_words"`
	InjectedSlowdownCycles uint64 `json:"injected_slowdown_cycles"`
}

// OffloadLatency carries the per-op offload latency digests. An op's
// entry is present only when it recorded at least one span.
type OffloadLatency struct {
	Malloc *OpLatency `json:"malloc,omitempty"`
	Free   *OpLatency `json:"free,omitempty"`
	// DroppedSpans counts raw spans beyond the retention cap (the
	// digests above still include them).
	DroppedSpans uint64 `json:"dropped_spans"`
}

// OpLatency is one op kind's three distributions. Per span, queue-wait
// + service = end-to-end exactly, so the Sums partition.
type OpLatency struct {
	QueueWait LatencyDigest `json:"queue_wait"`
	Service   LatencyDigest `json:"service"`
	EndToEnd  LatencyDigest `json:"end_to_end"`
}

// LatencyDigest summarizes one histogram in cycles. Percentiles are
// log2-linear bucket midpoints (≤6.25% relative error, exact for small
// values), clamped to the exact max.
type LatencyDigest struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

func ringMetrics(s ring.Stats) Ring {
	return Ring{
		Pushes:      s.Pushes,
		Pops:        s.Pops,
		PushBatches: s.PushBatches,
		FullRetries: s.FullRetries,
		StallCycles: s.StallCycles,
		Occupancy:   append([]uint64(nil), s.Occupancy[:]...),
	}
}

func digest(h timeline.Hist) LatencyDigest {
	return LatencyDigest{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max,
	}
}

// opLatency converts one op's distributions; nil when the op never ran
// (the schema omits empty ops rather than emitting all-zero digests).
func opLatency(l timeline.OpLatency) *OpLatency {
	if l.Total.Count == 0 {
		return nil
	}
	return &OpLatency{
		QueueWait: digest(l.Queue),
		Service:   digest(l.Service),
		EndToEnd:  digest(l.Total),
	}
}

func latencyMetrics(rec *timeline.LatencyRecorder) *OffloadLatency {
	return &OffloadLatency{
		Malloc:       opLatency(rec.ByOp[timeline.OpMalloc]),
		Free:         opLatency(rec.ByOp[timeline.OpFree]),
		DroppedSpans: rec.Dropped,
	}
}

// sloMetrics converts an armed tracker's ledgers (caller checks
// HasData).
func sloMetrics(tr *slo.Tracker) *SLO {
	opt := tr.Options()
	out := &SLO{
		WindowCycles:      tr.Width(),
		TargetRate:        opt.TargetRate,
		BudgetInteractive: opt.Budgets[slo.Interactive],
		BudgetBulk:        opt.Budgets[slo.Bulk],
		CompletedRequests: tr.Completed(),
		AbandonedRequests: tr.Abandoned(),
		Violations:        tr.Violations(),
		DroppedSpans:      tr.DroppedSpans(),
	}
	if w, ok := tr.WorstWindow(); ok {
		out.WorstWindow = &SLOWindow{StartCycle: w.Start, Requests: w.Requests, Violations: w.Violations}
		out.WorstBurnRate = tr.BurnRate(w)
	}
	for _, w := range tr.Windows() {
		out.Windows = append(out.Windows, SLOWindow{StartCycle: w.Start, Requests: w.Requests, Violations: w.Violations})
	}
	for _, id := range tr.TenantIDs() {
		ts := tr.Tenant(id)
		row := TenantSLO{
			Tenant:                id,
			Requests:              ts.Requests,
			Abandons:              ts.Abandons,
			Violations:            ts.Violations,
			P50:                   ts.Total.Total.Quantile(0.50),
			P99:                   ts.Total.Total.Quantile(0.99),
			P999:                  ts.Total.Total.Quantile(0.999),
			Max:                   ts.Total.Total.Max,
			MeanCycles:            ts.Total.Total.Mean(),
			WorstWindowViolations: ts.WorstWindowViolations,
			WorstWindowStart:      ts.WorstWindowStart,
		}
		for c := slo.Class(0); c < slo.NumClasses; c++ {
			cl := ts.ByClass[c]
			if cl.Total.Count == 0 {
				continue
			}
			if row.Classes == nil {
				row.Classes = map[string]SLOClass{}
			}
			row.Classes[c.String()] = SLOClass{
				Requests:     cl.Total.Count,
				Violations:   ts.ClassViolations[c],
				BudgetCycles: opt.Budgets[c],
				P99:          cl.Total.Quantile(0.99),
				Max:          cl.Total.Max,
			}
		}
		out.Tenants = append(out.Tenants, row)
	}
	return out
}

func timelineMetrics(s *timeline.Series) *Timeline {
	tl := &Timeline{IntervalCycles: s.Interval}
	for i := range s.Samples {
		cs := s.CoresAt(i, nil)
		smp := s.Samples[i]
		tl.Samples = append(tl.Samples, TimelineSample{
			Cycle:           smp.Cycle,
			Instructions:    cs.Counters.Instructions,
			LLCLoadMisses:   cs.Counters.LLCLoadMisses,
			LLCStoreMisses:  cs.Counters.LLCStoreMisses,
			DTLBLoadMisses:  cs.Counters.DTLBLoadMisses,
			DTLBStoreMisses: cs.Counters.DTLBStoreMisses,
			MallocRingDepth: smp.Rings.MallocDepth,
			FreeRingDepth:   smp.Rings.FreeDepth,
			ServerBusy:      smp.Server.BusyCycles,
			ServerEmptyPoll: smp.Server.EmptyPollCycles,
		})
	}
	return tl
}

func classMap(b sim.ClassBreakdown) map[string]ClassCounters {
	m := make(map[string]ClassCounters, region.NumClasses)
	for _, cls := range region.Classes() {
		c := b[cls]
		m[cls.String()] = ClassCounters{
			Loads:           c.Loads,
			Stores:          c.Stores,
			L1Misses:        c.L1Misses,
			LLCLoadMisses:   c.LLCLoadMisses,
			LLCStoreMisses:  c.LLCStoreMisses,
			DTLBLoadMisses:  c.DTLBLoadMisses,
			DTLBStoreMisses: c.DTLBStoreMisses,
		}
	}
	return m
}

// FromResult converts one harness result.
func FromResult(r harness.Result) Result {
	out := Result{
		Allocator:       r.Allocator,
		Workload:        r.Workload,
		Cycles:          r.Total.Cycles,
		Instructions:    r.Total.Instructions,
		WallCycles:      r.WallCycles,
		LLCLoadMisses:   r.Total.LLCLoadMisses,
		LLCStoreMisses:  r.Total.LLCStoreMisses,
		DTLBLoadMisses:  r.Total.DTLBLoadMisses,
		DTLBStoreMisses: r.Total.DTLBStoreMisses,
		Layout:          r.Layout,
		MetaRecordBytes: r.MetaRecordBytes,
		Classes:         classMap(r.Classes),
	}
	if r.Offload != nil {
		out.ServerClasses = classMap(r.ServerClasses)
		out.Offload = &Offload{
			MallocRing:            ringMetrics(r.Offload.MallocRing),
			FreeRing:              ringMetrics(r.Offload.FreeRing),
			ServerBusyCycles:      r.Offload.ServerBusyCycles,
			ServerIdleCycles:      r.Offload.ServerIdleCycles,
			ServerEmptyPolls:      r.Offload.ServerEmptyPolls,
			ServerEmptyPollCycles: r.Offload.ServerEmptyPollCycles,
			ServedOps:             r.Served,
		}
	}
	for _, s := range r.Servers {
		sm := ServerMetrics{
			Core:            s.Core,
			BusyCycles:      s.BusyCycles,
			IdleCycles:      s.IdleCycles,
			EmptyPolls:      s.EmptyPolls,
			EmptyPollCycles: s.EmptyPollCycles,
			ServedOps:       s.Served,
			Nacks:           s.Nacks,
			MallocRing:      ringMetrics(s.MallocRing),
			FreeRing:        ringMetrics(s.FreeRing),
		}
		for _, c := range s.Clients {
			sm.PerClient = append(sm.PerClient, ClientServiceMetrics{
				Thread:              c.ThreadID,
				ServedOps:           c.Served,
				MaxServiceGapCycles: c.MaxGapCycles,
			})
		}
		if inj := s.Injected; inj != (fault.Stats{}) {
			sm.Injected = &InjectedFaults{
				Stalls:         inj.Stalls,
				StallCycles:    inj.StallCycles,
				DoorbellDrops:  inj.DoorbellDrops,
				CorruptWords:   inj.CorruptWords,
				SlowdownCycles: inj.SlowdownCycles,
			}
		}
		out.Servers = append(out.Servers, sm)
	}
	if r.Timeline != nil {
		out.Timeline = timelineMetrics(r.Timeline)
	}
	if r.Latency != nil && r.Latency.HasSpans() {
		out.OffloadLatency = latencyMetrics(r.Latency)
	}
	if r.Resilience != nil {
		c, inj := r.Resilience.Client, r.Resilience.Injected
		out.Resilience = &Resilience{
			Timeouts:          c.Timeouts,
			Retries:           c.Retries,
			MallocNacks:       c.MallocNacks,
			FreeNacks:         c.FreeNacks,
			FallbackEntries:   c.FallbackEntries,
			FallbackExits:     c.FallbackExits,
			DegradedCycles:    c.DegradedCycles,
			EmergencyMallocs:  c.EmergencyMallocs,
			EmergencyFrees:    c.EmergencyFrees,
			DeferredFrees:     c.DeferredFrees,
			AbandonedRequests: c.AbandonedRequests,
			ReclaimedBlocks:   c.ReclaimedBlocks,

			InjectedStalls:         inj.Stalls,
			InjectedStallCycles:    inj.StallCycles,
			InjectedDoorbellDrops:  inj.DoorbellDrops,
			InjectedCorruptWords:   inj.CorruptWords,
			InjectedSlowdownCycles: inj.SlowdownCycles,
		}
	}
	if r.Failover != nil {
		fo := &Failover{
			Downs:            r.Failover.Totals.Downs,
			Rejoins:          r.Failover.Totals.Rejoins,
			ForwardedMallocs: r.Failover.Totals.ForwardedMallocs,
			DroppedEvents:    r.Failover.Totals.DroppedEvents,
		}
		for _, c := range r.Failover.Clients {
			fo.Clients = append(fo.Clients, FailoverClient{
				Thread:           c.Thread,
				HomeShard:        c.HomeShard,
				ActiveShard:      c.ActiveShard,
				Downs:            c.Downs,
				Rejoins:          c.Rejoins,
				ForwardedMallocs: c.ForwardedMallocs,
			})
		}
		for _, e := range r.Failover.Events {
			fo.Events = append(fo.Events, FailoverEvent{
				Cycle: e.Cycle, Thread: e.Thread, From: e.From, To: e.To,
			})
		}
		out.Failover = fo
	}
	if r.SLO.HasData() {
		out.SLO = sloMetrics(r.SLO)
	}
	if r.Warp.Windows > 0 {
		out.Warp = &Warp{
			Windows:      r.Warp.Windows,
			Rounds:       r.Warp.Rounds,
			CyclesWarped: r.Warp.CyclesWarped,
			LargestSkip:  r.Warp.LargestSkip,
		}
	}
	return out
}

// FromResults converts a result slice into one experiment.
func FromResults(id string, rs []harness.Result) Experiment {
	e := Experiment{ID: id}
	for _, r := range rs {
		e.Results = append(e.Results, FromResult(r))
	}
	return e
}

// NewFile wraps experiments in a versioned file object.
func NewFile(exps ...Experiment) File {
	return File{Schema: Schema, Experiments: exps}
}

// Encode renders the file as indented JSON.
func (f File) Encode() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// WriteFile writes the file to path, reporting close errors (the last
// chance to see ENOSPC).
func (f File) WriteFile(path string) error {
	data, err := f.Encode()
	if err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := out.Write(append(data, '\n')); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Validate checks that data is a well-formed ngm-metrics/v1 document:
// right schema tag, at least one experiment, every result carrying an
// allocator, a workload, and a class map with all four classes.
func Validate(data []byte) error {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("metrics: not valid JSON: %w", err)
	}
	if f.Schema != Schema {
		return fmt.Errorf("metrics: schema %q, want %q", f.Schema, Schema)
	}
	if len(f.Experiments) == 0 {
		return fmt.Errorf("metrics: no experiments")
	}
	for _, e := range f.Experiments {
		if e.ID == "" {
			return fmt.Errorf("metrics: experiment with empty id")
		}
		if len(e.Results) == 0 {
			return fmt.Errorf("metrics: experiment %q has no results", e.ID)
		}
		for i, r := range e.Results {
			if r.Allocator == "" || r.Workload == "" {
				return fmt.Errorf("metrics: experiment %q result %d lacks allocator/workload", e.ID, i)
			}
			switch r.Layout {
			case "", "segregated", "aggregated", "compact":
			default:
				return fmt.Errorf("metrics: experiment %q result %d (%s/%s) has unknown layout %q",
					e.ID, i, r.Allocator, r.Workload, r.Layout)
			}
			for _, cls := range region.Classes() {
				if _, ok := r.Classes[cls.String()]; !ok {
					return fmt.Errorf("metrics: experiment %q result %d (%s/%s) missing class %q",
						e.ID, i, r.Allocator, r.Workload, cls)
				}
			}
			if err := validateTimeline(e.ID, i, r.Timeline); err != nil {
				return err
			}
			if err := validateLatency(e.ID, i, r.OffloadLatency); err != nil {
				return err
			}
			if err := validateResilience(e.ID, i, r.Resilience); err != nil {
				return err
			}
			if err := validateWarp(e.ID, i, r.Warp); err != nil {
				return err
			}
			if err := validateServers(e.ID, i, r.Servers, r.Offload); err != nil {
				return err
			}
			if err := validateFailover(e.ID, i, r.Failover, len(r.Servers)); err != nil {
				return err
			}
			if err := validateSLO(e.ID, i, r.SLO); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateServers checks the sharded-fleet accounting: each server's
// per-client service counts sum to its served total, and the per-server
// served totals sum to the fleet-wide offload count.
func validateServers(exp string, i int, srvs []ServerMetrics, off *Offload) error {
	if len(srvs) == 0 {
		return nil
	}
	var fleetServed uint64
	for j, s := range srvs {
		var clientSum uint64
		for _, c := range s.PerClient {
			clientSum += c.ServedOps
		}
		if clientSum != s.ServedOps {
			return fmt.Errorf("metrics: experiment %q result %d server %d per-client ops sum to %d but served_ops is %d",
				exp, i, j, clientSum, s.ServedOps)
		}
		fleetServed += s.ServedOps
	}
	if off != nil && fleetServed != off.ServedOps {
		return fmt.Errorf("metrics: experiment %q result %d servers sum to %d served ops but offload reports %d",
			exp, i, fleetServed, off.ServedOps)
	}
	return nil
}

// validateSLO checks the per-tenant SLO accounting: windows never count
// more violations than requests, window and tenant request counts each
// partition the completed total, per-tenant violations sum to the run
// total, and every tenant that completed a request carries monotone
// percentiles (p50 ≤ p99 ≤ p999 ≤ max).
func validateSLO(exp string, i int, s *SLO) error {
	if s == nil {
		return nil
	}
	if s.WindowCycles == 0 {
		return fmt.Errorf("metrics: experiment %q result %d slo has zero window width", exp, i)
	}
	var winRequests, winViolations uint64
	for j, w := range s.Windows {
		if w.Violations > w.Requests {
			return fmt.Errorf("metrics: experiment %q result %d slo window %d has %d violations for %d requests",
				exp, i, j, w.Violations, w.Requests)
		}
		if j > 0 && w.StartCycle <= s.Windows[j-1].StartCycle {
			return fmt.Errorf("metrics: experiment %q result %d slo window starts not increasing at %d", exp, i, j)
		}
		winRequests += w.Requests
		winViolations += w.Violations
	}
	if winRequests != s.CompletedRequests {
		return fmt.Errorf("metrics: experiment %q result %d slo windows hold %d requests but completed_requests is %d",
			exp, i, winRequests, s.CompletedRequests)
	}
	if winViolations != s.Violations {
		return fmt.Errorf("metrics: experiment %q result %d slo windows hold %d violations but total is %d",
			exp, i, winViolations, s.Violations)
	}
	if s.WorstWindow != nil && s.WorstWindow.Violations > s.WorstWindow.Requests {
		return fmt.Errorf("metrics: experiment %q result %d slo worst window has %d violations for %d requests",
			exp, i, s.WorstWindow.Violations, s.WorstWindow.Requests)
	}
	var tenRequests, tenAbandons, tenViolations uint64
	for j, t := range s.Tenants {
		if j > 0 && t.Tenant <= s.Tenants[j-1].Tenant {
			return fmt.Errorf("metrics: experiment %q result %d slo tenants not sorted at %d", exp, i, j)
		}
		if t.Violations > t.Requests {
			return fmt.Errorf("metrics: experiment %q result %d slo tenant %d has %d violations for %d requests",
				exp, i, t.Tenant, t.Violations, t.Requests)
		}
		if t.WorstWindowViolations > t.Violations {
			return fmt.Errorf("metrics: experiment %q result %d slo tenant %d worst window exceeds its violations",
				exp, i, t.Tenant)
		}
		if t.Requests > 0 {
			if t.P50 > t.P99 || t.P99 > t.P999 || t.P999 > t.Max {
				return fmt.Errorf("metrics: experiment %q result %d slo tenant %d percentiles not monotone",
					exp, i, t.Tenant)
			}
		}
		var clsRequests, clsViolations uint64
		for name, c := range t.Classes {
			if c.Violations > c.Requests {
				return fmt.Errorf("metrics: experiment %q result %d slo tenant %d class %s has %d violations for %d requests",
					exp, i, t.Tenant, name, c.Violations, c.Requests)
			}
			clsRequests += c.Requests
			clsViolations += c.Violations
		}
		if len(t.Classes) > 0 && clsRequests != t.Requests {
			return fmt.Errorf("metrics: experiment %q result %d slo tenant %d classes hold %d requests of %d",
				exp, i, t.Tenant, clsRequests, t.Requests)
		}
		if len(t.Classes) > 0 && clsViolations != t.Violations {
			return fmt.Errorf("metrics: experiment %q result %d slo tenant %d classes hold %d violations of %d",
				exp, i, t.Tenant, clsViolations, t.Violations)
		}
		tenRequests += t.Requests
		tenAbandons += t.Abandons
		tenViolations += t.Violations
	}
	if tenRequests != s.CompletedRequests {
		return fmt.Errorf("metrics: experiment %q result %d slo tenants hold %d requests but completed_requests is %d",
			exp, i, tenRequests, s.CompletedRequests)
	}
	if tenAbandons != s.AbandonedRequests {
		return fmt.Errorf("metrics: experiment %q result %d slo tenants hold %d abandons but abandoned_requests is %d",
			exp, i, tenAbandons, s.AbandonedRequests)
	}
	if tenViolations != s.Violations {
		return fmt.Errorf("metrics: experiment %q result %d slo tenants hold %d violations but total is %d",
			exp, i, tenViolations, s.Violations)
	}
	if s.WorstBurnRate < 0 {
		return fmt.Errorf("metrics: experiment %q result %d slo has negative burn rate", exp, i)
	}
	return nil
}

// validateFailover checks the fleet failover accounting: per client,
// every rejoin pairs with an earlier down and every down was a
// forwarded malloc (rejoins ≤ downs ≤ forwarded_mallocs); the totals
// sum the clients; shard indices stay inside the fleet; and the event
// log plus its overflow count exactly covers the transitions.
func validateFailover(exp string, i int, fo *Failover, servers int) error {
	if fo == nil {
		return nil
	}
	var downs, rejoins, forwarded uint64
	for _, c := range fo.Clients {
		if c.Rejoins > c.Downs {
			return fmt.Errorf("metrics: experiment %q result %d failover client %d has %d rejoins for %d downs",
				exp, i, c.Thread, c.Rejoins, c.Downs)
		}
		if c.Downs > c.ForwardedMallocs {
			return fmt.Errorf("metrics: experiment %q result %d failover client %d has %d downs but only %d forwarded mallocs",
				exp, i, c.Thread, c.Downs, c.ForwardedMallocs)
		}
		if servers > 0 && (c.HomeShard < 0 || c.HomeShard >= servers || c.ActiveShard < 0 || c.ActiveShard >= servers) {
			return fmt.Errorf("metrics: experiment %q result %d failover client %d homed %d/active %d outside %d shards",
				exp, i, c.Thread, c.HomeShard, c.ActiveShard, servers)
		}
		downs += c.Downs
		rejoins += c.Rejoins
		forwarded += c.ForwardedMallocs
	}
	if downs != fo.Downs || rejoins != fo.Rejoins || forwarded != fo.ForwardedMallocs {
		return fmt.Errorf("metrics: experiment %q result %d failover clients sum to %d/%d/%d but totals are %d/%d/%d",
			exp, i, downs, rejoins, forwarded, fo.Downs, fo.Rejoins, fo.ForwardedMallocs)
	}
	if uint64(len(fo.Events))+fo.DroppedEvents != fo.Downs+fo.Rejoins {
		return fmt.Errorf("metrics: experiment %q result %d failover logs %d events + %d dropped for %d transitions",
			exp, i, len(fo.Events), fo.DroppedEvents, fo.Downs+fo.Rejoins)
	}
	for j, e := range fo.Events {
		if e.From == e.To {
			return fmt.Errorf("metrics: experiment %q result %d failover event %d moves shard %d to itself",
				exp, i, j, e.From)
		}
		if j > 0 && e.Cycle < fo.Events[j-1].Cycle {
			return fmt.Errorf("metrics: experiment %q result %d failover event cycles not monotone at %d", exp, i, j)
		}
		if servers > 0 && (e.From < 0 || e.From >= servers || e.To < 0 || e.To >= servers) {
			return fmt.Errorf("metrics: experiment %q result %d failover event %d outside %d shards", exp, i, j, servers)
		}
	}
	return nil
}

func validateResilience(exp string, i int, rz *Resilience) error {
	if rz == nil {
		return nil
	}
	if rz.FallbackExits > rz.FallbackEntries {
		return fmt.Errorf("metrics: experiment %q result %d resilience has %d fallback exits but %d entries",
			exp, i, rz.FallbackExits, rz.FallbackEntries)
	}
	if rz.DegradedCycles > 0 && rz.FallbackEntries == 0 {
		return fmt.Errorf("metrics: experiment %q result %d resilience has degraded cycles without a fallback entry",
			exp, i)
	}
	if rz.ReclaimedBlocks > rz.AbandonedRequests {
		return fmt.Errorf("metrics: experiment %q result %d resilience reclaimed %d blocks of %d abandoned",
			exp, i, rz.ReclaimedBlocks, rz.AbandonedRequests)
	}
	if rz.Retries > rz.Timeouts+rz.MallocNacks+rz.FreeNacks {
		return fmt.Errorf("metrics: experiment %q result %d resilience has %d retries for %d timeouts+nacks",
			exp, i, rz.Retries, rz.Timeouts+rz.MallocNacks+rz.FreeNacks)
	}
	return nil
}

// validateWarp checks the time-warp ledger's internal arithmetic:
// every window skips at least one round, every skipped round advances
// a thread clock by at least one cycle (so rounds ≤ cycles), and no
// single skip exceeds the total skipped. The ledger is deliberately
// not compared against the PMU cycle totals: those cover the measured
// region of the worker cores, while warp also fires on the server core
// and outside the measured region (startup barriers, teardown drains).
func validateWarp(exp string, i int, w *Warp) error {
	if w == nil {
		return nil
	}
	if w.Windows == 0 {
		return fmt.Errorf("metrics: experiment %q result %d warp block present with zero windows", exp, i)
	}
	if w.Rounds < w.Windows {
		return fmt.Errorf("metrics: experiment %q result %d warp has %d windows but only %d rounds",
			exp, i, w.Windows, w.Rounds)
	}
	if w.CyclesWarped < w.Rounds {
		return fmt.Errorf("metrics: experiment %q result %d warp skipped %d rounds but only %d cycles",
			exp, i, w.Rounds, w.CyclesWarped)
	}
	if w.LargestSkip > w.CyclesWarped {
		return fmt.Errorf("metrics: experiment %q result %d warp largest skip %d exceeds total %d warped",
			exp, i, w.LargestSkip, w.CyclesWarped)
	}
	return nil
}

func validateTimeline(exp string, i int, tl *Timeline) error {
	if tl == nil {
		return nil
	}
	if tl.IntervalCycles == 0 {
		return fmt.Errorf("metrics: experiment %q result %d timeline has zero interval", exp, i)
	}
	if len(tl.Samples) == 0 {
		return fmt.Errorf("metrics: experiment %q result %d timeline has no samples", exp, i)
	}
	for j := 1; j < len(tl.Samples); j++ {
		if tl.Samples[j].Cycle <= tl.Samples[j-1].Cycle {
			return fmt.Errorf("metrics: experiment %q result %d timeline cycles not increasing at sample %d",
				exp, i, j)
		}
	}
	return nil
}

func validateLatency(exp string, i int, ol *OffloadLatency) error {
	if ol == nil {
		return nil
	}
	ops := []struct {
		name string
		op   *OpLatency
	}{{"malloc", ol.Malloc}, {"free", ol.Free}}
	present := false
	for _, o := range ops {
		if o.op == nil {
			continue
		}
		present = true
		for _, d := range []struct {
			name string
			dig  LatencyDigest
		}{{"queue_wait", o.op.QueueWait}, {"service", o.op.Service}, {"end_to_end", o.op.EndToEnd}} {
			if d.dig.Count == 0 {
				return fmt.Errorf("metrics: experiment %q result %d offload_latency %s.%s has zero count",
					exp, i, o.name, d.name)
			}
			if d.dig.P50 > d.dig.P90 || d.dig.P90 > d.dig.P99 || d.dig.P99 > d.dig.Max {
				return fmt.Errorf("metrics: experiment %q result %d offload_latency %s.%s percentiles not monotone",
					exp, i, o.name, d.name)
			}
		}
	}
	if !present {
		return fmt.Errorf("metrics: experiment %q result %d offload_latency present but empty", exp, i)
	}
	return nil
}
