package harness

import (
	"reflect"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/workload"
)

// warpCases are the configurations the warp-equivalence gate covers:
// plain offload, synchronous offload (client response spins), adaptive
// prealloc (idle top-up gauges in the steady round), an armed fault
// plan with resilience (stall horizons and deadline waits), an armed
// timeline sampler (probe cadence must survive warp), a sharded fleet
// (four servers each polling their own clients' rings while eight
// workers spin on responses), a fleet whose shard 0 stalls periodically
// under failover (bounded waits, forwarded mallocs, and rejoin probes
// polled and answered), two-client servers under the policies that
// re-check every malloc ring between frees (doorbell-priority parks;
// round-robin's rotating start never repeats a round), and the
// benchmark's service_failover configuration (an open-loop service on a
// four-shard fleet with periodic outages, SLO tracking and failover).
func warpCases() map[string]Options {
	o := slo.DefaultOptions()
	o.SpanCap = 8 * 200
	return map[string]Options{
		"offload": {
			Allocator: "nextgen",
			Workload:  &workload.Xmalloc{NThreads: 4, OpsPerThread: 600, TouchBytes: 64, Seed: 3},
		},
		"offload-sync": {
			Allocator: "nextgen-sync",
			Workload:  &workload.Xmalloc{NThreads: 3, OpsPerThread: 400, TouchBytes: 64, Seed: 5},
		},
		"offload-adaptive": {
			Allocator: "nextgen-adaptive",
			Workload:  workload.DefaultXalanc(1500),
		},
		"fault-stall": {
			Allocator:  "nextgen",
			Workload:   &workload.Xmalloc{NThreads: 3, OpsPerThread: 500, TouchBytes: 64, Seed: 7},
			FaultPlans: []fault.Plan{{Seed: 7, StallCycles: 60000, StallStart: 40000, StallPeriod: 200000}},
		},
		"fault-drops": {
			Allocator:  "nextgen",
			Workload:   &workload.Xmalloc{NThreads: 3, OpsPerThread: 400, TouchBytes: 64, Seed: 9},
			FaultPlans: []fault.Plan{{Seed: 11, DropEveryN: 64, CorruptEveryN: 128}},
		},
		"fleet": {
			Allocator: "nextgen",
			Workload:  &workload.Xmalloc{NThreads: 8, OpsPerThread: 400, TouchBytes: 64, Seed: 3},
			Servers:   4,
		},
		"fleet-failover": {
			Allocator:  "nextgen",
			Workload:   fleetXalanc(4, 3000),
			Servers:    4,
			FaultPlans: []fault.Plan{{Seed: 1, StallStart: 200000, StallCycles: 600000, StallPeriod: 2000000, Shard: 1}},
			Resilience: patientFailover(),
		},
		"timeline-armed": {
			Allocator:      "nextgen",
			Workload:       &workload.Xmalloc{NThreads: 4, OpsPerThread: 600, TouchBytes: 64, Seed: 3},
			SampleInterval: 5000,
		},
		"sched-doorbell-2": {
			Allocator: "nextgen:sched=doorbell-priority",
			Workload:  &workload.Xmalloc{NThreads: 2, OpsPerThread: 600, TouchBytes: 64, Seed: 3},
		},
		"sched-round-robin-2": {
			Allocator: "nextgen:sched=round-robin",
			Workload:  &workload.Xmalloc{NThreads: 2, OpsPerThread: 600, TouchBytes: 64, Seed: 3},
		},
		"service-failover": {
			Allocator: "nextgen",
			Servers:   4,
			Workload: &workload.Service{NWorkers: 8, RequestsPerWorker: 200, Tenants: 2,
				MeanGapCycles: 60000, BurstLen: 1, Seed: 1000},
			SLO:        &o,
			FaultPlans: []fault.Plan{{Seed: 1, StallStart: 200000, StallCycles: 500000, StallPeriod: 2000000, Shard: 1}},
			Resilience: &core.Resilience{Enabled: true, TimeoutCycles: 100000, MaxRetries: 2, BackoffCycles: 8000,
				FallbackAfter: 1, ProbeCycles: 100000, MaxRequestBytes: 1 << 24, FailoverAfter: 1},
		},
	}
}

func runWithWarp(opt Options, warp bool) Result {
	cfg := sim.ScaledConfig()
	cfg.Warp = warp
	opt.Machine = &cfg
	return Run(opt)
}

// TestWarpEquivalence is the second gate behind the golden suite: an
// entire Result — every PMU counter, class attribution, ring/server
// telemetry word, timeline sample, latency digest, and resilience
// ledger — must be deeply equal with warp on and off. Only the Warp
// ledger itself may differ (it reports what the fast path skipped).
func TestWarpEquivalence(t *testing.T) {
	for name, opt := range warpCases() {
		opt := opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			off := runWithWarp(opt, false)
			on := runWithWarp(opt, true)
			if off.Warp != (sim.WarpStats{}) {
				t.Fatalf("warp-off run reported warp activity: %+v", off.Warp)
			}
			warp := on.Warp
			off.Warp, on.Warp = sim.WarpStats{}, sim.WarpStats{}
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("warp changed the simulation:\noff: %+v\non:  %+v", off, on)
			}
			t.Logf("windows=%d rounds=%d cyclesWarped=%d largest=%d",
				warp.Windows, warp.Rounds, warp.CyclesWarped, warp.LargestSkip)
			if name == "service-failover" {
				if fo := on.Failover; fo == nil || fo.Totals.Downs == 0 {
					t.Fatalf("no shard failed over: %+v", fo)
				}
			}
			if name == "fleet-failover" {
				// The case must keep driving failover both ways: down
				// (forwarded mallocs) and back (a rejoin probe answered).
				fo := on.Failover
				if fo == nil || fo.Totals.Downs == 0 || fo.Totals.Rejoins == 0 {
					t.Fatalf("failover not exercised both ways: %+v", fo)
				}
				rz := on.Resilience.Client
				t.Logf("downs=%d rejoins=%d forwarded=%d abandoned=%d reclaimed=%d",
					fo.Totals.Downs, fo.Totals.Rejoins, fo.Totals.ForwardedMallocs,
					rz.AbandonedRequests, rz.ReclaimedBlocks)
				// The rejoin probe is the abandoned malloc itself, so its
				// block comes back when the shard does.
				if rz.AbandonedRequests == 0 || rz.ReclaimedBlocks != rz.AbandonedRequests {
					t.Fatalf("reclaimed %d of %d abandoned mallocs", rz.ReclaimedBlocks, rz.AbandonedRequests)
				}
			}
		})
	}
}

// TestWarpEngages pins that the fast path actually fires on idle-heavy
// offload runs — the empty-poll windows it exists to skip — that the
// ledger is consistent with the run, that on a fleet the servers
// themselves park (not only the clients' response spins), and that on
// the service fleet most parked leases take the cheap check alone.
func TestWarpEngages(t *testing.T) {
	cases := map[string]Options{
		"offload": {
			Allocator: "nextgen",
			Workload:  &workload.Xmalloc{NThreads: 2, OpsPerThread: 800, TouchBytes: 256, Seed: 3},
		},
		"fleet":            warpCases()["fleet"],
		"service-failover": warpCases()["service-failover"],
	}
	for name, opt := range cases {
		res := runWithWarp(opt, true)
		w := res.Warp
		if w.Windows == 0 || w.Rounds == 0 || w.CyclesWarped == 0 || w.Parks == 0 {
			t.Fatalf("%s: warp never engaged on an idle-heavy run: %+v", name, w)
		}
		if w.LargestSkip > w.CyclesWarped {
			t.Fatalf("%s: largest skip %d exceeds total warped cycles %d", name, w.LargestSkip, w.CyclesWarped)
		}
		if w.Rounds < w.Windows {
			t.Fatalf("%s: %d windows but only %d rounds", name, w.Windows, w.Rounds)
		}
		if w.ParkedLeases < w.Parks || w.DaemonParks > w.Parks {
			t.Fatalf("%s: %d parks (%d by daemons) but %d parked leases", name, w.Parks, w.DaemonParks, w.ParkedLeases)
		}
		if name == "fleet" && w.DaemonParks == 0 {
			t.Fatalf("fleet: no server ever parked: %+v", w)
		}
		if w.FullChecks < w.Parks || w.FullChecks > w.ParkedLeases {
			t.Fatalf("%s: %d full checks for %d parks and %d parked leases", name, w.FullChecks, w.Parks, w.ParkedLeases)
		}
		if name == "service-failover" && w.FullChecks >= w.ParkedLeases/5 {
			t.Fatalf("service-failover: %d of %d parked leases ran the full check", w.FullChecks, w.ParkedLeases)
		}
		t.Logf("%s: %+v (wall=%d)", name, w, res.WallCycles)
	}
}
