package harness

import (
	"reflect"
	"testing"

	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/workload"
)

// warpCases are the configurations the warp-equivalence gate covers:
// plain offload, synchronous offload (client response spins), adaptive
// prealloc (idle top-up gauges in the steady round), an armed fault
// plan with resilience (stall horizons and deadline waits), an armed
// timeline sampler (probe cadence must survive warp), a sharded fleet
// (four servers each declaring their own clients' ring poll words while
// eight workers spin on responses), and a fleet whose shard 1 stalls
// periodically under failover (bounded waits, forwarded mallocs, and
// rejoin probes polled and answered).
func warpCases() map[string]Options {
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

// TestWarpEngages pins that the fast path actually fires on an
// idle-heavy offload run — the empty-poll windows the tentpole exists
// to skip — and that the ledger is consistent with the run.
func TestWarpEngages(t *testing.T) {
	res := runWithWarp(Options{
		Allocator: "nextgen",
		Workload:  &workload.Xmalloc{NThreads: 2, OpsPerThread: 800, TouchBytes: 256, Seed: 3},
	}, true)
	w := res.Warp
	if w.Windows == 0 || w.Rounds == 0 || w.CyclesWarped == 0 {
		t.Fatalf("warp never engaged on an idle-heavy run: %+v", w)
	}
	if w.LargestSkip > w.CyclesWarped {
		t.Fatalf("largest skip %d exceeds total warped cycles %d", w.LargestSkip, w.CyclesWarped)
	}
	if w.Rounds < w.Windows {
		t.Fatalf("%d windows but only %d rounds", w.Windows, w.Rounds)
	}
	t.Logf("windows=%d rounds=%d cyclesWarped=%d largest=%d (wall=%d)",
		w.Windows, w.Rounds, w.CyclesWarped, w.LargestSkip, res.WallCycles)
}
