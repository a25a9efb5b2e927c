package harness

import (
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/workload"
)

// patientFailover is the fleet fault tests' degradation policy: the
// timeout outlives a first-touch malloc (the server carving a class's
// initial slab runs ~90k busy cycles at the scaled geometry), so only
// an injected stall — never a cold shard — exhausts the ladder, and
// FailoverAfter 1 re-homes a client on its first abandoned request.
func patientFailover() *core.Resilience {
	return &core.Resilience{
		Enabled:         true,
		TimeoutCycles:   100000,
		MaxRetries:      2,
		BackoffCycles:   8000,
		FallbackAfter:   1,
		ProbeCycles:     100000,
		FailoverAfter:   1,
		MaxRequestBytes: 1 << 24,
	}
}

// TestFleetFailoverPermanentKill is the PR's acceptance invariant: with
// one of four shards permanently killed, failover keeps every malloc
// off the emergency tier (the healthy shards absorb the traffic), the
// ledger still balances at shutdown, and only the killed shard's
// clients re-home. The same kill without failover demonstrates the
// counterfactual — the killed shard's clients live on the emergency
// allocator for the rest of the run.
func TestFleetFailoverPermanentKill(t *testing.T) {
	run := func(failover bool) Result {
		r := patientFailover()
		if !failover {
			r.FailoverAfter = 0
		}
		return Run(Options{
			Allocator:  "nextgen",
			Workload:   fleetXalanc(4, 4000),
			Servers:    4,
			FaultPlans: []fault.Plan{{Seed: 1, StallStart: 200000, StallCycles: 1 << 26, Shard: 1}},
			Resilience: r,
		})
	}

	res := run(true)
	if err := res.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	if res.Failover == nil {
		t.Fatal("armed failover produced no telemetry")
	}
	fo := res.Failover
	if fo.Totals.Downs == 0 || fo.Totals.ForwardedMallocs == 0 {
		t.Fatalf("permanent kill never re-homed a client: %+v", fo.Totals)
	}
	if fo.Totals.Rejoins != 0 {
		t.Errorf("%d clients rejoined a permanently dead shard", fo.Totals.Rejoins)
	}
	for _, c := range fo.Clients {
		if c.HomeShard == 0 {
			if c.Downs == 0 || c.ActiveShard == 0 {
				t.Errorf("killed shard's client %d never left: %+v", c.Thread, c)
			}
		} else if c.Downs != 0 || c.ActiveShard != c.HomeShard {
			t.Errorf("healthy shard's client %d re-homed: %+v", c.Thread, c)
		}
	}
	if em := res.Resilience.Client.EmergencyMallocs; em != 0 {
		t.Errorf("failover left %d mallocs on the emergency tier with healthy shards available", em)
	}
	for i, sv := range res.Servers {
		if sv.Served == 0 {
			t.Errorf("shard %d served nothing (shard 0 should serve pre-kill, the rest absorb the failover)", i)
		}
	}

	em := run(false)
	if err := em.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	if em.Failover != nil {
		t.Errorf("disarmed run recorded failover telemetry: %+v", em.Failover.Totals)
	}
	if em.Resilience.Client.EmergencyMallocs == 0 {
		t.Error("emergency-only run never touched the emergency tier under a permanent kill")
	}
}

// TestFleetMidBatchShardDeathLiveness (mid-batch death): a shard stalls
// while its clients hold half-flushed free lines (frees staged
// unpublished in the ring). Under every service policy the
// run must complete with the ledger balanced — the degraded client's
// staged slots are republished and drained, later frees ride the
// deferred queue — and the finite stall must end in a probe-driven
// rejoin.
func TestFleetMidBatchShardDeathLiveness(t *testing.T) {
	// Two stall windows. The early one (the original cell) opens at 100k
	// cycles, inside the first batches, when the slot table is ~2 % full:
	// few of the dead shard's blocks exist yet, so whether any free is
	// deferred there is timing luck (at most one was, a reclaimed late
	// response) and the cell asserts liveness, failover and rejoin only.
	// The late one opens once the table is mostly populated, so the
	// degraded window catches dozens of frees of the dead shard's blocks.
	for _, c := range []struct {
		prefix      string
		stallStart  uint64
		minDeferred uint64
	}{
		{"", 100000, 0},
		{"late-stall/", 1000000, 10},
	} {
		for _, sched := range []core.SchedPolicy{core.FixedScan, core.RoundRobin, core.DoorbellPriority, core.BatchDrain} {
			t.Run(c.prefix+sched.String(), func(t *testing.T) {
				// Churn frees a slot on every round (xalanc's phases can spend
				// a whole degraded window in an allocation burst).
				res := Run(Options{
					Allocator:  "nextgen:sched=" + sched.String(),
					Workload:   &workload.Churn{NThreads: 2, Slots: 1000, Rounds: 10000, MinSize: 16, MaxSize: 256, TouchBytes: 32, Seed: 7},
					Servers:    2,
					FaultPlans: []fault.Plan{{Seed: 3, StallStart: c.stallStart, StallCycles: 400000, Shard: 1}},
					Resilience: patientFailover(),
				})
				if err := res.CheckLiveness(); err != nil {
					t.Fatal(err)
				}
				if res.Resilience == nil || res.Resilience.Injected.Stalls == 0 {
					t.Fatal("stall plan injected nothing")
				}
				if res.Failover == nil || res.Failover.Totals.Downs == 0 {
					t.Fatal("mid-batch shard death never re-homed the client")
				}
				if res.Failover.Totals.Rejoins == 0 {
					t.Error("client never rejoined after the finite stall")
				}
				if got := res.Resilience.Client.DeferredFrees; got < c.minDeferred {
					t.Errorf("%d frees deferred across the shard death, want at least %d", got, c.minDeferred)
				}
			})
		}
	}
}
