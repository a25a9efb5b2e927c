package harness

import (
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/workload"
)

// quickResilience is an impatient policy so short test workloads hit
// the degradation path inside an injected fault window.
func quickResilience() *core.Resilience {
	return &core.Resilience{
		Enabled:       true,
		TimeoutCycles: 4000,
		MaxRetries:    1,
		BackoffCycles: 512,
		FallbackAfter: 1,
		ProbeCycles:   10000,
	}
}

// TestFaultRunLiveness is the PR's headline invariant: across every
// fault shape, no request is ever lost — each one completes, is NACKed,
// or is served by the local fallback.
func TestFaultRunLiveness(t *testing.T) {
	plans := map[string]fault.Plan{
		"stall":    {StallCycles: 150000, StallStart: 50000},
		"periodic": {StallCycles: 40000, StallStart: 30000, StallPeriod: 120000},
		"drop":     {Seed: 5, DropEveryN: 32},
		"corrupt":  {Seed: 5, CorruptEveryN: 64},
		"slow":     {SlowFactor: 4},
		"combined": {Seed: 9, StallCycles: 80000, StallStart: 40000, DropEveryN: 64, CorruptEveryN: 128},
	}
	for name, plan := range plans {
		plan := plan
		t.Run(name, func(t *testing.T) {
			w := workload.DefaultXalanc(3000)
			w.NodeSlots = 2000
			res := Run(Options{
				Allocator:  "nextgen",
				Workload:   w,
				FaultPlans: []fault.Plan{plan},
				Resilience: quickResilience(),
			})
			if err := res.CheckLiveness(); err != nil {
				t.Fatal(err)
			}
			if res.Resilience == nil {
				t.Fatal("fault run produced no resilience telemetry")
			}
			rt := res.Resilience
			if rt.Client.ReclaimedBlocks > rt.Client.AbandonedRequests {
				t.Errorf("reclaimed %d > abandoned %d",
					rt.Client.ReclaimedBlocks, rt.Client.AbandonedRequests)
			}
			if rt.Client.FallbackExits > rt.Client.FallbackEntries {
				t.Errorf("fallback exits %d > entries %d",
					rt.Client.FallbackExits, rt.Client.FallbackEntries)
			}
			t.Logf("%s: client %+v injected %+v", name, rt.Client, rt.Injected)
		})
	}
}

// TestStallPlanDegrades pins the expected arc of a long mid-run stall:
// the injector actually stalled the server and the client actually fell
// back (the sweep's headline numbers are not vacuously zero).
func TestStallPlanDegrades(t *testing.T) {
	w := workload.DefaultXalanc(3000)
	w.NodeSlots = 2000
	res := Run(Options{
		Allocator:  "nextgen",
		Workload:   w,
		FaultPlans: []fault.Plan{{StallCycles: 150000, StallStart: 50000}},
		Resilience: quickResilience(),
	})
	rt := res.Resilience
	if rt.Injected.Stalls == 0 || rt.Injected.StallCycles == 0 {
		t.Fatalf("stall plan injected nothing: %+v", rt.Injected)
	}
	if rt.Client.FallbackEntries == 0 || rt.Client.EmergencyMallocs == 0 {
		t.Fatalf("client never degraded across a 150k-cycle stall: %+v", rt.Client)
	}
}

// TestStallReclaimsEveryAbandonedMalloc: a stalled server that comes
// back costs the client no memory. Every malloc whose wait gave up
// stays pending until its late answer comes, and its block is taken
// back and freed.
func TestStallReclaimsEveryAbandonedMalloc(t *testing.T) {
	r := core.DefaultResilience()
	res := Run(Options{
		Allocator:  "nextgen",
		Workload:   workload.DefaultXalanc(20000),
		FaultPlans: []fault.Plan{{StallStart: 400000, StallCycles: 600000, StallPeriod: 3000000}},
		Resilience: &r,
	})
	rz := res.Resilience.Client
	t.Logf("client %+v", rz)
	if rz.AbandonedRequests == 0 || rz.ReclaimedBlocks != rz.AbandonedRequests {
		t.Fatalf("reclaimed %d of %d abandoned mallocs", rz.ReclaimedBlocks, rz.AbandonedRequests)
	}
	if err := res.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultRunDeterminism: fault injection is seeded, so a faulty run
// is as reproducible as a clean one.
func TestFaultRunDeterminism(t *testing.T) {
	run := func() Result {
		w := workload.DefaultXalanc(2000)
		w.NodeSlots = 1500
		return Run(Options{
			Allocator:  "nextgen",
			Workload:   w,
			FaultPlans: []fault.Plan{{Seed: 7, StallCycles: 60000, StallStart: 40000, CorruptEveryN: 128}},
			Resilience: quickResilience(),
		})
	}
	a, b := run(), run()
	if a.Total != b.Total {
		t.Fatalf("nondeterministic totals under faults:\n%+v\n%+v", a.Total, b.Total)
	}
	if a.Resilience.Client != b.Resilience.Client || a.Resilience.Injected != b.Resilience.Injected {
		t.Fatalf("nondeterministic resilience telemetry:\n%+v\n%+v", a.Resilience, b.Resilience)
	}
}

// TestFaultPlanAutoDefaultsResilience: an armed plan with no explicit
// policy must arm core.DefaultResilience rather than run the seed
// blocking protocol into an injected fault.
func TestFaultPlanAutoDefaultsResilience(t *testing.T) {
	w := workload.DefaultXalanc(1500)
	w.NodeSlots = 1000
	res := Run(Options{
		Allocator:  "nextgen",
		Workload:   w,
		FaultPlans: []fault.Plan{{SlowFactor: 2}},
	})
	if res.Resilience == nil {
		t.Fatal("auto-defaulted resilience produced no telemetry")
	}
	if res.Resilience.Injected.SlowdownCycles == 0 {
		t.Error("slow-down plan injected nothing")
	}
	if err := res.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanIgnoredOffRing: fault plans target the offload
// transport; a non-offload allocator runs clean and reports no
// resilience telemetry.
func TestFaultPlanIgnoredOffRing(t *testing.T) {
	w := workload.DefaultXalanc(1500)
	w.NodeSlots = 1000
	res := Run(Options{
		Allocator:  "mimalloc",
		Workload:   w,
		FaultPlans: []fault.Plan{{StallCycles: 50000}},
	})
	if res.Resilience != nil {
		t.Fatalf("non-offload run grew resilience telemetry: %+v", res.Resilience)
	}
	if !OffloadKind("nextgen") || OffloadKind("mimalloc") {
		t.Error("OffloadKind misclassifies")
	}
}

// TestResilienceDisabledMatchesSeed: an explicitly disabled policy (and
// no plan) must leave every counter exactly where the seed protocol
// puts it — the golden suite's guarantee, restated at the options
// boundary.
func TestResilienceDisabledMatchesSeed(t *testing.T) {
	run := func(r *core.Resilience) Result {
		w := workload.DefaultXalanc(2000)
		w.NodeSlots = 1500
		return Run(Options{Allocator: "nextgen", Workload: w, Resilience: r})
	}
	seed, off := run(nil), run(&core.Resilience{})
	if seed.Total != off.Total {
		t.Fatalf("explicitly disabled resilience perturbed the run:\n%+v\n%+v", seed.Total, off.Total)
	}
	if off.Resilience != nil {
		t.Fatalf("disabled policy produced telemetry: %+v", off.Resilience)
	}
}
