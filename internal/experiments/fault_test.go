package experiments

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/workload"
)

func TestParseResilience(t *testing.T) {
	if r, err := ParseResilience(""); err != nil || r != nil {
		t.Errorf("ParseResilience(\"\") = %v, %v; want nil, nil", r, err)
	}
	if r, err := ParseResilience("off"); err != nil || r == nil || r.Enabled {
		t.Errorf("ParseResilience(off) = %+v, %v; want disabled policy", r, err)
	}
	if r, err := ParseResilience("default"); err != nil || r == nil || *r != core.DefaultResilience() {
		t.Errorf("ParseResilience(default) = %+v, %v", r, err)
	}
	r, err := ParseResilience("timeout=5000, retries=1, fallback=1")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Enabled || r.TimeoutCycles != 5000 || r.MaxRetries != 1 || r.FallbackAfter != 1 {
		t.Errorf("tuned policy wrong: %+v", r)
	}
	if r.ProbeCycles != core.DefaultResilience().ProbeCycles {
		t.Errorf("unset knob lost its default: %+v", r)
	}
	for _, bad := range []string{"timeout", "timeout=abc", "warp=1"} {
		if _, err := ParseResilience(bad); err == nil {
			t.Errorf("ParseResilience(%q) accepted", bad)
		}
	}
}

// TestQuickFaultSweep checks the quick sweep's acceptance bar: it
// actually degrades somewhere and renders its tables (every cell's
// liveness is TestQuickSuiteLiveness's).
func TestQuickFaultSweep(t *testing.T) {
	out := quickOutcome(t, "fault-sweep")
	if len(out.Results) != 10 {
		t.Fatalf("expected 10 results, got %d", len(out.Results))
	}
	var fallbackEntries, stalls uint64
	for _, r := range out.Results {
		if r.Resilience != nil {
			fallbackEntries += r.Resilience.Client.FallbackEntries
			stalls += r.Resilience.Injected.Stalls
		}
	}
	if fallbackEntries == 0 {
		t.Error("no cell ever entered the fallback")
	}
	if stalls == 0 {
		t.Error("no cell ever observed an injected stall")
	}
	for _, want := range []string{
		"Degradation telemetry", "fallback entries", "ngm s120k t4k r64",
		"ngm clean", "mimalloc", "p99 malloc", "vs clean",
	} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("sweep text missing %q:\n%s", want, out.Text)
		}
	}
}

// TestSetFaultArmsRuns: the Env's fault plans and resilience policy
// flow into the standard experiment runner the same way -timeline does.
func TestSetFaultArmsRuns(t *testing.T) {
	// Periodic windows: a one-shot window this short could elapse while
	// the server is inside a single long serve (first-touch slab carve),
	// in which case nothing is injected.
	plans, err := fault.ParsePlans("stall-len=60000,stall-start=30000,stall-period=240000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ParseResilience("timeout=4000,retries=1,fallback=1")
	if err != nil {
		t.Fatal(err)
	}
	e := Env{Base: harness.Options{FaultPlans: plans, Resilience: res}}
	r := e.run(harness.Options{Allocator: "nextgen", Workload: workload.DefaultXalanc(2000)})
	if r.Resilience == nil {
		t.Fatal("the Env's fault plan did not reach the run")
	}
	if r.Resilience.Injected.Stalls == 0 {
		t.Error("armed stall plan injected nothing")
	}
	if err := r.CheckLiveness(); err != nil {
		t.Error(err)
	}
	// A sweep-owned plan must win over the Env's.
	own := []fault.Plan{{SlowFactor: 2}}
	r2 := e.run(harness.Options{Allocator: "nextgen", Workload: workload.DefaultXalanc(2000), FaultPlans: own})
	if r2.Resilience == nil || r2.Resilience.Injected.SlowdownCycles == 0 {
		t.Error("per-run plan was not honoured")
	}
	if r2.Resilience.Injected.Stalls != 0 {
		t.Error("the Env's plan leaked into a run that owns its plan")
	}
}
