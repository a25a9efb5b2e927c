package experiments

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/workload"
)

func TestParseSLO(t *testing.T) {
	if o, err := ParseSLO(""); err != nil || o != nil {
		t.Errorf("ParseSLO(\"\") = %v, %v; want nil, nil", o, err)
	}
	if o, err := ParseSLO("off"); err != nil || o != nil {
		t.Errorf("ParseSLO(off) = %v, %v; want nil, nil", o, err)
	}
	for _, spec := range []string{"on", "default"} {
		if o, err := ParseSLO(spec); err != nil || o == nil || *o != slo.DefaultOptions() {
			t.Errorf("ParseSLO(%q) = %+v, %v; want defaults", spec, o, err)
		}
	}
	o, err := ParseSLO("window=2048, interactive=9000, bulk=0, spans=64, target-ppm=100000")
	if err != nil {
		t.Fatal(err)
	}
	if o.WindowCycles != 2048 || o.Budgets[slo.Interactive] != 9000 ||
		o.Budgets[slo.Bulk] != 0 || o.SpanCap != 64 || o.TargetRate != 0.1 {
		t.Errorf("tuned options wrong: %+v", o)
	}
	if o.WindowCap != slo.DefaultOptions().WindowCap {
		t.Errorf("unset knob lost its default: %+v", o)
	}
	for _, bad := range []string{"window", "window=abc", "window=0", "target-ppm=0", "latency=5"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

// TestQuickSLOSweep checks the quick sweep's acceptance bar: the armed
// stall plan strictly increases worst-window violations over the clean
// run, the per-shard rollup partitions the completed requests, and the
// rendered text carries its tables (the metrics document is
// TestQuickSuiteDocument's).
func TestQuickSLOSweep(t *testing.T) {
	out := quickOutcome(t, "slo-sweep")
	if len(out.Results) != 8 {
		t.Fatalf("expected 8 results, got %d", len(out.Results))
	}
	var clean, stall harness.Result
	for _, r := range out.Results {
		if r.SLO == nil || !r.SLO.HasData() {
			t.Fatalf("%s: no SLO data", r.Allocator)
		}
		switch r.Allocator {
		case "ngm clean t12":
			clean = r
		case "ngm stall t12":
			stall = r
		}
	}
	worstWin := func(r harness.Result) uint64 {
		w, _ := r.SLO.WorstWindow()
		return w.Violations
	}
	if worstWin(stall) <= worstWin(clean) {
		t.Errorf("stall plan did not increase worst-window violations: clean %d, stall %d",
			worstWin(clean), worstWin(stall))
	}
	if stall.SLO.Violations() <= clean.SLO.Violations() {
		t.Errorf("stall plan did not increase total violations: clean %d, stall %d",
			clean.SLO.Violations(), stall.SLO.Violations())
	}
	// Sharded cells must partition the completed requests across shards.
	for _, r := range out.Results {
		if len(r.Servers) <= 1 {
			continue
		}
		var sum uint64
		for _, m := range r.TenantShardRollup() {
			for _, n := range m {
				sum += n
			}
		}
		if sum != r.SLO.Completed() {
			t.Errorf("%s: rollup sum %d != completed %d", r.Allocator, sum, r.SLO.Completed())
		}
	}
	for _, want := range []string{
		"SLO sweep", "budgets:", "worst win", "burn rate",
		"Per-tenant SLO ledger", "sharding vs the worst tenant",
		"shard 0's clients completed",
	} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("sweep text missing %q:\n%s", want, out.Text)
		}
	}
}

// TestSetSLOArmsRuns: the Env's SLO options flow into the standard
// experiment runner the same way -timeline does, and a run that owns
// its tracker options wins over the Env's.
func TestSetSLOArmsRuns(t *testing.T) {
	o := slo.DefaultOptions()
	e := Env{Base: harness.Options{SLO: &o}}
	svc := &workload.Service{NWorkers: 2, RequestsPerWorker: 40, Tenants: 4,
		MeanGapCycles: 2000, BurstLen: 4, Seed: 5}
	r := e.run(harness.Options{Allocator: "mimalloc", Workload: svc})
	if r.SLO == nil || !r.SLO.HasData() {
		t.Fatal("the Env's SLO options did not reach the run")
	}
	// A workload that never observes leaves the tracker empty (the
	// metrics layer then omits the block).
	r2 := e.run(harness.Options{Allocator: "mimalloc", Workload: workload.DefaultXalanc(1500)})
	if r2.SLO == nil {
		t.Fatal("tracker not attached to non-service run")
	}
	if r2.SLO.HasData() {
		t.Error("xalanc run somehow recorded tenant requests")
	}
	// Per-run options win over the Env's.
	own := slo.DefaultOptions()
	own.WindowCycles = 1 << 12
	r3 := e.run(harness.Options{Allocator: "mimalloc", Workload: svc, SLO: &own})
	if got := r3.SLO.Options().WindowCycles; got != 1<<12 {
		t.Errorf("per-run window %d, want %d", got, 1<<12)
	}
}

// TestSetTenantsOverridesAxis: -tenants collapses the sweep grid to one
// tenant count.
func TestSetTenantsOverridesAxis(t *testing.T) {
	cells := sloCells(6)
	if len(cells) != 5 {
		t.Fatalf("override grid has %d cells, want 5", len(cells))
	}
	for _, c := range cells {
		if c.tenants != 6 {
			t.Errorf("cell %s has %d tenants, want 6", c.label, c.tenants)
		}
	}
}
