package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/workload"
)

func sampleResult(t *testing.T) harness.Result {
	t.Helper()
	return harness.Run(harness.Options{
		Allocator: "nextgen",
		Workload:  workload.DefaultXalanc(1500),
	})
}

func TestRoundTripAndValidate(t *testing.T) {
	res := sampleResult(t)
	f := NewFile(FromResults("table1", []harness.Result{res}))
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("emitted file fails own validation: %v", err)
	}

	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema {
		t.Errorf("schema = %q, want %q", back.Schema, Schema)
	}
	r := back.Experiments[0].Results[0]
	if r.Allocator != "nextgen" || r.Workload == "" {
		t.Errorf("result identity lost: %+v", r)
	}
	if r.Cycles != res.Total.Cycles || r.LLCLoadMisses != res.Total.LLCLoadMisses {
		t.Error("counters did not round-trip")
	}
	for _, cls := range region.Classes() {
		if _, ok := r.Classes[cls.String()]; !ok {
			t.Errorf("class %q missing from JSON", cls)
		}
	}
	if r.Offload == nil {
		t.Fatal("offload telemetry missing for nextgen run")
	}
	if r.Offload.MallocRing.Pushes == 0 || r.Offload.ServedOps == 0 {
		t.Errorf("offload telemetry empty: %+v", r.Offload)
	}
	if len(r.Offload.MallocRing.Occupancy) == 0 {
		t.Error("occupancy histogram missing")
	}
}

func TestSchemaFieldNamesAreStable(t *testing.T) {
	// The schema is a contract: spot-check the snake_case keys consumers
	// depend on. Renaming any of these is a breaking change that needs a
	// version bump to ngm-metrics/v2.
	res := sampleResult(t)
	data, err := NewFile(FromResults("x", []harness.Result{res})).Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, key := range []string{
		`"schema": "ngm-metrics/v1"`, `"experiments"`, `"results"`,
		`"allocator"`, `"workload"`, `"wall_cycles"`,
		`"llc_load_misses"`, `"dtlb_store_misses"`,
		`"classes"`, `"user"`, `"metadata"`, `"ring"`, `"global"`,
		`"server_classes"`, `"offload"`, `"malloc_ring"`, `"free_ring"`,
		`"full_retries"`, `"stall_cycles"`, `"occupancy_log2"`,
		`"server_busy_cycles"`, `"server_idle_cycles"`, `"served_ops"`,
	} {
		if !strings.Contains(s, key) {
			t.Errorf("schema key %s missing from output", key)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":       `{"schema":`,
		"wrong schema":   `{"schema":"ngm-metrics/v0","experiments":[{"id":"a","results":[]}]}`,
		"no exps":        `{"schema":"ngm-metrics/v1","experiments":[]}`,
		"empty id":       `{"schema":"ngm-metrics/v1","experiments":[{"id":"","results":[]}]}`,
		"no results":     `{"schema":"ngm-metrics/v1","experiments":[{"id":"a","results":[]}]}`,
		"no alloc":       `{"schema":"ngm-metrics/v1","experiments":[{"id":"a","results":[{"workload":"w"}]}]}`,
		"missing class":  `{"schema":"ngm-metrics/v1","experiments":[{"id":"a","results":[{"allocator":"x","workload":"w","classes":{"user":{}}}]}]}`,
		"unknown layout": `{"schema":"ngm-metrics/v1","experiments":[{"id":"a","results":[{"allocator":"x","workload":"w","layout":"bitmap","classes":{"user":{},"metadata":{},"ring":{},"global":{}}}]}]}`,
	} {
		if err := Validate([]byte(doc)); err == nil {
			t.Errorf("Validate accepted %s document", name)
		}
	}
}

func TestWriteFile(t *testing.T) {
	res := sampleResult(t)
	path := filepath.Join(t.TempDir(), "out.json")
	if err := NewFile(FromResults("t", []harness.Result{res})).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Written file must validate when read back.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileRejectsInvalid: a document that fails Validate is never
// written — no new file appears, and an existing one keeps its bytes.
func TestWriteFileRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	for name, f := range map[string]File{
		"no experiments": NewFile(),
		"no allocator":   NewFile(Experiment{ID: "a", Results: []Result{{Workload: "w"}}}),
	} {
		fresh, kept := filepath.Join(dir, name+".json"), filepath.Join(dir, name+"-kept.json")
		if err := os.WriteFile(kept, []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{fresh, kept} {
			if err := f.WriteFile(path); err == nil {
				t.Errorf("%s: WriteFile(%s) accepted an invalid document", name, filepath.Base(path))
			}
		}
		if _, err := os.Stat(fresh); !os.IsNotExist(err) {
			t.Errorf("%s: invalid document created %s (stat: %v)", name, fresh, err)
		}
		if data, err := os.ReadFile(kept); err != nil || string(data) != "old\n" {
			t.Errorf("%s: existing file now reads %q (%v), want it untouched", name, data, err)
		}
	}
}

func TestResilienceMetricsRoundTrip(t *testing.T) {
	res := harness.Run(harness.Options{
		Allocator:  "nextgen",
		Workload:   workload.DefaultXalanc(1500),
		FaultPlans: []fault.Plan{{Seed: 4, StallCycles: 80000, StallStart: 30000}},
		Resilience: &core.Resilience{
			Enabled: true, TimeoutCycles: 4000, MaxRetries: 1,
			BackoffCycles: 512, FallbackAfter: 1, ProbeCycles: 10000,
		},
	})
	if res.Resilience == nil {
		t.Fatal("fault run produced no resilience telemetry")
	}
	data, err := NewFile(FromResults("fault-sweep", []harness.Result{res})).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("fault-run metrics fail validation: %v", err)
	}
	s := string(data)
	for _, key := range []string{
		`"resilience"`, `"timeouts"`, `"retries"`, `"malloc_nacks"`, `"free_nacks"`,
		`"fallback_entries"`, `"fallback_exits"`, `"degraded_cycles"`,
		`"emergency_mallocs"`, `"emergency_frees"`, `"deferred_frees"`,
		`"abandoned_requests"`, `"reclaimed_blocks"`,
		`"injected_stalls"`, `"injected_stall_cycles"`, `"injected_doorbell_drops"`,
		`"injected_corrupt_words"`, `"injected_slowdown_cycles"`,
	} {
		if !strings.Contains(s, key) {
			t.Errorf("schema key %s missing from output", key)
		}
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	rz := back.Experiments[0].Results[0].Resilience
	if rz == nil {
		t.Fatal("resilience block lost in round trip")
	}
	if rz.InjectedStalls != res.Resilience.Injected.Stalls ||
		rz.FallbackEntries != res.Resilience.Client.FallbackEntries {
		t.Errorf("resilience counters did not round-trip: %+v vs %+v", rz, res.Resilience)
	}
	// A clean run must not grow the block.
	clean := sampleResult(t)
	cleanData, err := NewFile(FromResults("clean", []harness.Result{clean})).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cleanData), `"resilience"`) {
		t.Error("clean run emitted a resilience block")
	}
}

func TestValidateRejectsBadResilience(t *testing.T) {
	base := `{"schema":"ngm-metrics/v1","experiments":[{"id":"a","results":[{"allocator":"x","workload":"w",` +
		`"classes":{"user":{},"metadata":{},"ring":{},"global":{}},"resilience":%s}]}]}`
	for name, rz := range map[string]string{
		"exits > entries":          `{"fallback_entries":1,"fallback_exits":2}`,
		"degraded without entry":   `{"degraded_cycles":5}`,
		"reclaimed > abandoned":    `{"abandoned_requests":1,"reclaimed_blocks":2}`,
		"retries without timeouts": `{"retries":3}`,
	} {
		doc := fmt.Sprintf(base, rz)
		if err := Validate([]byte(doc)); err == nil {
			t.Errorf("Validate accepted resilience document with %s", name)
		}
	}
}

func TestSLOMetricsRoundTrip(t *testing.T) {
	o := slo.DefaultOptions()
	res := harness.Run(harness.Options{
		Allocator: "nextgen",
		Workload: &workload.Service{NWorkers: 2, RequestsPerWorker: 80, Tenants: 5,
			ChurnEvery: 4, MeanGapCycles: 3000, BurstLen: 4, Seed: 7},
		SLO: &o,
	})
	if res.SLO == nil || !res.SLO.HasData() {
		t.Fatal("armed run recorded no SLO data")
	}
	data, err := NewFile(FromResults("slo-sweep", []harness.Result{res})).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("slo-run metrics fail validation: %v", err)
	}
	s := string(data)
	for _, key := range []string{
		`"slo"`, `"window_cycles"`, `"target_rate"`,
		`"budget_interactive_cycles"`, `"budget_bulk_cycles"`,
		`"completed_requests"`, `"worst_window"`, `"worst_burn_rate"`,
		`"windows"`, `"tenants"`, `"worst_window_violations"`,
		`"dropped_spans"`, `"p999"`, `"mean_cycles"`,
	} {
		if !strings.Contains(s, key) {
			t.Errorf("schema key %s missing from output", key)
		}
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	sl := back.Experiments[0].Results[0].SLO
	if sl == nil {
		t.Fatal("slo block lost in round trip")
	}
	if sl.CompletedRequests != res.SLO.Completed() || sl.Violations != res.SLO.Violations() {
		t.Errorf("slo totals did not round-trip: %d/%d vs %d/%d",
			sl.CompletedRequests, sl.Violations, res.SLO.Completed(), res.SLO.Violations())
	}
	if len(sl.Tenants) != len(res.SLO.TenantIDs()) {
		t.Errorf("tenant count %d, want %d", len(sl.Tenants), len(res.SLO.TenantIDs()))
	}
	// An unarmed run must not grow the block.
	clean := sampleResult(t)
	cleanData, err := NewFile(FromResults("clean", []harness.Result{clean})).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cleanData), `"slo"`) {
		t.Error("unarmed run emitted an slo block")
	}
}

func TestValidateRejectsBadSLO(t *testing.T) {
	base := `{"schema":"ngm-metrics/v1","experiments":[{"id":"a","results":[{"allocator":"x","workload":"w",` +
		`"classes":{"user":{},"metadata":{},"ring":{},"global":{}},"slo":%s}]}]}`
	for name, sl := range map[string]string{
		"zero window width": `{"window_cycles":0}`,
		"window violations > requests": `{"window_cycles":100,` +
			`"windows":[{"start_cycle":0,"requests":1,"violations":2}],"completed_requests":1,"violations":2}`,
		"window starts not increasing": `{"window_cycles":100,"completed_requests":2,` +
			`"windows":[{"start_cycle":100,"requests":1},{"start_cycle":100,"requests":1}],` +
			`"tenants":[{"tenant":0,"requests":2,"p50":1,"p99":1,"p999":1,"max":1}]}`,
		"windows do not partition completed": `{"window_cycles":100,"completed_requests":5,` +
			`"windows":[{"start_cycle":0,"requests":1}]}`,
		"tenants do not partition completed": `{"window_cycles":100,"completed_requests":2,` +
			`"windows":[{"start_cycle":0,"requests":2}],` +
			`"tenants":[{"tenant":0,"requests":1,"p50":1,"p99":1,"p999":1,"max":1}]}`,
		"tenants unsorted": `{"window_cycles":100,"completed_requests":2,` +
			`"windows":[{"start_cycle":0,"requests":2}],` +
			`"tenants":[{"tenant":1,"requests":1,"p50":1,"p99":1,"p999":1,"max":1},` +
			`{"tenant":0,"requests":1,"p50":1,"p99":1,"p999":1,"max":1}]}`,
		"tenant percentiles not monotone": `{"window_cycles":100,"completed_requests":1,` +
			`"windows":[{"start_cycle":0,"requests":1}],` +
			`"tenants":[{"tenant":0,"requests":1,"p50":9,"p99":1,"p999":1,"max":1}]}`,
		"tenant worst window exceeds violations": `{"window_cycles":100,"completed_requests":1,"violations":1,` +
			`"windows":[{"start_cycle":0,"requests":1,"violations":1}],` +
			`"tenants":[{"tenant":0,"requests":1,"violations":1,"worst_window_violations":2,"p50":1,"p99":1,"p999":1,"max":1}]}`,
		"class sums mismatch": `{"window_cycles":100,"completed_requests":2,` +
			`"windows":[{"start_cycle":0,"requests":2}],` +
			`"tenants":[{"tenant":0,"requests":2,"p50":1,"p99":1,"p999":1,"max":1,` +
			`"classes":{"interactive":{"requests":1}}}]}`,
		"negative burn rate": `{"window_cycles":100,"worst_burn_rate":-1}`,
	} {
		doc := fmt.Sprintf(base, sl)
		if err := Validate([]byte(doc)); err == nil {
			t.Errorf("Validate accepted slo document with %s", name)
		}
	}
	// Baseline sanity: an empty-but-armed block is valid.
	if err := Validate([]byte(fmt.Sprintf(base, `{"window_cycles":100}`))); err != nil {
		t.Errorf("minimal valid slo block rejected: %v", err)
	}
}
