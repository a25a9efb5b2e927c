package metrics

import (
	"fmt"
	"strings"
	"testing"

	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/workload"
)

func TestWarpMetricsRoundTrip(t *testing.T) {
	// Offload runs under the default machine config (warp on) skip idle
	// server windows, so the additive warp block must appear and pass
	// validation.
	res := sampleResult(t)
	if res.Warp.Windows == 0 {
		t.Fatal("sample offload run engaged no warp; the block below would be vacuous")
	}
	data, err := NewFile(FromResults("x", []harness.Result{res})).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("emitted file fails own validation: %v", err)
	}
	s := string(data)
	for _, key := range []string{`"warp"`, `"windows"`, `"rounds"`, `"cycles_warped"`, `"largest_skip"`, `"parks"`, `"parked_leases"`} {
		if !strings.Contains(s, key) {
			t.Errorf("schema key %s missing from output", key)
		}
	}
}

func TestWarpOffRunOmitsWarpBlock(t *testing.T) {
	cfg := sim.ScaledConfig()
	cfg.Warp = false
	res := harness.Run(harness.Options{
		Allocator: "nextgen",
		Workload:  workload.DefaultXalanc(1500),
		Machine:   &cfg,
	})
	out := FromResult(res)
	if out.Warp != nil {
		t.Fatalf("warp-off run emitted a warp block: %+v", out.Warp)
	}
}

func TestValidateRejectsBadWarp(t *testing.T) {
	doc := func(warp string) string {
		return fmt.Sprintf(`{"schema":"ngm-metrics/v1","experiments":[{"id":"a","results":[
			{"allocator":"x","workload":"w","wall_cycles":100000,
			 "classes":{"user":{},"metadata":{},"ring":{},"global":{}},
			 "warp":%s}]}]}`, warp)
	}
	if err := Validate([]byte(doc(`{"windows":3,"rounds":30,"cycles_warped":300,"largest_skip":40,"parks":2,"parked_leases":9}`))); err != nil {
		t.Fatalf("valid warp block rejected: %v", err)
	}
	for name, warp := range map[string]string{
		"zero windows":     `{"windows":0,"rounds":0,"cycles_warped":0,"largest_skip":0}`,
		"rounds < windows": `{"windows":5,"rounds":3,"cycles_warped":300,"largest_skip":40}`,
		"cycles < rounds":  `{"windows":3,"rounds":30,"cycles_warped":20,"largest_skip":4}`,
		"largest > warped": `{"windows":3,"rounds":30,"cycles_warped":300,"largest_skip":400}`,
		"leases < parks":   `{"windows":3,"rounds":30,"cycles_warped":300,"largest_skip":40,"parks":9,"parked_leases":2}`,
	} {
		if err := Validate([]byte(doc(warp))); err == nil {
			t.Errorf("Validate accepted warp block with %s", name)
		}
	}
}
