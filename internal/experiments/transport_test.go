package experiments

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
)

// TestParseTransport: -prealloc is the kind spec's prealloc key. Empty
// adds no key, an unknown policy is rejected, and each policy replaces
// the kind's own: the flag's policy is the Config's one prealloc field.
func TestParseTransport(t *testing.T) {
	if e, _, err := parseRunFlags("-prealloc", ""); err != nil || e.Keys != "" {
		t.Errorf("the default should add no key (err %v, keys %q)", err, e.Keys)
	}
	if _, _, err := parseRunFlags("-prealloc", "sometimes"); err == nil || !strings.Contains(err.Error(), "unknown prealloc policy") {
		t.Errorf("unknown prealloc policy should be rejected, got %v", err)
	}
	for _, tc := range []struct {
		policy, kind string
		want         core.PreallocPolicy
	}{
		{"off", "nextgen-prealloc", core.PreallocOff},
		{"off", "nextgen-adaptive", core.PreallocOff},
		{"static", "nextgen", core.PreallocStatic},
		{"static", "nextgen-adaptive", core.PreallocStatic},
		{"adaptive", "nextgen", core.PreallocAdaptive},
		{"adaptive", "nextgen-prealloc", core.PreallocAdaptive},
	} {
		e, _, err := parseRunFlags("-prealloc", tc.policy)
		if err != nil {
			t.Fatalf("-prealloc %s: %v", tc.policy, err)
		}
		cfg, err := harness.KindConfig(harness.WithKeys(tc.kind, e.Keys))
		if err != nil {
			t.Fatalf("-prealloc %s on %s: %v", tc.policy, tc.kind, err)
		}
		if cfg.Prealloc != tc.want {
			t.Errorf("-prealloc %s on %s produced Prealloc=%v, want %v", tc.policy, tc.kind, cfg.Prealloc, tc.want)
		}
	}
}

// TestQuickAblateTransport checks the directions the transport exists to produce on xalanc:
// every asynchronous kind publishes its frees more than two to a line
// (xalanc frees in bursts; xmalloc alternates free and malloc, so there
// every free is published by the malloc behind it), preallocation adds
// no producer stall cycles per op, and the adaptive policy's margin over
// Mimalloc is no worse than plain offload's.
func TestQuickAblateTransport(t *testing.T) {
	out := quickOutcome(t, "ablate-transport")
	for _, want := range []string{"nextgen-sync", "free reqs/publication", "cycle margin over Mimalloc"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("sweep text missing %q:\n%s", want, out.Text)
		}
	}
	half := len(out.Results) / 2
	xal, xm := map[string]harness.Result{}, map[string]harness.Result{}
	for i, r := range out.Results {
		if i < half {
			xal[r.Allocator] = r
		} else {
			xm[r.Allocator] = r
		}
	}
	async := []string{"nextgen", "nextgen-prealloc", "nextgen-adaptive"}
	for _, kind := range append(async, "nextgen-sync") {
		if xal[kind].Offload == nil || xm[kind].Offload == nil {
			t.Fatalf("offload telemetry missing from the %s results", kind)
		}
	}

	// Free coalescing: well over two requests per publication wherever
	// frees are asynchronous; a synchronous free travels with its barrier
	// and nothing else.
	for _, kind := range async {
		if f := xal[kind].Offload.FreeRing; f.PushBatches*2 >= f.Pushes {
			t.Errorf("%s published %d times for %d free pushes on xalanc; expected coalescing", kind, f.PushBatches, f.Pushes)
		}
	}
	if f := xal["nextgen-sync"].Offload.FreeRing; f.PushBatches != f.Pushes {
		t.Errorf("nextgen-sync should publish per push (%d publications, %d pushes)", f.PushBatches, f.Pushes)
	}

	// Producer stalls: preallocation must not add stall cycles per op.
	stalls := func(r harness.Result) float64 {
		ops := r.AllocStats.MallocCalls + r.AllocStats.FreeCalls
		return float64(r.Offload.MallocRing.StallCycles+r.Offload.FreeRing.StallCycles) / float64(ops)
	}
	for _, kind := range async[1:] {
		if stalls(xal[kind]) > stalls(xal["nextgen"]) {
			t.Errorf("%s stall cyc/op %.4f exceeds plain offload's %.4f", kind, stalls(xal[kind]), stalls(xal["nextgen"]))
		}
	}

	// The adaptive policy's margin over Mimalloc must be no worse than
	// plain offload's.
	mi := xal["mimalloc"]
	margin := func(r harness.Result) float64 {
		return (float64(mi.Total.Cycles) - float64(r.Total.Cycles)) / float64(mi.Total.Cycles)
	}
	if margin(xal["nextgen-adaptive"]) < margin(xal["nextgen"]) {
		t.Errorf("adaptive margin %.4f worse than plain offload's %.4f", margin(xal["nextgen-adaptive"]), margin(xal["nextgen"]))
	}
}
