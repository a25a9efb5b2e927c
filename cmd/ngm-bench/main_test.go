package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/experiments"
)

func runCLI(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	rc := run(args, &out, &errb)
	return rc, out.String(), errb.String()
}

// resetGlobals undoes the package-level experiment configuration a run
// installs, so tests stay independent.
func resetGlobals() {
	experiments.SetMachine(nil)
	experiments.SetTransport(nil)
	experiments.SetLayout(nil)
	experiments.SetFault(nil, nil)
	experiments.SetTimeline(0)
	experiments.SetFleet(0, core.FixedScan, core.ByClient)
	experiments.SetSLO(nil)
	experiments.SetTenants(0)
	experiments.SetParallelism(1)
}

func TestRejectsBadFlags(t *testing.T) {
	defer resetGlobals()
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"bad scale":          {[]string{"-scale", "huge"}, "unknown scale"},
		"zero quantum":       {[]string{"-quantum", "0"}, "-quantum must be > 0"},
		"removed batch flag": {[]string{"-batch", "4"}, "flag provided but not defined"},
		"bad layout":         {[]string{"-layout", "bitmap"}, "unknown layout"},
		"bad fault":          {[]string{"-fault", "warp=1"}, "unknown key"},
		"bad resilience":     {[]string{"-resilience", "timeout"}, "not key=value"},
		"bad sched":          {[]string{"-sched", "fifo"}, "unknown scheduling policy"},
		"bad partition":      {[]string{"-partition", "thread"}, "unknown partition"},
		"negative servers":   {[]string{"-servers", "-2"}, "negative server count"},
		"unknown experiment": {[]string{"-scale", "quick", "nope"}, "unknown experiment"},
	} {
		rc, _, stderr := runCLI(tc.args...)
		if rc != 2 {
			t.Errorf("%s: exit code %d, want 2", name, rc)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q lacks %q", name, stderr, tc.want)
		}
	}
}

func TestListIncludesFleetSweep(t *testing.T) {
	defer resetGlobals()
	rc, stdout, stderr := runCLI("-list")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	for _, id := range []string{"table3", "fault-sweep", "fleet-sweep"} {
		if !strings.Contains(stdout, id) {
			t.Errorf("-list output lacks %q:\n%s", id, stdout)
		}
	}
}

// TestModelRunsWithFleetFlags: the topology flags install cleanly and
// a (simulation-free) experiment still runs under them.
func TestModelRunsWithFleetFlags(t *testing.T) {
	defer resetGlobals()
	rc, stdout, stderr := runCLI("-scale", "quick", "-servers", "2", "-sched", "round-robin", "model")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stdout, "Analytical model") {
		t.Errorf("model output missing:\n%s", stdout)
	}
}

// TestTable3ShardedTopology: -servers/-sched reshape the standard
// experiments' offload runs end to end through the CLI.
func TestTable3ShardedTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six simulations")
	}
	defer resetGlobals()
	rc, stdout, stderr := runCLI("-scale", "quick", "-parallel", "2",
		"-servers", "2", "-sched", "round-robin", "table3")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stdout, "Table 3") {
		t.Errorf("table3 output missing:\n%s", stdout)
	}
}

func TestRejectsBadSLOFlags(t *testing.T) {
	defer resetGlobals()
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"bad slo key":      {[]string{"-slo", "latency=5"}, "unknown key"},
		"bad slo value":    {[]string{"-slo", "window=abc"}, "bad value"},
		"negative tenants": {[]string{"-tenants", "-4"}, "negative tenant count"},
	} {
		rc, _, stderr := runCLI(tc.args...)
		if rc != 2 {
			t.Errorf("%s: exit code %d, want 2", name, rc)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q lacks %q", name, stderr, tc.want)
		}
	}
}

func TestListIncludesSLOSweep(t *testing.T) {
	defer resetGlobals()
	rc, stdout, stderr := runCLI("-list")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stdout, "slo-sweep") {
		t.Errorf("-list output lacks slo-sweep:\n%s", stdout)
	}
}

// TestSLOSweepThroughCLI: the sweep renders through ngm-bench with the
// -tenants override collapsing the grid.
func TestSLOSweepThroughCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five simulations")
	}
	defer resetGlobals()
	defer experiments.SetSLO(nil)
	defer experiments.SetTenants(0)
	rc, stdout, stderr := runCLI("-scale", "quick", "-parallel", "2", "-tenants", "6", "slo-sweep")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	for _, want := range []string{"SLO sweep", "ngm stall t6", "Per-tenant SLO ledger"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("sweep output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestDefaultSpellingsBitIdentical: every config-gated feature's explicit
// default spelling must leave table3's metrics document byte-identical
// to the flagless run. -warp=false is the one exception by design: the
// warp is host-side only, so every simulated number must still match,
// but the additive warp ledger (what the fast path skipped) is present
// with warp on and absent with it off, and is dropped before comparing.
func TestDefaultSpellingsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table3 seven times")
	}
	dir := t.TempDir()
	metricsDoc := func(name string, flags ...string) []byte {
		t.Helper()
		defer resetGlobals()
		path := filepath.Join(dir, name+".json")
		args := append([]string{"-scale", "quick", "-metrics", path}, append(flags, "table3")...)
		if rc, _, stderr := runCLI(args...); rc != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, rc, stderr)
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	flagless := metricsDoc("flagless")
	for name, flags := range map[string][]string{
		"layout":     {"-layout", "segregated"},
		"topology":   {"-servers", "1", "-sched", "fixed-scan", "-partition", "client"},
		"failover":   {"-failover", "off"},
		"slo":        {"-slo", "off", "-tenants", "8"},
		"resilience": {"-resilience", "off"},
	} {
		if !bytes.Equal(metricsDoc(name, flags...), flagless) {
			t.Errorf("%v changed table3's metrics document", flags)
		}
	}

	// stripWarp parses a document and removes every result's warp ledger,
	// reporting how many it found.
	stripWarp := func(doc []byte) (parsed map[string]any, ledgers int) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.UseNumber() // compare cycle counts digit for digit, not as float64
		if err := dec.Decode(&parsed); err != nil {
			t.Fatal(err)
		}
		for _, exp := range parsed["experiments"].([]any) {
			for _, res := range exp.(map[string]any)["results"].([]any) {
				if _, ok := res.(map[string]any)["warp"]; ok {
					ledgers++
					delete(res.(map[string]any), "warp")
				}
			}
		}
		return parsed, ledgers
	}
	on, nOn := stripWarp(flagless)
	off, nOff := stripWarp(metricsDoc("warp-off", "-warp=false"))
	if nOn == 0 {
		t.Error("the flagless document carries no warp ledger: the fast path never engaged")
	}
	if nOff != 0 {
		t.Errorf("the -warp=false document still carries %d warp ledgers", nOff)
	}
	if !reflect.DeepEqual(on, off) {
		t.Error("-warp=false changed table3's simulated numbers")
	}
}
