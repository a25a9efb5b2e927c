package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nextgenmalloc/internal/experiments"
	"nextgenmalloc/internal/metrics"
)

func runCLI(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	rc := run(args, &out, &errb)
	return rc, out.String(), errb.String()
}

func TestRejectsBadFlags(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"bad scale":          {[]string{"-scale", "huge"}, "unknown scale"},
		"removed batch flag": {[]string{"-batch", "4"}, "flag provided but not defined"},
		"unknown experiment": {[]string{"-scale", "quick", "nope"}, "unknown experiment"},
		// One wiring case per shared run flag (experiments.RunFlags; its
		// own test holds the full matrix of bad spellings).
		"bad prealloc":      {[]string{"-prealloc", "bogus"}, "unknown prealloc policy"},
		"bad layout":        {[]string{"-layout", "bitmap"}, "unknown layout"},
		"bad fault":         {[]string{"-fault", "warp=1"}, "unknown key"},
		"bad resilience":    {[]string{"-resilience", "timeout"}, "not key=value"},
		"bad failover":      {[]string{"-failover", "abc"}, "positive threshold"},
		"negative servers":  {[]string{"-servers", "-2"}, "negative server count"},
		"bad sched":         {[]string{"-sched", "fifo"}, "unknown scheduling policy"},
		"bad partition":     {[]string{"-partition", "thread"}, "unknown partition"},
		"bad timeline":      {[]string{"-timeline", "fast"}, "invalid value"},
		"bare chrome-trace": {[]string{"-chrome-trace"}, "flag needs an argument"},
		"bad warp":          {[]string{"-warp=maybe"}, "invalid boolean value"},
		"zero quantum":      {[]string{"-quantum", "0"}, "-quantum must be > 0"},
		// The fleet-only flags need a fleet: model runs no simulation,
		// so without the check these would exit 0 having done nothing.
		"failover one server":  {[]string{"-scale", "quick", "-failover", "on", "model"}, "needs -servers >= 2"},
		"partition one server": {[]string{"-scale", "quick", "-partition", "class", "model"}, "needs -servers >= 2"},
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

// listIDs runs -list and checks it prints exactly the registry's ids,
// in registry order, each once.
func listIDs(t *testing.T) []string {
	t.Helper()
	rc, stdout, stderr := runCLI("-list")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	ids := strings.Fields(stdout)
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("-list prints %q twice", id)
		}
		seen[id] = true
	}
	var want []string
	for _, x := range experiments.Registry {
		want = append(want, x.ID)
	}
	if !slices.Equal(ids, want) {
		t.Errorf("-list prints %v, want the registry %v", ids, want)
	}
	return ids
}

func TestListIncludesFleetSweep(t *testing.T) {
	ids := listIDs(t)
	for _, id := range []string{"table3", "fault-sweep", "fleet-sweep"} {
		if !slices.Contains(ids, id) {
			t.Errorf("-list output lacks %q: %v", id, ids)
		}
	}
}

// TestModelRunsWithFleetFlags: the topology flags install cleanly and
// a (simulation-free) experiment still runs under them.
func TestModelRunsWithFleetFlags(t *testing.T) {
	rc, stdout, stderr := runCLI("-scale", "quick", "-servers", "2", "-sched", "round-robin", "model")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stdout, "Analytical model") {
		t.Errorf("model output missing:\n%s", stdout)
	}
}

// TestTable3ShardedTopology: -servers/-sched reshape the standard
// experiments' offload runs end to end through the CLI: the offload
// kinds report one server block per shard, and the inline allocator
// none.
func TestTable3ShardedTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three simulations")
	}
	path := filepath.Join(t.TempDir(), "table3.json")
	rc, stdout, stderr := runCLI("-scale", "quick", "-parallel", "2",
		"-servers", "2", "-sched", "round-robin", "-metrics", path, "table3")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stdout, "Table 3") {
		t.Errorf("table3 output missing:\n%s", stdout)
	}
	doc := readMetrics(t, path)
	if len(doc.Experiments) != 1 || len(doc.Experiments[0].Results) != 3 {
		t.Fatalf("want one experiment of three results, got %+v", doc.Experiments)
	}
	for _, r := range doc.Experiments[0].Results {
		want, ok := map[string]int{"mimalloc": 0, "nextgen": 2, "nextgen-prealloc": 2}[r.Allocator]
		if !ok {
			t.Errorf("unexpected table3 result %q", r.Allocator)
		} else if len(r.Servers) != want {
			t.Errorf("%s: %d server blocks, want %d", r.Allocator, len(r.Servers), want)
		}
	}
}

func TestRejectsBadSLOFlags(t *testing.T) {
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
	if ids := listIDs(t); !slices.Contains(ids, "slo-sweep") {
		t.Errorf("-list output lacks slo-sweep: %v", ids)
	}
}

// TestSLOSweepThroughCLI: the sweep renders through ngm-bench with the
// -tenants override collapsing the grid.
func TestSLOSweepThroughCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five simulations")
	}
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
// default spelling, all given together, must leave table3's metrics
// document byte-identical to the flagless run. -warp=false is the one
// exception by design: the warp is host-side only, so every simulated
// number must still match, but the additive warp ledger (what the fast
// path skipped) is present with warp on and absent with it off, and is
// dropped before comparing.
func TestDefaultSpellingsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table3 three times")
	}
	dir := t.TempDir()
	metricsDoc := func(name string, flags ...string) []byte {
		t.Helper()
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
	defaults := []string{
		"-layout", "segregated",
		"-servers", "1", "-sched", "fixed-scan", "-partition", "client",
		"-failover", "off",
		"-slo", "off", "-tenants", "8",
		"-resilience", "off",
	}
	if !bytes.Equal(metricsDoc("defaults", defaults...), flagless) {
		t.Errorf("%v changed table3's metrics document", defaults)
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

// readMetrics reads and validates a metrics document the CLI wrote.
func readMetrics(t *testing.T, path string) metrics.File {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(data); err != nil {
		t.Error(err)
	}
	var doc metrics.File
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestQuickSuiteMetricsValid: -metrics writes one validated document
// holding every selected experiment that has results, skipping the
// synthetic model. The whole quick suite's document is checked in
// process by internal/experiments' TestQuickSuiteDocument.
func TestQuickSuiteMetricsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2's four simulations")
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if rc, _, stderr := runCLI("-scale", "quick", "-metrics", path, "model", "table2"); rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	doc := readMetrics(t, path)
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "table2" {
		t.Errorf("document holds %+v, want exactly table2", doc.Experiments)
	}
}

// TestSelectExperiments: no ids and "all" select the whole registry in
// order, a list keeps its order, and an unknown id anywhere in the list
// is an error before anything runs.
func TestSelectExperiments(t *testing.T) {
	ids := func(sel []experiments.Experiment) []string {
		var out []string
		for _, x := range sel {
			out = append(out, x.ID)
		}
		return out
	}
	registry := ids(experiments.Registry)
	for _, args := range [][]string{nil, {"all"}} {
		sel, err := selectExperiments(args)
		if err != nil || !slices.Equal(ids(sel), registry) {
			t.Errorf("%q selects %v, %v; want the registry %v", args, ids(sel), err, registry)
		}
	}
	list := []string{"slo-sweep", "model", "figure1"}
	if sel, err := selectExperiments(list); err != nil || !slices.Equal(ids(sel), list) {
		t.Errorf("%q selects %v, %v", list, ids(sel), err)
	}
	for _, args := range [][]string{{"nope"}, {"nope", "model"}, {"model", "table2", "nope"}, {"all", "model"}} {
		if sel, err := selectExperiments(args); err == nil || sel != nil {
			t.Errorf("%q selects %v, %v; want an error", args, ids(sel), err)
		}
	}
}

// TestChromeTraceEvents: a sampled table3 run writes a valid metrics
// document carrying its timelines, and a Chrome trace holding counter
// ("C") and span ("X") events, with every event on a pid/tid track and
// every non-metadata event timestamped.
func TestChromeTraceEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table3 with the sampler armed")
	}
	dir := t.TempDir()
	metricsPath, tracePath := filepath.Join(dir, "timeline.json"), filepath.Join(dir, "trace.json")
	if rc, _, stderr := runCLI("-scale", "quick", "-timeline", "50000",
		"-metrics", metricsPath, "-chrome-trace", tracePath, "table3"); rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(data); err != nil {
		t.Error(err)
	}
	if !bytes.Contains(data, []byte(`"timeline"`)) {
		t.Error("the sampled run's metrics document carries no timeline")
	}
	if data, err = os.ReadFile(tracePath); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph           string
			Pid, Tid, Ts json.RawMessage
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	phases := map[string]int{}
	for i, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d (ph %q) lacks pid or tid", i, ev.Ph)
		}
		if ev.Ph != "M" && ev.Ts == nil {
			t.Fatalf("event %d (ph %q) lacks ts", i, ev.Ph)
		}
	}
	for _, ph := range []string{"C", "X"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events among %d: %v", ph, len(doc.TraceEvents), phases)
		}
	}
}
