package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		"unknown alloc":      {[]string{"-alloc", "hoard"}, "unknown allocator"},
		"zero threads":       {[]string{"-threads", "0"}, "-threads must be >= 1"},
		"negative threads":   {[]string{"-threads", "-3"}, "-threads must be >= 1"},
		"zero ops":           {[]string{"-ops", "0"}, "-ops must be >= 1"},
		"negative ops":       {[]string{"-ops", "-5"}, "-ops must be >= 1"},
		"sh6bench sub-batch": {[]string{"-workload", "sh6bench", "-ops", "99"}, "one batch"},
		"unknown workload":   {[]string{"-workload", "nope"}, "unknown workload"},
		"removed batch flag": {[]string{"-batch", "4"}, "flag provided but not defined"},
		"bad prealloc":       {[]string{"-prealloc", "bogus"}, "unknown prealloc policy"},
		"bad layout":         {[]string{"-layout", "bitmap"}, "unknown layout"},
		"bad fault key":      {[]string{"-fault", "warp=1"}, "unknown key"},
		"bad fault value":    {[]string{"-fault", "drop=abc"}, "bad value"},
		"bad resilience":     {[]string{"-resilience", "timeout"}, "not key=value"},
		"zero quantum":       {[]string{"-quantum", "0"}, "-quantum must be > 0"},
		"negative quantum":   {[]string{"-quantum", "-8"}, "-quantum must be > 0"},
		"fault off offload":  {[]string{"-alloc", "mimalloc", "-fault", "slow=2"}, "no offload server"},
		"bad sched":          {[]string{"-sched", "fifo"}, "unknown scheduling policy"},
		"bad partition":      {[]string{"-partition", "thread"}, "unknown partition"},
		"negative servers":   {[]string{"-servers", "-2"}, "negative server count"},
		"servers off offload": {
			[]string{"-alloc", "mimalloc", "-servers", "2"}, "no offload server"},
		"sched off offload": {
			[]string{"-alloc", "jemalloc", "-sched", "round-robin"}, "no offload server"},
		"partition off offload": {
			[]string{"-alloc", "tcmalloc", "-partition", "class"}, "no offload server"},
		"too many servers": {
			[]string{"-alloc", "nextgen", "-workload", "xmalloc", "-threads", "8", "-ops", "50", "-servers", "12"}, "collide"},
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

func TestRunPrintsAttributionAndWritesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	rc, stdout, stderr := runCLI("-alloc", "ptmalloc2", "-workload", "xalanc", "-ops", "1500", "-metrics", path)
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	for _, want := range []string{"miss attribution", "LLC-miss % metadata", "wall cycles"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(data); err != nil {
		t.Errorf("emitted metrics file invalid: %v", err)
	}
}

func TestFaultRunPrintsDegradationAndWritesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	rc, stdout, stderr := runCLI("-alloc", "nextgen", "-workload", "xalanc", "-ops", "3000",
		"-fault", "stall-len=60000,stall-start=30000,stall-period=240000,seed=7",
		"-resilience", "timeout=4000,retries=1,fallback=1",
		"-metrics", path)
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	for _, want := range []string{"offload degradation telemetry", "fallback entries", "injected stalls"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(data); err != nil {
		t.Errorf("emitted metrics file invalid: %v", err)
	}
	if !strings.Contains(string(data), "\"resilience\"") {
		t.Error("metrics file lacks the resilience block")
	}
}

func TestCleanRunPrintsNoDegradation(t *testing.T) {
	rc, stdout, stderr := runCLI("-alloc", "nextgen", "-workload", "xalanc", "-ops", "1500")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if strings.Contains(stdout, "offload degradation telemetry") {
		t.Errorf("unarmed run printed degradation telemetry:\n%s", stdout)
	}
}

func TestSh6benchTruncationWarns(t *testing.T) {
	rc, _, stderr := runCLI("-alloc", "bump", "-workload", "sh6bench", "-ops", "250")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stderr, "truncated to 200") {
		t.Errorf("stderr lacks the truncation warning: %q", stderr)
	}
	// A whole number of batches warns about nothing.
	rc, _, stderr = runCLI("-alloc", "bump", "-workload", "sh6bench", "-ops", "300")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if strings.Contains(stderr, "truncated") {
		t.Errorf("whole-batch run still warned: %q", stderr)
	}
}

func TestFleetRunPrintsPerServerBlock(t *testing.T) {
	rc, stdout, stderr := runCLI("-alloc", "nextgen", "-workload", "xmalloc",
		"-threads", "4", "-ops", "800", "-servers", "2", "-sched", "round-robin")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	for _, want := range []string{"server 0 (core", "server 1 (core", "max service gap"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestDefaultTopologyFlagsBitIdentical: spelling out the default
// topology must not change a single output byte — the explicit flags
// are the no-op they claim to be.
func TestDefaultTopologyFlagsBitIdentical(t *testing.T) {
	args := []string{"-alloc", "nextgen", "-workload", "xalanc", "-ops", "1500"}
	rcA, plain, errA := runCLI(args...)
	rcB, explicit, errB := runCLI(append([]string{"-servers", "1", "-sched", "fixed-scan", "-partition", "client"}, args...)...)
	if rcA != 0 || rcB != 0 {
		t.Fatalf("exits %d/%d, stderr: %s%s", rcA, rcB, errA, errB)
	}
	if plain != explicit {
		t.Errorf("explicit default topology changed the output:\n--- default ---\n%s\n--- explicit ---\n%s", plain, explicit)
	}
}

func TestSh6benchMinimumBatchRuns(t *testing.T) {
	// Exactly one batch is the smallest legal op count and must do work.
	rc, stdout, stderr := runCLI("-alloc", "bump", "-workload", "sh6bench", "-ops", "100")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if strings.Contains(stdout, "mallocs/frees:  0 / 0") {
		t.Errorf("one-batch sh6bench did no allocations:\n%s", stdout)
	}
}

// stripWarpLines drops the "time warp:" host-telemetry line, the only
// stdout line allowed to differ between -warp settings.
func stripWarpLines(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "time warp:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func TestWarpFlagBitIdenticalOutput(t *testing.T) {
	args := []string{"-alloc", "nextgen", "-workload", "xmalloc", "-threads", "2", "-ops", "400"}
	rcOn, on, errOn := runCLI(args...)
	rcOff, off, errOff := runCLI(append([]string{"-warp=false"}, args...)...)
	if rcOn != 0 || rcOff != 0 {
		t.Fatalf("exits %d/%d, stderr: %s%s", rcOn, rcOff, errOn, errOff)
	}
	if !strings.Contains(on, "time warp:") {
		t.Errorf("default (warp-on) offload run reported no warp activity:\n%s", on)
	}
	if strings.Contains(off, "time warp:") {
		t.Errorf("-warp=false run still reported warp activity:\n%s", off)
	}
	if stripWarpLines(on) != stripWarpLines(off) {
		t.Errorf("-warp changed the simulation output:\n--- on ---\n%s\n--- off ---\n%s", on, off)
	}
}

// TestLayoutFlagSelectsCompact: -layout compact rides any NextGen kind
// and the metrics doc records the layout and its dense record stride.
func TestLayoutFlagSelectsCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	rc, _, stderr := runCLI("-alloc", "nextgen", "-workload", "xalanc", "-ops", "1500",
		"-layout", "compact", "-metrics", path)
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(data); err != nil {
		t.Errorf("metrics file invalid: %v", err)
	}
	for _, want := range []string{`"layout": "compact"`, `"meta_record_bytes": 192`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics doc lacks %s", want)
		}
	}
}

// TestDefaultLayoutFlagBitIdentical: spelling out -layout segregated on
// a default run must not change a single output byte.
func TestDefaultLayoutFlagBitIdentical(t *testing.T) {
	args := []string{"-alloc", "nextgen", "-workload", "xalanc", "-ops", "1500"}
	rcA, plain, errA := runCLI(args...)
	rcB, explicit, errB := runCLI(append([]string{"-layout", "segregated"}, args...)...)
	if rcA != 0 || rcB != 0 {
		t.Fatalf("exits %d/%d, stderr: %s%s", rcA, rcB, errA, errB)
	}
	if plain != explicit {
		t.Errorf("explicit -layout segregated changed the output:\n--- default ---\n%s\n--- explicit ---\n%s", plain, explicit)
	}
}

func TestServiceRunPrintsSLOTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	trace := filepath.Join(t.TempDir(), "t.json")
	rc, stdout, stderr := runCLI("-alloc", "nextgen", "-workload", "service",
		"-threads", "2", "-ops", "60", "-tenants", "5", "-slo", "on",
		"-metrics", path, "-chrome-trace", trace)
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	for _, want := range []string{"per-tenant SLO ledger", "violations", "worst window:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(data); err != nil {
		t.Errorf("emitted metrics file invalid: %v", err)
	}
	if !strings.Contains(string(data), "\"slo\"") {
		t.Error("metrics file lacks the slo block")
	}
	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tdata), "\"slo\"") || !strings.Contains(string(tdata), "tenant 0") {
		t.Error("chrome trace lacks tenant-labeled slo spans")
	}
}

func TestSLOFlagRejectsBadSpecs(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"bad slo key":   {[]string{"-slo", "latency=5"}, "unknown key"},
		"bad slo value": {[]string{"-slo", "window=abc"}, "bad value"},
		"zero window":   {[]string{"-slo", "window=0"}, "window must be positive"},
		"zero tenants":  {[]string{"-tenants", "0"}, "-tenants must be >= 1"},
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

// TestSLOOffFlagsBitIdentical: disarmed SLO flags on a non-service
// workload must not change a single output byte.
func TestSLOOffFlagsBitIdentical(t *testing.T) {
	args := []string{"-alloc", "nextgen", "-workload", "xalanc", "-ops", "1500"}
	rcA, plain, errA := runCLI(args...)
	rcB, explicit, errB := runCLI(append([]string{"-slo", "off", "-tenants", "8"}, args...)...)
	if rcA != 0 || rcB != 0 {
		t.Fatalf("exits %d/%d, stderr: %s%s", rcA, rcB, errA, errB)
	}
	if plain != explicit {
		t.Errorf("disarmed slo flags changed the output:\n--- default ---\n%s\n--- explicit ---\n%s", plain, explicit)
	}
}

// TestSLOArmedNonServiceWarns: arming the tracker on a workload that
// never observes must warn but still exit 0 with an empty ledger.
func TestSLOArmedNonServiceWarns(t *testing.T) {
	rc, stdout, stderr := runCLI("-alloc", "nextgen", "-workload", "xalanc", "-ops", "1500", "-slo", "on")
	if rc != 0 {
		t.Fatalf("exit %d, stderr: %s", rc, stderr)
	}
	if !strings.Contains(stderr, "reports no tenant requests") {
		t.Errorf("stderr lacks the no-tenant warning: %q", stderr)
	}
	if !strings.Contains(stdout, "no slo data recorded") {
		t.Errorf("stdout lacks the empty-ledger notice:\n%s", stdout)
	}
}
