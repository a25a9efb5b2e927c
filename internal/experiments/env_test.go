package experiments

import (
	"flag"
	"io"
	"strings"
	"testing"

	"nextgenmalloc/internal/harness"
)

// parseRunFlags runs args through a fresh flag set carrying only the
// shared run flags, as both CLIs do.
func parseRunFlags(args ...string) (Env, string, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parse := RunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Env{}, "", err
	}
	return parse()
}

// TestRunFlagsRejects is the shared parser's error matrix: every bad
// spelling of every shared flag is an error, with the text the CLIs
// print before exiting 2.
func TestRunFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-prealloc", "sometimes"}, "unknown prealloc policy"},
		{[]string{"-layout", "bitmap"}, "unknown layout"},
		{[]string{"-fault", "warp=1"}, "unknown key"},
		{[]string{"-fault", "drop=abc"}, "bad value"},
		{[]string{"-resilience", "timeout"}, "not key=value"},
		{[]string{"-resilience", "timeout=abc"}, "bad value"},
		{[]string{"-resilience", "warp=1"}, "unknown key"},
		{[]string{"-resilience", "timeout=1,timeout=2"}, "duplicate key"},
		{[]string{"-failover", "-1"}, "positive threshold"},
		{[]string{"-failover", "1.5"}, "positive threshold"},
		{[]string{"-servers", "-2"}, "negative server count"},
		{[]string{"-servers", "two"}, "invalid value"},
		{[]string{"-sched", "fifo"}, "unknown scheduling policy"},
		{[]string{"-partition", "thread"}, "unknown partition"},
		{[]string{"-slo", "latency=5"}, "unknown key"},
		{[]string{"-slo", "window=abc"}, "bad value"},
		{[]string{"-slo", "window=0"}, "window must be positive"},
		{[]string{"-slo", "target-ppm=0"}, "target-ppm must be positive"},
		{[]string{"-slo", "window=1,window=2"}, "duplicate key"},
		{[]string{"-timeline", "fast"}, "invalid value"},
		{[]string{"-timeline", "-100"}, "invalid value"},
		{[]string{"-timeline", "1.5"}, "invalid value"},
		{[]string{"-chrome-trace"}, "flag needs an argument"},
		{[]string{"-warp=maybe"}, "invalid boolean value"},
		{[]string{"-quantum", "0"}, "-quantum must be > 0"},
		{[]string{"-quantum", "-8"}, "-quantum must be > 0"},
		{[]string{"-quantum", "x"}, "invalid value"},
	} {
		_, _, err := parseRunFlags(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestRunFlagsValues: what the parser builds from accepted spellings.
func TestRunFlagsValues(t *testing.T) {
	e, trace, err := parseRunFlags()
	if err != nil {
		t.Fatal(err)
	}
	if trace != "" || e.Base.Machine != nil || e.Keys != "" || e.Base.SampleInterval != 0 || e.Base.Servers != 1 {
		t.Errorf("flagless Env is not the default: trace %q, %+v", trace, e.Base)
	}
	if e, trace, _ = parseRunFlags("-chrome-trace", "t.json"); trace != "t.json" || e.Base.SampleInterval != defaultTimelineInterval {
		t.Errorf("-chrome-trace alone: trace %q, interval %d", trace, e.Base.SampleInterval)
	}
	if e, _, _ = parseRunFlags("-chrome-trace", "t.json", "-timeline", "700"); e.Base.SampleInterval != 700 {
		t.Errorf("explicit -timeline lost to -chrome-trace: interval %d", e.Base.SampleInterval)
	}
	if e, _, _ = parseRunFlags("-failover", "on"); e.Base.Resilience == nil || e.Base.Resilience.FailoverAfter != 1 {
		t.Errorf("-failover on did not arm the default policy: %+v", e.Base.Resilience)
	}
	if e, _, _ = parseRunFlags("-partition", "class", "-layout", "compact", "-sched", "batch-drain"); e.Keys != "layout=compact,sched=batch-drain,partition=class" {
		t.Errorf("-layout/-sched/-partition spelled kind-spec keys %q", e.Keys)
	}
}

// TestRunFlagsFleetQuantum: the fleet sweep's long leases give way only
// to an explicit -quantum, and every other run keeps the default lease.
func TestRunFlagsFleetQuantum(t *testing.T) {
	cell := fleetCells()[0]
	for _, tc := range []struct {
		args          []string
		fleet, others uint64
		warp          bool
	}{
		{nil, 4096, 64, true},
		{[]string{"-warp=false"}, 4096, 64, false},
		{[]string{"-quantum", "64"}, 64, 64, true},
		{[]string{"-quantum", "512", "-warp=false"}, 512, 512, false},
	} {
		e, _, err := parseRunFlags(tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		fm, m := e.fleetMachine(cell), e.machine()
		if fm.Quantum != tc.fleet || m.Quantum != tc.others {
			t.Errorf("%v: fleet cell quantum %d, standard run %d; want %d, %d", tc.args, fm.Quantum, m.Quantum, tc.fleet, tc.others)
		}
		if fm.Warp != tc.warp || m.Warp != tc.warp {
			t.Errorf("%v: warp %v / %v, want %v", tc.args, fm.Warp, m.Warp, tc.warp)
		}
		if fm.Cores != cell.workers+cell.servers {
			t.Errorf("%v: fleet cell has %d cores, want %d", tc.args, fm.Cores, cell.workers+cell.servers)
		}
	}
}

// TestApplyFoldsServerKeys: Apply folds the -sched and -partition keys
// onto every offload kind whose spec does not set them itself, and
// leaves inline kinds and the -prealloc/-layout keys alone.
func TestApplyFoldsServerKeys(t *testing.T) {
	e := Env{Base: harness.Options{Servers: 2}, Keys: "prealloc=static,sched=round-robin,partition=class"}
	for spec, want := range map[string]string{
		"nextgen":                           "nextgen:sched=round-robin,partition=class",
		"nextgen-compact:sched=batch-drain": "nextgen-compact:sched=batch-drain,partition=class",
		"nextgen:partition=client":          "nextgen:partition=client,sched=round-robin",
		"nextgen-inline":                    "nextgen-inline",
		"mimalloc":                          "mimalloc",
	} {
		if got := e.Apply(harness.Options{Allocator: spec}).Allocator; got != want {
			t.Errorf("Apply(%q) ran %q, want %q", spec, got, want)
		}
	}
}
