package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/timeline"
)

// ParseFailover converts the CLI's -failover spec into a FailoverAfter
// threshold (consecutive home-shard timeouts before a client re-homes
// its mallocs). ""/"off" is 0 (disarmed, the seed behaviour);
// "on"/"default" fails over after the first timeout; a positive integer
// sets the threshold directly.
func ParseFailover(spec string) (int, error) {
	switch strings.TrimSpace(spec) {
	case "", "off":
		return 0, nil
	case "on", "default":
		return 1, nil
	}
	n, err := strconv.ParseUint(strings.TrimSpace(spec), 10, 32)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("failover: want off, on/default, or a positive threshold, got %q", spec)
	}
	return int(n), nil
}

// withFailover arms fleet failover on a resilience policy: after 0 it
// returns r unchanged; otherwise it returns a copy of r (or of the
// default policy when r is nil) with FailoverAfter set.
func withFailover(r *core.Resilience, after int) *core.Resilience {
	if after == 0 {
		return r
	}
	out := core.DefaultResilience()
	if r != nil {
		out = *r
	}
	out.FailoverAfter = after
	return &out
}

// ParseResilience converts the CLI's -resilience spec into a policy.
// "" keeps the kind default (nil); "off" pins the seed protocol even
// under a fault plan; "on"/"default" is core.DefaultResilience; and a
// comma list of timeout/retries/backoff/fallback/probe/max-request
// key=value pairs tunes individual knobs (unset knobs take defaults).
func ParseResilience(spec string) (*core.Resilience, error) {
	switch strings.TrimSpace(spec) {
	case "":
		return nil, nil
	case "off":
		return &core.Resilience{}, nil
	case "on", "default":
		r := core.DefaultResilience()
		return &r, nil
	}
	r := core.DefaultResilience()
	err := fault.ParseKV("resilience", spec, func(k string, n uint64) error {
		switch k {
		case "timeout":
			r.TimeoutCycles = n
		case "retries":
			r.MaxRetries = int(n)
		case "backoff":
			r.BackoffCycles = n
		case "fallback":
			r.FallbackAfter = int(n)
		case "probe":
			r.ProbeCycles = n
		case "max-request":
			r.MaxRequestBytes = n
		default:
			return fmt.Errorf("resilience: unknown key %q (want timeout, retries, backoff, fallback, probe, or max-request)", k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// faultCell is one column of the FaultSweep grid.
type faultCell struct {
	label string
	kind  string
	plans []fault.Plan
	res   *core.Resilience
}

// faultCells builds the sweep grid: stall length × client timeout ×
// free-ring depth, each cell also carrying background doorbell drops
// and word corruption, with Mimalloc and a fault-free NextGen run as
// reference columns.
func faultCells() []faultCell {
	cells := []faultCell{
		{label: "mimalloc", kind: "mimalloc"},
		{label: "ngm clean", kind: "nextgen"},
	}
	for _, stall := range []uint64{20000, 120000} {
		for _, timeout := range []uint64{4000, 16000} {
			for _, slots := range []int{64, 256} {
				plan := fault.Plan{
					Seed:          1,
					StallStart:    50000,
					StallCycles:   stall,
					StallPeriod:   4 * stall,
					DropEveryN:    64,
					CorruptEveryN: 256,
				}
				res := &core.Resilience{
					Enabled:       true,
					TimeoutCycles: timeout,
					MaxRetries:    2,
					BackoffCycles: timeout / 4,
					FallbackAfter: 1,
					ProbeCycles:   4 * timeout,
				}
				cells = append(cells, faultCell{
					label: fmt.Sprintf("ngm s%dk t%dk r%d", stall/1000, timeout/1000, slots),
					kind:  fmt.Sprintf("nextgen:slots=%d", slots),
					plans: []fault.Plan{plan},
					res:   res,
				})
			}
		}
	}
	return cells
}

// FaultSweep measures graceful degradation under injected offload
// faults: periodic server-core stalls crossed with the client's patience
// (timeout) and the free-ring depth, with background doorbell loss and
// ring-word corruption. Reported per cell: the usual counters, the
// degradation ledger, offload malloc p99, the share of mallocs served
// by the local fallback, and the cycle cost against Mimalloc (the
// "allocator without a room") and against fault-free NextGen.
func FaultSweep(e Env) Outcome {
	cells := faultCells()
	// The sweep arms its own latency sampling (the Env's -timeline
	// interval still wins when set) and calls harness.Run directly so
	// the Env's fault knobs do not override the per-cell plans.
	interval := e.Base.SampleInterval
	if interval == 0 {
		interval = 4096
	}
	all := runAll(len(cells), func(i int) harness.Result {
		c := cells[i]
		r := harness.Run(harness.Options{
			Allocator:      c.kind,
			Workload:       table3Xalanc(e.Scale),
			FaultPlans:     c.plans,
			Resilience:     c.res,
			SampleInterval: interval,
			Machine:        e.machine(),
		})
		r.Allocator = c.label
		return r
	})

	var b strings.Builder
	b.WriteString(report.CounterTable("Fault sweep: periodic server stalls on xalanc (application cores)", all))
	b.WriteByte('\n')
	b.WriteString(report.ResilienceTable("Degradation telemetry (stall length × timeout × ring depth)", all))
	b.WriteByte('\n')
	mi, clean := all[0], all[1]
	fmt.Fprintf(&b, "%-16s %12s %12s %14s %12s\n",
		"cell", "p99 malloc", "fallback %", "vs mimalloc", "vs clean")
	for _, r := range all {
		p99 := "-"
		if r.Latency.HasSpans() {
			p99 = fmt.Sprintf("%d", r.Latency.ByOp[timeline.OpMalloc].Total.Quantile(0.99))
		}
		fb := "-"
		if r.Resilience != nil && r.AllocStats.MallocCalls > 0 {
			fb = fmt.Sprintf("%.2f%%",
				float64(r.Resilience.Client.EmergencyMallocs)/float64(r.AllocStats.MallocCalls)*100)
		}
		rel := func(base harness.Result) string {
			return fmt.Sprintf("%+.2f%%",
				(float64(r.Total.Cycles)-float64(base.Total.Cycles))/float64(base.Total.Cycles)*100)
		}
		fmt.Fprintf(&b, "%-16s %12s %12s %14s %12s\n", r.Allocator, p99, fb, rel(mi), rel(clean))
	}
	b.WriteString("(vs columns: total application-core cycles, positive = slower than the reference)\n")
	return Outcome{ID: "fault-sweep", Results: all, Text: b.String()}
}
