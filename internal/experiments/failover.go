package experiments

import (
	"fmt"
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/slo"
)

// failoverCell is one column of the FailoverSweep grid.
type failoverCell struct {
	label  string
	shards int
	// kill is the one-shot stall length injected on shard 0; 0 is the
	// topology's clean baseline cell.
	kill uint64
	// failover re-homes mallocs to healthy shards; false leaves the
	// killed shard's clients on the PR 5 emergency-only degradation.
	failover bool
}

// failoverKillStart is the wall cycle shard 0's one-shot stall opens —
// late enough that every client has registered and carved its first
// slabs.
const failoverKillStart = 200000

// failoverKills is the kill-length axis: a transient blip the retry
// ladder absorbs, an outage long enough to force a re-home decision,
// and a "permanent" kill sized past the measured region (scaled with
// the workload so the full-scale run cannot outlive it).
func failoverKills(s Scale) []uint64 {
	permanent := uint64(1) << 26
	if s.ServiceRequests > 1000 {
		permanent = 1 << 29
	}
	return []uint64{60000, 600000, permanent}
}

// killName labels a kill length ("inf" for the permanent cell).
func killName(s Scale, kill uint64) string {
	ks := failoverKills(s)
	if kill == ks[len(ks)-1] {
		return "inf"
	}
	return fmt.Sprintf("%dk", kill/1000)
}

// failoverResilience is the sweep's degradation policy: patient enough
// that a clean first-touch malloc (the server carving a class's initial
// slab, plus burst queueing behind other clients) never exhausts the
// ~324k-cycle retry ladder, so clean cells and healthy shards stay on
// the fast path; a 600k outage still outlives the ladder and forces a
// routing decision. FailoverAfter 1 re-homes on the first abandoned
// request, so the killed shard's clients never touch the emergency
// tier.
func failoverResilience(failover bool) *core.Resilience {
	r := &core.Resilience{
		Enabled:         true,
		TimeoutCycles:   100000,
		MaxRetries:      2,
		BackoffCycles:   8000,
		FallbackAfter:   1,
		ProbeCycles:     100000,
		MaxRequestBytes: 1 << 24,
	}
	if failover {
		r.FailoverAfter = 1
	}
	return r
}

// failoverCells builds the sweep grid: shard count × kill length ×
// routing policy, with one clean baseline per topology ("none" — a
// resilience-off cell under a permanent kill would hang the seed
// blocking protocol, so the clean run is the policy-free reference).
func failoverCells(s Scale) []failoverCell {
	var cells []failoverCell
	for _, sh := range []int{2, 4} {
		cells = append(cells, failoverCell{label: fmt.Sprintf("clean %dsh", sh), shards: sh})
		for _, kill := range failoverKills(s) {
			for _, fo := range []bool{true, false} {
				pol := "em"
				if fo {
					pol = "fo"
				}
				cells = append(cells, failoverCell{
					label:    fmt.Sprintf("%s %dsh kill%s", pol, sh, killName(s, kill)),
					shards:   sh,
					kill:     kill,
					failover: fo,
				})
			}
		}
	}
	return cells
}

// worstTenantP99 returns the largest per-tenant end-to-end p99 of a run
// (0 when untracked) — the sweep's headline fairness metric.
func worstTenantP99(r harness.Result) uint64 {
	if r.SLO == nil {
		return 0
	}
	var worst uint64
	for _, id := range r.SLO.TenantIDs() {
		if p := r.SLO.Tenant(id).Total.Total.Quantile(0.99); p > worst {
			worst = p
		}
	}
	return worst
}

// mergedP99 returns the all-tenant end-to-end p99 of a run.
func mergedP99(r harness.Result) uint64 {
	if r.SLO == nil {
		return 0
	}
	var merged slo.TenantStats
	for _, id := range r.SLO.TenantIDs() {
		merged.Add(*r.SLO.Tenant(id))
	}
	return merged.Total.Total.Quantile(0.99)
}

// emergencyMallocs reads a run's emergency-tier malloc count.
func emergencyMallocs(r harness.Result) uint64 {
	if r.Resilience == nil {
		return 0
	}
	return r.Resilience.Client.EmergencyMallocs
}

// failoverRecovery renders the cycle of the last rejoin transition ("-"
// when no client rejoined — permanent kills and clean cells).
func failoverRecovery(r harness.Result) string {
	fo := r.Failover
	if fo == nil || fo.Totals.Rejoins == 0 {
		return "-"
	}
	home := map[int]int{}
	for _, c := range fo.Clients {
		home[c.Thread] = c.HomeShard
	}
	var last uint64
	for _, ev := range fo.Events {
		if ev.To == home[ev.Thread] && ev.Cycle > last {
			last = ev.Cycle
		}
	}
	if last == 0 {
		return "-"
	}
	return report.Sci(float64(last))
}

// failoverOutcome renders the grid: the per-cell table, the
// policy-vs-clean comparison per (topology, kill), and a per-client
// routing drill-down for one re-homed cell.
func failoverOutcome(s Scale, cells []failoverCell, all []harness.Result) Outcome {
	var b strings.Builder
	fmt.Fprintf(&b, "Failover sweep: one shard killed on the multi-tenant service workload\n")
	fmt.Fprintf(&b, "(kill: one-shot stall of shard 0 from cycle %d; fo = malloc failover to\n", failoverKillStart)
	fmt.Fprintf(&b, " healthy shards, em = PR 5 emergency-only degradation, clean = no kill)\n\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %11s %8s %7s %9s %10s %10s\n",
		"cell", "p99", "worst ten", "violations", "emerg", "downs", "rejoins", "forwarded", "recovered")
	for _, r := range all {
		var downs, rejoins, fwd uint64
		if r.Failover != nil {
			downs = r.Failover.Totals.Downs
			rejoins = r.Failover.Totals.Rejoins
			fwd = r.Failover.Totals.ForwardedMallocs
		}
		fmt.Fprintf(&b, "%-16s %10d %10d %11d %8d %7d %9d %10d %10s\n",
			r.Allocator, mergedP99(r), worstTenantP99(r), worstTenantViolations(r),
			emergencyMallocs(r), downs, rejoins, fwd, failoverRecovery(r))
	}
	b.WriteString("(p99/worst ten: end-to-end cycles, all tenants / the single worst tenant;\n recovered: cycle of the last rejoin transition)\n\n")

	// Policy comparison: each armed cell's worst-tenant p99 against its
	// topology's clean baseline.
	clean := map[int]uint64{}
	for i, c := range cells {
		if c.kill == 0 {
			clean[c.shards] = worstTenantP99(all[i])
		}
	}
	rel := func(i int) string {
		base := clean[cells[i].shards]
		if base == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(worstTenantP99(all[i]))/float64(base))
	}
	for i, c := range cells {
		if c.kill == 0 || !c.failover {
			continue
		}
		// Find the matching emergency-only cell.
		for j, d := range cells {
			if d.shards == c.shards && d.kill == c.kill && !d.failover && d.kill > 0 {
				fmt.Fprintf(&b, "%dsh kill%s: worst-tenant p99 failover %s clean, emergency-only %s clean\n",
					c.shards, killName(s, c.kill), rel(i), rel(j))
				break
			}
		}
	}

	// Drill-down: the per-client routing ledger of the last failover
	// cell that actually re-homed traffic.
	for i := len(cells) - 1; i >= 0; i-- {
		if cells[i].failover && all[i].Failover != nil && all[i].Failover.Totals.Downs > 0 {
			b.WriteByte('\n')
			b.WriteString(report.FailoverTable(
				fmt.Sprintf("Per-client routing ledger: %s", all[i].Allocator), all[i].Failover))
			break
		}
	}
	return Outcome{ID: "failover-sweep", Results: all, Text: b.String()}
}

// FailoverSweep measures shard-level fault tolerance on the service
// workload: one of {2,4} shards is killed for {60k, 600k, permanent}
// cycles, and the killed shard's clients either re-home their mallocs
// to healthy shards (probe-based rejoin when the shard returns) or ride
// the PR 5 emergency-only degradation. Headline per cell: worst-tenant
// end-to-end p99 and SLO violations, emergency-tier mallocs, the
// down/rejoin/forward ledger, and the recovery cycle. Failover should
// hold the worst tenant near the clean baseline; emergency-only pays
// the blocking rejoin probe on its tenants' tail every ProbeCycles.
func FailoverSweep(e Env) Outcome {
	cells := failoverCells(e.Scale)
	opts := slo.DefaultOptions()
	if e.Base.SLO != nil {
		opts = *e.Base.SLO
	}
	all := runAll(len(cells), func(i int) harness.Result {
		c := cells[i]
		o := opts
		var plans []fault.Plan
		if c.kill > 0 {
			plans = []fault.Plan{{Seed: 1, StallStart: failoverKillStart, StallCycles: c.kill, Shard: 1}}
		}
		r := harness.Run(harness.Options{
			Allocator:  "nextgen",
			Workload:   sloService(e.Scale, 8),
			Servers:    c.shards,
			FaultPlans: plans,
			Resilience: failoverResilience(c.kill > 0 && c.failover),
			SLO:        &o,
			Machine:    e.machine(),
		})
		r.Allocator = c.label
		return r
	})
	return failoverOutcome(e.Scale, cells, all)
}
