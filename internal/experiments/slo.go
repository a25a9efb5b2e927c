package experiments

import (
	"fmt"
	"strings"

	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/workload"
)

// ParseSLO converts the CLI's -slo spec into tracker options. "" or
// "off" yields nil (disarmed); "on"/"default" is slo.DefaultOptions;
// and a comma list of key=value pairs tunes individual knobs over the
// defaults: window (initial tumbling-window cycles), interactive/bulk
// (per-class end-to-end cycle budgets; 0 = unbudgeted), spans (retained
// raw spans), target-ppm (violation budget per window, parts per
// million).
func ParseSLO(spec string) (*slo.Options, error) {
	switch strings.TrimSpace(spec) {
	case "", "off":
		return nil, nil
	case "on", "default":
		o := slo.DefaultOptions()
		return &o, nil
	}
	o := slo.DefaultOptions()
	err := fault.ParseKV("slo", spec, func(k string, n uint64) error {
		switch k {
		case "window":
			if n == 0 {
				return fmt.Errorf("slo: window must be positive")
			}
			o.WindowCycles = n
		case "interactive":
			o.Budgets[slo.Interactive] = n
		case "bulk":
			o.Budgets[slo.Bulk] = n
		case "spans":
			o.SpanCap = int(n)
		case "target-ppm":
			if n == 0 {
				return fmt.Errorf("slo: target-ppm must be positive")
			}
			o.TargetRate = float64(n) / 1e6
		default:
			return fmt.Errorf("slo: unknown key %q (want window, interactive, bulk, spans, or target-ppm)", k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &o, nil
}

// sloCell is one column of the SLOSweep grid.
type sloCell struct {
	label   string
	kind    string
	tenants int
	servers int
	plans   []fault.Plan
}

// sloStallPlan is the sweep's armed fault plan: periodic 120k-cycle
// server stalls (the fault sweep's harshest stall length), no loss or
// corruption — the question is purely what a stalled allocator core
// does to tenant tail latency.
func sloStallPlan() []fault.Plan {
	return []fault.Plan{{Seed: 1, StallStart: 50000, StallCycles: 120000, StallPeriod: 480000}}
}

// sloCells builds the sweep grid: tenant count × allocator × fault
// plan, plus sharded-fleet cells at the widest tenant count (1 vs 4
// shards under the same stall plan — the fairness story). tenants > 0
// collapses the tenant axis to that one count.
func sloCells(tenants int) []sloCell {
	tenantAxis := []int{4, 12}
	if tenants > 0 {
		tenantAxis = []int{tenants}
	}
	var cells []sloCell
	for _, n := range tenantAxis {
		cells = append(cells,
			sloCell{label: fmt.Sprintf("mimalloc t%d", n), kind: "mimalloc", tenants: n},
			sloCell{label: fmt.Sprintf("ngm clean t%d", n), kind: "nextgen", tenants: n},
			sloCell{label: fmt.Sprintf("ngm stall t%d", n), kind: "nextgen", tenants: n, plans: sloStallPlan()},
		)
	}
	wide := tenantAxis[len(tenantAxis)-1]
	cells = append(cells,
		sloCell{label: fmt.Sprintf("ngm clean t%d 4sh", wide), kind: "nextgen", tenants: wide, servers: 4},
		sloCell{label: fmt.Sprintf("ngm stall t%d 4sh", wide), kind: "nextgen", tenants: wide, servers: 4, plans: sloStallPlan()},
	)
	return cells
}

// sloService builds the sweep's service workload for one cell.
func sloService(s Scale, tenants int) *workload.Service {
	return &workload.Service{
		NWorkers:          4,
		RequestsPerWorker: s.ServiceRequests,
		Tenants:           tenants,
		ChurnEvery:        4,
		MeanGapCycles:     60000,
		BurstLen:          4,
		Seed:              11,
	}
}

// worstTenantViolations returns the largest per-tenant violation count
// of a run (0 when untracked).
func worstTenantViolations(r harness.Result) uint64 {
	if r.SLO == nil {
		return 0
	}
	var worst uint64
	for _, id := range r.SLO.TenantIDs() {
		if v := r.SLO.Tenant(id).Violations; v > worst {
			worst = v
		}
	}
	return worst
}

// SLOSweep measures per-tenant SLO attainment on the multi-tenant
// service workload: tenant count × allocator × fault plan, plus a
// sharded-fleet pair showing what splitting the allocator across server
// cores does to the worst tenant under a stall. Headline metric per
// cell: overall end-to-end p99 and the SLO-violation count; the worst
// window localizes when the budget burned.
func SLOSweep(e Env) Outcome {
	cells := sloCells(e.Tenants)
	opts := slo.DefaultOptions()
	if e.Base.SLO != nil {
		opts = *e.Base.SLO
	}
	all := runAll(len(cells), func(i int) harness.Result {
		c := cells[i]
		o := opts
		r := harness.Run(harness.Options{
			Allocator:  c.kind,
			Workload:   sloService(e.Scale, c.tenants),
			Servers:    c.servers,
			FaultPlans: c.plans,
			SLO:        &o,
			Machine:    e.machine(),
		})
		r.Allocator = c.label
		return r
	})

	var b strings.Builder
	fmt.Fprintf(&b, "SLO sweep: multi-tenant service workload (tenants x allocator x fault plan)\n")
	fmt.Fprintf(&b, "budgets: interactive %d cycles, bulk %d cycles end-to-end; window %d cycles\n\n",
		opts.Budgets[slo.Interactive], opts.Budgets[slo.Bulk], opts.WindowCycles)
	fmt.Fprintf(&b, "%-20s %10s %9s %11s %10s %10s %10s\n",
		"cell", "completed", "p99", "violations", "worst win", "burn rate", "worst ten")
	for _, r := range all {
		tr := r.SLO
		var total, p99, viol, worstWin uint64
		var burn float64
		if tr != nil {
			total = tr.Completed()
			viol = tr.Violations()
			p99 = mergedP99(r)
			if w, ok := tr.WorstWindow(); ok {
				worstWin = w.Violations
				burn = tr.BurnRate(w)
			}
		}
		fmt.Fprintf(&b, "%-20s %10d %9d %11d %10d %9.1fx %10d\n",
			r.Allocator, total, p99, viol, worstWin, burn, worstTenantViolations(r))
	}
	b.WriteString("(p99: end-to-end cycles across all tenants; worst win: violations in the worst tumbling window;\n worst ten: the single worst tenant's violation count)\n\n")

	// Representative per-tenant drill-down: the widest stalled
	// single-server cell (the row production debugging starts from).
	var drill harness.Result
	for _, r := range all {
		if strings.HasPrefix(r.Allocator, "ngm stall") && !strings.HasSuffix(r.Allocator, "4sh") {
			drill = r
		}
	}
	if drill.SLO != nil {
		b.WriteString(report.SLOTable(fmt.Sprintf("Per-tenant SLO ledger: %s", drill.Allocator), drill.SLO))
		b.WriteByte('\n')
	}

	// Fleet fairness: sharding should cut what the stall does to the
	// worst tenant (per-shard rollups via the per-client service ledger).
	var one, four harness.Result
	for _, r := range all {
		switch {
		case strings.HasSuffix(r.Allocator, "4sh") && strings.HasPrefix(r.Allocator, "ngm stall"):
			four = r
		case strings.HasPrefix(r.Allocator, "ngm stall"):
			one = r
		}
	}
	if one.SLO != nil && four.SLO != nil {
		fmt.Fprintf(&b, "sharding vs the worst tenant (stall plan): 1 shard %d violations, 4 shards %d\n",
			worstTenantViolations(one), worstTenantViolations(four))
		for i, m := range four.TenantShardRollup() {
			var reqs uint64
			for _, n := range m {
				reqs += n
			}
			fmt.Fprintf(&b, "  shard %d's clients completed %d requests across %d tenants\n", i, reqs, len(m))
		}
	}
	return Outcome{ID: "slo-sweep", Results: all, Text: b.String()}
}
