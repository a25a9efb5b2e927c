// Package report renders experiment results as fixed-width text tables
// in the layouts the paper uses (counter rows × allocator columns,
// scientific-notation cells), plus simple ASCII bar series for the
// figures.
package report

import (
	"fmt"
	"strings"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/timeline"
)

// Sci formats a counter the way the paper's tables do (e.g. 1.177E+12).
func Sci(v float64) string {
	if v == 0 {
		return "0"
	}
	return strings.ToUpper(fmt.Sprintf("%.3e", v))
}

// Table renders a header row and body rows with aligned columns. Ragged
// rows are fine: columns beyond the header get their own width.
func Table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	ncols := len(header)
	for _, r := range rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(&b, "%s\n", title)
	line := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i]+2, c)
			}
		}
		b.WriteByte('\n')
	}
	line(header)
	total := 2 * len(header)
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// CounterRows builds the paper's Table 1/3 layout: one row per PMU
// counter, one column per result.
func CounterRows(results []harness.Result) [][]string {
	row := func(name string, get func(sim.Counters) float64) []string {
		cells := []string{name}
		for _, r := range results {
			cells = append(cells, Sci(get(r.Total)))
		}
		return cells
	}
	mpki := func(name string, get func(sim.Counters) uint64) []string {
		cells := []string{name}
		for _, r := range results {
			cells = append(cells, fmt.Sprintf("%.3f", sim.MPKI(get(r.Total), r.Total.Instructions)))
		}
		return cells
	}
	return [][]string{
		row("cycles", func(c sim.Counters) float64 { return float64(c.Cycles) }),
		row("instructions", func(c sim.Counters) float64 { return float64(c.Instructions) }),
		row("LLC-load-misses", func(c sim.Counters) float64 { return float64(c.LLCLoadMisses) }),
		row("LLC-store-misses", func(c sim.Counters) float64 { return float64(c.LLCStoreMisses) }),
		row("dTLB-load-misses", func(c sim.Counters) float64 { return float64(c.DTLBLoadMisses) }),
		row("dTLB-store-misses", func(c sim.Counters) float64 { return float64(c.DTLBStoreMisses) }),
		mpki("LLC-load-MPKI", func(c sim.Counters) uint64 { return c.LLCLoadMisses }),
		mpki("LLC-store-MPKI", func(c sim.Counters) uint64 { return c.LLCStoreMisses }),
		mpki("dTLB-load-MPKI", func(c sim.Counters) uint64 { return c.DTLBLoadMisses }),
		mpki("dTLB-store-MPKI", func(c sim.Counters) uint64 { return c.DTLBStoreMisses }),
	}
}

// CounterTable renders results in the paper's counter-table layout.
func CounterTable(title string, results []harness.Result) string {
	header := []string{"Allocator"}
	for _, r := range results {
		header = append(header, r.Allocator)
	}
	return Table(title, header, CounterRows(results))
}

// Bars renders a normalized horizontal bar chart (Figure 1 style):
// values are scaled so the smallest positive value is 1.00. An empty
// series renders as just the title, and a series with no positive value
// (all zeros) renders flat bars — neither produces NaN or +Inf ratios.
func Bars(title string, labels []string, values []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(values) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	minV := 0.0
	for _, v := range values {
		if v > 0 && (minV == 0 || v < minV) {
			minV = v
		}
	}
	wname := 0
	for _, l := range labels {
		if len(l) > wname {
			wname = len(l)
		}
	}
	for i, v := range values {
		rel := 0.0
		if minV > 0 {
			rel = v / minV
		}
		n := int(rel * 30)
		if n > 120 {
			n = 120
		}
		if n < 0 {
			n = 0
		}
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		fmt.Fprintf(&b, "%-*s %s %.3fx (%s cycles)\n",
			wname+1, label, strings.Repeat("#", n), rel, Sci(v))
	}
	return b.String()
}

// TransportRows builds the offload-transport layout: one row per
// ring/server telemetry metric, one column per result. Columns for
// runs without offload telemetry (inline modes, classic allocators)
// render as "-".
func TransportRows(results []harness.Result) [][]string {
	row := func(name string, get func(harness.Result) string) []string {
		cells := []string{name}
		for _, r := range results {
			if r.Offload == nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, get(r))
		}
		return cells
	}
	count := func(v uint64) string { return fmt.Sprintf("%d", v) }
	ratio := func(num, den uint64) string {
		if den == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", float64(num)/float64(den))
	}
	perOp := func(v uint64, r harness.Result) string {
		ops := r.AllocStats.MallocCalls + r.AllocStats.FreeCalls
		if ops == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", float64(v)/float64(ops))
	}
	return [][]string{
		row("malloc ring round trips", func(r harness.Result) string { return count(r.Offload.MallocRing.Pushes) }),
		row("stash-hit mallocs", func(r harness.Result) string {
			// A resilient run re-pushes timed-out and NACKed requests, so
			// pushes can exceed calls; no stash hit is provable then.
			return count(max(r.AllocStats.MallocCalls, r.Offload.MallocRing.Pushes) - r.Offload.MallocRing.Pushes)
		}),
		row("free ring requests", func(r harness.Result) string { return count(r.Offload.FreeRing.Pushes) }),
		row("free reqs/publication", func(r harness.Result) string {
			return ratio(r.Offload.FreeRing.Pushes, r.Offload.FreeRing.PushBatches)
		}),
		row("producer stall cyc/op", func(r harness.Result) string {
			return perOp(r.Offload.MallocRing.StallCycles+r.Offload.FreeRing.StallCycles, r)
		}),
		row("ring full retries", func(r harness.Result) string {
			return count(r.Offload.MallocRing.FullRetries + r.Offload.FreeRing.FullRetries)
		}),
		row("server busy cycles", func(r harness.Result) string { return Sci(float64(r.Offload.ServerBusyCycles)) }),
		row("server idle cycles", func(r harness.Result) string { return Sci(float64(r.Offload.ServerIdleCycles)) }),
		row("server empty polls", func(r harness.Result) string { return count(r.Offload.ServerEmptyPolls) }),
		row("empty-poll scan cycles", func(r harness.Result) string { return Sci(float64(r.Offload.ServerEmptyPollCycles)) }),
	}
}

// TransportTable renders the offload transport telemetry in the counter
// table's layout (metrics × allocators).
func TransportTable(title string, results []harness.Result) string {
	header := []string{"Allocator"}
	for _, r := range results {
		header = append(header, r.Allocator)
	}
	return Table(title, header, TransportRows(results))
}

// ResilienceRows builds the graceful-degradation layout: one row per
// resilience/fault metric, one column per result. Columns for runs
// without resilience telemetry (clean seed runs, classic allocators)
// render as "-".
func ResilienceRows(results []harness.Result) [][]string {
	row := func(name string, get func(harness.Result) string) []string {
		cells := []string{name}
		for _, r := range results {
			if r.Resilience == nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, get(r))
		}
		return cells
	}
	count := func(v uint64) string { return fmt.Sprintf("%d", v) }
	return [][]string{
		row("timeouts", func(r harness.Result) string { return count(r.Resilience.Client.Timeouts) }),
		row("retries", func(r harness.Result) string { return count(r.Resilience.Client.Retries) }),
		row("malloc NACKs", func(r harness.Result) string { return count(r.Resilience.Client.MallocNacks) }),
		row("free NACKs", func(r harness.Result) string { return count(r.Resilience.Client.FreeNacks) }),
		row("fallback entries", func(r harness.Result) string { return count(r.Resilience.Client.FallbackEntries) }),
		row("fallback exits", func(r harness.Result) string { return count(r.Resilience.Client.FallbackExits) }),
		row("degraded cycles", func(r harness.Result) string { return Sci(float64(r.Resilience.Client.DegradedCycles)) }),
		row("emergency mallocs", func(r harness.Result) string { return count(r.Resilience.Client.EmergencyMallocs) }),
		row("emergency frees", func(r harness.Result) string { return count(r.Resilience.Client.EmergencyFrees) }),
		row("deferred frees", func(r harness.Result) string { return count(r.Resilience.Client.DeferredFrees) }),
		row("abandoned requests", func(r harness.Result) string { return count(r.Resilience.Client.AbandonedRequests) }),
		row("reclaimed blocks", func(r harness.Result) string { return count(r.Resilience.Client.ReclaimedBlocks) }),
		row("injected stalls", func(r harness.Result) string { return count(r.Resilience.Injected.Stalls) }),
		row("injected stall cycles", func(r harness.Result) string { return Sci(float64(r.Resilience.Injected.StallCycles)) }),
		row("injected drops", func(r harness.Result) string { return count(r.Resilience.Injected.DoorbellDrops) }),
		row("injected corruptions", func(r harness.Result) string { return count(r.Resilience.Injected.CorruptWords) }),
		row("injected slow cycles", func(r harness.Result) string { return Sci(float64(r.Resilience.Injected.SlowdownCycles)) }),
	}
}

// ResilienceTable renders the degradation/fault telemetry in the
// counter table's layout (metrics × allocators).
func ResilienceTable(title string, results []harness.Result) string {
	header := []string{"Allocator"}
	for _, r := range results {
		header = append(header, r.Allocator)
	}
	return Table(title, header, ResilienceRows(results))
}

// WarpRows renders the time-warp ledger (host-side telemetry: how much
// idle stepping the scheduler skipped; all simulated counters are
// bit-identical with warp off). Runs where warp never engaged show "-".
func WarpRows(results []harness.Result) [][]string {
	row := func(name string, get func(harness.Result) string) []string {
		cells := []string{name}
		for _, r := range results {
			if r.Warp.Windows == 0 {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, get(r))
		}
		return cells
	}
	return [][]string{
		row("windows skipped", func(r harness.Result) string { return fmt.Sprintf("%d", r.Warp.Windows) }),
		row("rounds skipped", func(r harness.Result) string { return fmt.Sprintf("%d", r.Warp.Rounds) }),
		row("cycles warped", func(r harness.Result) string { return Sci(float64(r.Warp.CyclesWarped)) }),
		row("largest skip", func(r harness.Result) string { return fmt.Sprintf("%d", r.Warp.LargestSkip) }),
		row("parks", func(r harness.Result) string { return fmt.Sprintf("%d", r.Warp.Parks) }),
		row("parked leases", func(r harness.Result) string { return fmt.Sprintf("%d", r.Warp.ParkedLeases) }),
	}
}

// WarpTable renders the time-warp ledger in the counter table's layout
// (metrics × allocators).
func WarpTable(title string, results []harness.Result) string {
	header := []string{"Allocator"}
	for _, r := range results {
		header = append(header, r.Allocator)
	}
	return Table(title, header, WarpRows(results))
}

// sparkRamp orders the sparkline glyphs from empty to full.
const sparkRamp = " .:-=+*#%@"

// Sparkline renders vals as one line of ASCII glyphs scaled to the
// series maximum. Series longer than width are bucket-averaged down; an
// all-zero or empty series renders flat.
func Sparkline(vals []float64, width int) string {
	if width <= 0 || len(vals) == 0 {
		return ""
	}
	if len(vals) > width {
		squeezed := make([]float64, width)
		for i := range squeezed {
			lo := i * len(vals) / width
			hi := (i + 1) * len(vals) / width
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range vals[lo:hi] {
				sum += v
			}
			squeezed[i] = sum / float64(hi-lo)
		}
		vals = squeezed
	}
	var maxV float64
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	out := make([]byte, len(vals))
	for i, v := range vals {
		idx := 0
		if maxV > 0 && v > 0 {
			idx = int(v / maxV * float64(len(sparkRamp)-1))
			if idx >= len(sparkRamp) {
				idx = len(sparkRamp) - 1
			}
			if idx == 0 {
				idx = 1 // any positive value is visibly nonzero
			}
		}
		out[i] = sparkRamp[idx]
	}
	return string(out)
}

// TimelineTable renders the sampled series as per-interval rates over
// the worker cores (the server core, when any, is excluded so its
// polling does not dilute the MPKI), one sparkline per metric with the
// min/max range alongside. serverCore is -1 for runs without a server.
func TimelineTable(title string, s *timeline.Series, serverCore int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if s == nil || len(s.Samples) < 2 {
		b.WriteString("(no samples)\n")
		return b.String()
	}
	keep := func(c int) bool { return c != serverCore }
	n := len(s.Samples) - 1 // intervals
	deltas := make([]sim.Counters, n)
	for i := 0; i < n; i++ {
		deltas[i] = s.Delta(i, i+1, keep)
	}
	series := func(get func(i int) float64) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = get(i)
		}
		return vals
	}
	mpki := func(get func(sim.Counters) uint64) []float64 {
		return series(func(i int) float64 {
			return sim.MPKI(get(deltas[i]), deltas[i].Instructions)
		})
	}
	type sparkRow struct {
		name string
		vals []float64
		fmt  string
	}
	rows := []sparkRow{
		{"instructions", series(func(i int) float64 { return float64(deltas[i].Instructions) }), "%.0f"},
		{"LLC-load-MPKI", mpki(func(c sim.Counters) uint64 { return c.LLCLoadMisses }), "%.3f"},
		{"LLC-store-MPKI", mpki(func(c sim.Counters) uint64 { return c.LLCStoreMisses }), "%.3f"},
		{"dTLB-load-MPKI", mpki(func(c sim.Counters) uint64 { return c.DTLBLoadMisses }), "%.3f"},
		{"dTLB-store-MPKI", mpki(func(c sim.Counters) uint64 { return c.DTLBStoreMisses }), "%.3f"},
	}
	if serverCore >= 0 {
		rows = append(rows,
			sparkRow{"malloc ring depth", series(func(i int) float64 {
				return float64(s.Samples[i+1].Rings.MallocDepth)
			}), "%.0f"},
			sparkRow{"free ring depth", series(func(i int) float64 {
				return float64(s.Samples[i+1].Rings.FreeDepth)
			}), "%.0f"},
			sparkRow{"server busy %", series(func(i int) float64 {
				busy := float64(s.Samples[i+1].Server.BusyCycles - s.Samples[i].Server.BusyCycles)
				idle := float64(s.Samples[i+1].Server.IdleCycles - s.Samples[i].Server.IdleCycles)
				if busy+idle == 0 {
					return 0
				}
				return 100 * busy / (busy + idle)
			}), "%.1f"},
		)
	}
	first := s.Samples[0].Cycle
	last := s.Samples[len(s.Samples)-1].Cycle
	fmt.Fprintf(&b, "%d samples, interval %d cycles, span [%d, %d]\n",
		len(s.Samples), s.Interval, first, last)
	wname := 0
	for _, r := range rows {
		if len(r.name) > wname {
			wname = len(r.name)
		}
	}
	const sparkWidth = 48
	for _, r := range rows {
		minV, maxV := r.vals[0], r.vals[0]
		for _, v := range r.vals[1:] {
			minV = min(minV, v)
			maxV = max(maxV, v)
		}
		fmt.Fprintf(&b, "%-*s |%-*s| min "+r.fmt+"  max "+r.fmt+"\n",
			wname+1, r.name, sparkWidth, Sparkline(r.vals, sparkWidth), minV, maxV)
	}
	return b.String()
}

// LatencyTable renders the offload latency histograms: one row per
// (op, phase) with count, mean, and the p50/p90/p99/max percentiles in
// cycles. Ops that never ran are skipped; a nil or empty recorder
// renders a placeholder.
func LatencyTable(title string, rec *timeline.LatencyRecorder) string {
	if rec == nil || !rec.HasSpans() {
		return title + "\n(no offload spans recorded)\n"
	}
	header := []string{"op / phase", "count", "mean", "p50", "p90", "p99", "max"}
	var rows [][]string
	cyc := func(v uint64) string { return fmt.Sprintf("%d", v) }
	for op := timeline.Op(0); op < timeline.NumOps; op++ {
		l := rec.ByOp[op]
		if l.Total.Count == 0 {
			continue
		}
		for _, ph := range []struct {
			name string
			h    timeline.Hist
		}{
			{"queue-wait", l.Queue},
			{"service", l.Service},
			{"end-to-end", l.Total},
		} {
			rows = append(rows, []string{
				fmt.Sprintf("%s %s", op, ph.name),
				fmt.Sprintf("%d", ph.h.Count),
				fmt.Sprintf("%.1f", ph.h.Mean()),
				cyc(ph.h.Quantile(0.50)),
				cyc(ph.h.Quantile(0.90)),
				cyc(ph.h.Quantile(0.99)),
				cyc(ph.h.Max),
			})
		}
	}
	out := Table(title, header, rows)
	if rec.Dropped > 0 {
		out += fmt.Sprintf("(%d spans beyond the retention cap; histograms include them)\n", rec.Dropped)
	}
	return out
}

// SLOTable renders the per-tenant SLO ledger: one row per tenant with
// end-to-end percentiles, violation counts, the tenant's worst window,
// and how far its p99 sits from its class budget. Tenants that
// completed no request (churned out early, or abandons only) render "-"
// latency cells instead of dividing by zero.
func SLOTable(title string, tr *slo.Tracker) string {
	if tr == nil || !tr.HasData() {
		return title + "\n(no slo data recorded)\n"
	}
	header := []string{"tenant", "class", "requests", "abandons", "violations",
		"p50", "p99", "p999", "max", "worst win", "vs budget"}
	var rows [][]string
	for _, id := range tr.TenantIDs() {
		ts := tr.Tenant(id)
		row := []string{fmt.Sprintf("%d", id), tenantClasses(ts),
			fmt.Sprintf("%d", ts.Requests), fmt.Sprintf("%d", ts.Abandons),
			fmt.Sprintf("%d", ts.Violations)}
		if ts.Requests == 0 {
			row = append(row, "-", "-", "-", "-", "-", "-")
		} else {
			h := ts.Total.Total
			row = append(row,
				fmt.Sprintf("%d", h.Quantile(0.50)),
				fmt.Sprintf("%d", h.Quantile(0.99)),
				fmt.Sprintf("%d", h.Quantile(0.999)),
				fmt.Sprintf("%d", h.Max),
				fmt.Sprintf("%d", ts.WorstWindowViolations),
				vsBudget(tr, ts))
		}
		rows = append(rows, row)
	}
	out := Table(title, header, rows)
	if w, ok := tr.WorstWindow(); ok {
		out += fmt.Sprintf("worst window: [%d, %d) — %d violations / %d requests (burn rate %.1fx)\n",
			w.Start, w.Start+tr.Width(), w.Violations, w.Requests, tr.BurnRate(w))
	}
	if tr.DroppedSpans() > 0 {
		out += fmt.Sprintf("(%d request spans beyond the retention cap; ledgers include them)\n", tr.DroppedSpans())
	}
	return out
}

// tenantClasses names the op classes a tenant actually ran.
func tenantClasses(ts *slo.TenantStats) string {
	var names []string
	for c := slo.Class(0); c < slo.NumClasses; c++ {
		if ts.ByClass[c].Total.Count > 0 {
			names = append(names, c.String())
		}
	}
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, "+")
}

// vsBudget formats the worst per-class p99-vs-budget delta as a signed
// percentage ("-" when every class the tenant ran is unbudgeted).
func vsBudget(tr *slo.Tracker, ts *slo.TenantStats) string {
	worst, ok := 0.0, false
	for c := slo.Class(0); c < slo.NumClasses; c++ {
		b := tr.Options().Budgets[c]
		if b == 0 || ts.ByClass[c].Total.Count == 0 {
			continue
		}
		d := (float64(ts.ByClass[c].Total.Quantile(0.99)) - float64(b)) / float64(b)
		if !ok || d > worst {
			worst, ok = d, true
		}
	}
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%+.0f%%", worst*100)
}

// AttributionRows builds the miss-attribution layout: for every address
// class, the share of worker-core LLC misses and dTLB misses that fell
// on that class (one column per result).
func AttributionRows(results []harness.Result) [][]string {
	pct := func(part, whole uint64) string {
		if whole == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
	}
	var rows [][]string
	for _, metric := range []struct {
		name string
		tot  func(sim.ClassCounters) uint64
	}{
		{"LLC-miss", func(c sim.ClassCounters) uint64 { return c.LLCLoadMisses + c.LLCStoreMisses }},
		{"dTLB-miss", func(c sim.ClassCounters) uint64 { return c.DTLBLoadMisses + c.DTLBStoreMisses }},
	} {
		for _, cls := range region.Classes() {
			row := []string{fmt.Sprintf("%s %% %s", metric.name, cls)}
			for _, r := range results {
				var whole uint64
				for _, c := range r.Classes {
					whole += metric.tot(c)
				}
				row = append(row, pct(metric.tot(r.Classes[cls]), whole))
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// AttributionTable renders the per-class miss shares in the counter
// table's layout (classes × allocators).
func AttributionTable(title string, results []harness.Result) string {
	header := []string{"Allocator"}
	for _, r := range results {
		header = append(header, r.Allocator)
	}
	return Table(title, header, AttributionRows(results))
}

// LayoutCell pairs one layout-ablation run with the metadata layout it
// pinned and the index of its same-transport segregated baseline cell
// (-1 when the cell is its own baseline).
type LayoutCell struct {
	Result   harness.Result
	Layout   core.Layout
	Baseline int
}

// LayoutRows builds the layout-ablation readout: the static metadata
// footprint of each layout (record stride, allocation-state bytes and
// bits per block for the 64 B class), the measured metadata-class LLC
// and dTLB misses summed over worker and server cores, cycles per
// malloc/free call, and deltas against each cell's segregated baseline.
func LayoutRows(cells []LayoutCell) [][]string {
	sc := alloc.NewSizeClasses()
	class, _ := sc.ClassFor(64)
	metaMiss := func(r harness.Result, get func(sim.ClassCounters) uint64) uint64 {
		return get(r.Classes[region.Meta]) + get(r.ServerClasses[region.Meta])
	}
	llc := func(c sim.ClassCounters) uint64 { return c.LLCLoadMisses + c.LLCStoreMisses }
	tlb := func(c sim.ClassCounters) uint64 { return c.DTLBLoadMisses + c.DTLBStoreMisses }
	cpo := func(r harness.Result) float64 {
		ops := r.AllocStats.MallocCalls + r.AllocStats.FreeCalls
		if ops == 0 {
			return 0
		}
		return float64(r.Total.Cycles) / float64(ops)
	}
	delta := func(v, base float64) string {
		if base == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*(v-base)/base)
	}
	row := func(name string, cell func(LayoutCell) string) []string {
		cells2 := []string{name}
		for _, c := range cells {
			cells2 = append(cells2, cell(c))
		}
		return cells2
	}
	return [][]string{
		row("layout", func(c LayoutCell) string { return c.Layout.String() }),
		row("meta record bytes", func(c LayoutCell) string {
			return fmt.Sprintf("%d", c.Layout.RecordBytes())
		}),
		row("state bytes/slab (64B class)", func(c LayoutCell) string {
			_, bytes := core.MetaFootprint(c.Layout, sc, class)
			return fmt.Sprintf("%d", bytes)
		}),
		row("state bits/block (64B class)", func(c LayoutCell) string {
			capacity, bytes := core.MetaFootprint(c.Layout, sc, class)
			return fmt.Sprintf("%.2f", 8*float64(bytes)/float64(capacity))
		}),
		row("meta LLC misses", func(c LayoutCell) string {
			return Sci(float64(metaMiss(c.Result, llc)))
		}),
		row("meta dTLB misses", func(c LayoutCell) string {
			return Sci(float64(metaMiss(c.Result, tlb)))
		}),
		row("cycles/op", func(c LayoutCell) string { return fmt.Sprintf("%.1f", cpo(c.Result)) }),
		row("d-meta-miss vs seg", func(c LayoutCell) string {
			if c.Baseline < 0 {
				return "-"
			}
			b := cells[c.Baseline].Result
			return delta(float64(metaMiss(c.Result, llc)+metaMiss(c.Result, tlb)),
				float64(metaMiss(b, llc)+metaMiss(b, tlb)))
		}),
		row("d-cycles/op vs seg", func(c LayoutCell) string {
			if c.Baseline < 0 {
				return "-"
			}
			return delta(cpo(c.Result), cpo(cells[c.Baseline].Result))
		}),
	}
}

// LayoutTable renders the layout-ablation cells (layout x transport
// columns) in the counter table's layout.
func LayoutTable(title string, cells []LayoutCell) string {
	header := []string{"Cell"}
	for _, c := range cells {
		header = append(header, c.Result.Allocator)
	}
	return Table(title, header, LayoutRows(cells))
}
