package experiments

import (
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/workload"
)

// AblateLayout quantifies the paper §3's metadata-layout trade-off with
// the repo's own attribution telemetry: all three layouts (segregated
// index stacks, aggregated intrusive lists, compact bitmask groups)
// crossed with the preallocation policy (none, adaptive) on
// the Table 1 and Table 3 xalanc shapes. Each cell reports the layout's
// static metadata footprint next to the measured metadata-class LLC and
// dTLB misses (worker + server cores) and cycles per malloc/free, with
// deltas against the segregated baseline of the same transport.
func AblateLayout(e Env) Outcome {
	s := e.Scale
	layouts := []core.Layout{core.Segregated, core.Aggregated, core.Compact}
	transports := []struct{ name, kind string }{
		{"default", "nextgen"},
		{"adaptive", "nextgen-adaptive"},
	}
	workloads := []struct {
		name string
		make func() workload.Workload
	}{
		{"table1 xalanc", func() workload.Workload { return workload.DefaultXalanc(s.XalancOps) }},
		{"table3 xalanc", func() workload.Workload { return table3Xalanc(s) }},
	}
	nl := len(layouts)
	cells := nl * len(transports)
	all := runAll(cells*len(workloads), func(i int) harness.Result {
		l := layouts[i%nl]
		tr := transports[(i%cells)/nl]
		r := e.run(harness.Options{
			Allocator: tr.kind + ":layout=" + l.String(),
			Workload:  workloads[i/cells].make(),
		})
		r.Allocator = l.String() + "/" + tr.name
		return r
	})
	var b strings.Builder
	for wi, wl := range workloads {
		set := all[wi*cells : (wi+1)*cells]
		cols := make([]report.LayoutCell, cells)
		for c := range set {
			base := (c / nl) * nl // the segregated cell of this transport block
			if c == base {
				base = -1
			}
			cols[c] = report.LayoutCell{Result: set[c], Layout: layouts[c%nl], Baseline: base}
		}
		b.WriteString(report.LayoutTable(
			"Ablation: metadata layout x prealloc policy, "+wl.name+" (meta misses: worker+server cores)", cols))
		b.WriteByte('\n')
	}
	return Outcome{ID: "ablate-layout", Results: all, Text: b.String()}
}
