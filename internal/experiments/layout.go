package experiments

import (
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/workload"
)

// layoutTune is the global config override installed by the CLIs'
// -layout flag; nil keeps each kind's default layout.
var layoutTune func(*core.Config)

// SetLayout installs a metadata-layout override for every NextGen run
// launched through the standard experiment sets (runSet). The
// layout-ablation sweep ignores it — its cells pin their own layouts.
func SetLayout(tune func(*core.Config)) { layoutTune = tune }

// ParseLayout converts a -layout flag value into a config tune. ""
// returns a nil tune (keep per-kind defaults); an unknown spelling is
// an error the CLIs turn into exit 2.
func ParseLayout(spec string) (func(*core.Config), error) {
	if spec == "" {
		return nil, nil
	}
	l, err := core.ParseLayout(spec)
	if err != nil {
		return nil, err
	}
	return func(c *core.Config) { c.Layout = l }, nil
}

// Tunes composes config tunes left to right, skipping nils; nil when
// none apply.
func Tunes(tunes ...func(*core.Config)) func(*core.Config) {
	live := tunes[:0:0]
	for _, t := range tunes {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(c *core.Config) {
		for _, t := range live {
			t(c)
		}
	}
}

// globalTune is the standing override the standard experiment sets
// apply to every NextGen run: the transport flags first, then -layout.
func globalTune() func(*core.Config) {
	return Tunes(transportTune, layoutTune)
}

// AblateLayout quantifies the paper §3's metadata-layout trade-off with
// the repo's own attribution telemetry: all three layouts (segregated
// index stacks, aggregated intrusive lists, compact bitmask groups)
// crossed with the preallocation policy (none, adaptive) on
// the Table 1 and Table 3 xalanc shapes. Each cell reports the layout's
// static metadata footprint next to the measured metadata-class LLC and
// dTLB misses (worker + server cores) and cycles per malloc/free, with
// deltas against the segregated baseline of the same transport.
func AblateLayout(s Scale) Outcome {
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
		r := run(harness.Options{
			Allocator: tr.kind,
			Workload:  workloads[i/cells].make(),
			Tune:      func(c *core.Config) { c.Layout = l },
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
