package experiments

import (
	"fmt"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/workload"
)

// AblateFaaS reproduces the §3.3.2 serverless extension: a function
// worker's cold start pays for slab carving and (for the offloaded
// allocator) stash warmup; preheating the allocator with the function's
// known allocation profile moves that cost off the first request.
func AblateFaaS(e Env) Outcome {
	invocations := e.Scale.XalancOps / 1000
	if invocations < 50 {
		invocations = 50
	}
	profile := workload.DefaultFaaSProfile()

	type cfg struct {
		label   string
		kind    string
		preheat bool
	}
	cfgs := []cfg{
		{"mimalloc", "mimalloc", false},
		{"nextgen cold", "nextgen-prealloc", false},
		{"nextgen preheated", "nextgen-prealloc", true},
	}
	header := []string{"configuration", "cold-start cycles", "steady-state cycles", "cold/steady"}
	rows := runAll(len(cfgs), func(i int) []string {
		c := cfgs[i]
		w := &workload.FaaS{
			Invocations:     invocations,
			Profile:         profile,
			ComputePerAlloc: 40,
			Seed:            1,
		}
		opt := harness.Options{Allocator: c.kind, Workload: w}
		if c.preheat {
			opt.Prepare = func(t *sim.Thread, a alloc.Allocator) {
				if ng, ok := a.(*core.Allocator); ok {
					ng.Preheat(t, profile)
				}
			}
		}
		e.run(opt)
		cold, steady := w.ColdStart(), w.SteadyState()
		return []string{
			c.label,
			report.Sci(float64(cold)),
			report.Sci(float64(steady)),
			fmt.Sprintf("%.2fx", float64(cold)/float64(steady)),
		}
	})
	text := report.Table("Ablation: FaaS cold start with allocator preheating (§3.3.2)", header, rows)
	return Outcome{ID: "ablate-faas", Text: text}
}
