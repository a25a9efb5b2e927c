package experiments

import (
	"fmt"
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/workload"
)

// transportTune is the global config override installed by the CLIs'
// -prealloc flag; nil leaves every kind's defaults alone.
var transportTune func(*core.Config)

// SetTransport installs a transport tune applied to every NextGen run
// launched through the standard experiment sets (runSet). The
// AblateTransport sweep ignores it — the sweep owns its variants.
func SetTransport(tune func(*core.Config)) { transportTune = tune }

// ParseTransport converts the CLI's -prealloc value into a config tune.
// "" means "kind default" and yields a nil tune; otherwise prealloc is
// one of "off", "static" (the nextgen-prealloc depth of 12), or
// "adaptive".
func ParseTransport(prealloc string) (func(*core.Config), error) {
	switch prealloc {
	case "":
		return nil, nil
	case "off":
		return func(c *core.Config) { c.Prealloc, c.AdaptivePrealloc = 0, false }, nil
	case "static":
		return func(c *core.Config) { c.Prealloc, c.AdaptivePrealloc = 12, false }, nil
	case "adaptive":
		return func(c *core.Config) { c.AdaptivePrealloc = true }, nil
	}
	return nil, fmt.Errorf("unknown prealloc policy %q (want off, static, or adaptive)", prealloc)
}

// transportKinds are the columns of the AblateTransport sweep: Mimalloc
// as the paper's Table 3 reference, then the offload transport with no
// preallocation (the §4.2 prototype), static depth 12, the
// noteHot-driven stash, and synchronous free.
var transportKinds = []string{"mimalloc", "nextgen", "nextgen-prealloc", "nextgen-adaptive", "nextgen-sync"}

// AblateTransport measures what the preallocation policies and
// asynchronous free buy (the §3.3 opportunities): malloc round trips
// avoided, free-ring publications amortized, producer stall cycles, and
// the server's empty-poll overhead, on the Table 3 xalanc shape and on
// allocation-dense 2-thread xmalloc.
func AblateTransport(s Scale) Outcome {
	workloads := []func() workload.Workload{
		func() workload.Workload { return table3Xalanc(s) },
		func() workload.Workload {
			return &workload.Xmalloc{NThreads: 2, OpsPerThread: s.XmallocOps, TouchBytes: 128, Seed: 3}
		},
	}
	nv := len(transportKinds)
	all := runAll(nv*len(workloads), func(i int) harness.Result {
		return run(harness.Options{Allocator: transportKinds[i%nv], Workload: workloads[i/nv]()})
	})
	xal, xm := all[:nv], all[nv:]

	var b strings.Builder
	b.WriteString(report.CounterTable("Ablation: offload transport on xalanc (application cores)", xal))
	b.WriteByte('\n')
	b.WriteString(report.TransportTable("Transport telemetry, xalanc", xal))
	b.WriteByte('\n')
	b.WriteString(report.AttributionTable("Miss attribution, xalanc (share of worker-core misses)", xal))
	b.WriteByte('\n')
	b.WriteString(report.CounterTable("Ablation: offload transport on xmalloc, 2 threads", xm))
	b.WriteByte('\n')
	b.WriteString(report.TransportTable("Transport telemetry, xmalloc", xm))
	b.WriteByte('\n')
	mi := xal[0]
	fmt.Fprintf(&b, "xalanc cycle margin over Mimalloc (positive = fewer cycles than Mimalloc):\n")
	for _, r := range xal[1:] {
		fmt.Fprintf(&b, "  %-17s %+.2f%%\n", r.Allocator,
			(float64(mi.Total.Cycles)-float64(r.Total.Cycles))/float64(mi.Total.Cycles)*100)
	}
	return Outcome{ID: "ablate-transport", Results: all, Text: b.String()}
}
