package experiments

import (
	"fmt"
	"strings"

	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/workload"
)

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
func AblateTransport(e Env) Outcome {
	workloads := []func() workload.Workload{
		func() workload.Workload { return table3Xalanc(e.Scale) },
		func() workload.Workload {
			return &workload.Xmalloc{NThreads: 2, OpsPerThread: e.Scale.XmallocOps, TouchBytes: 128, Seed: 3}
		},
	}
	nv := len(transportKinds)
	all := runAll(nv*len(workloads), func(i int) harness.Result {
		return e.run(harness.Options{Allocator: transportKinds[i%nv], Workload: workloads[i/nv]()})
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
