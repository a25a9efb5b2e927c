package main

import "fmt"

// scale sizes the workloads. full is what BENCHMARK.json measures; smoke
// shrinks every workload below two seconds so `go test ./...` can run the
// whole benchmark path.
type scale struct {
	name            string
	xalancOps       int
	xmallocOps      int // per thread
	serviceRequests int // per worker
	serviceSeeds    int
	minReps         int
	microDivisor    int // host microbenchmark iterations are divided by this
}

var scales = map[string]scale{
	"full":  {name: "full", xalancOps: 200000, xmallocOps: 40000, serviceRequests: 300, serviceSeeds: 4, minReps: 3, microDivisor: 1},
	"smoke": {name: "smoke", xalancOps: 8000, xmallocOps: 2000, serviceRequests: 60, serviceSeeds: 2, minReps: 1, microDivisor: 50},
}

// cell is one harness.RunE call of a rep. options builds a fresh Options
// (and workload instance) every time, so no state survives between runs.
type cell struct {
	label   string
	options func() Options
}

// workloadSpec is one benchmark workload: a rep runs its cells back to
// back, and the workload's numbers pool over them.
type workloadSpec struct {
	name string
	why  string
	// cells derives the rep's inputs from the benchmark seed.
	cells func(seed uint64, sc scale) []cell
	// reference, when non-nil, is run once during set-up on the identical
	// trace (mimalloc under xalanc_offload, for the §4.1 position).
	reference func(seed uint64, sc scale) cell
}

// The why strings are copied into BENCHMARK.json; README.md has the long
// form and the layer each workload stresses.
var workloads = []workloadSpec{
	{
		name: "xalanc_offload",
		why:  "Table 3 xalanc on nextgen, 1 worker + 1 server: sync malloc round trips dominate, so core stub, ring, server poll and slab service do the simulated work",
		cells: func(seed uint64, sc scale) []cell {
			return []cell{{"nextgen", func() Options {
				return Options{Allocator: "nextgen", Workload: xalancTable3(sc.xalancOps, seed)}
			}}}
		},
		reference: func(seed uint64, sc scale) cell {
			return cell{"mimalloc", func() Options {
				return Options{Allocator: "mimalloc", Workload: xalancTable3(sc.xalancOps, seed)}
			}}
		},
	},
	{
		name: "xalanc_classic",
		why:  "Figure 1 xalanc on the four classic allocators: bypasses core, ring, fleet and fault, so a protocol change must leave it bit-identical and a per-access host speed-up shows most",
		cells: func(seed uint64, sc scale) []cell {
			var cells []cell
			for _, kind := range classicKinds {
				cells = append(cells, cell{kind, func() Options {
					return Options{Allocator: kind, Workload: xalancFigure1(sc.xalancOps, seed)}
				}})
			}
			return cells
		},
	},
	{
		name: "xmalloc_fleet",
		why:  "xmalloc, 8 threads on a 4-server nextgen fleet: cross-thread async frees, multi-client ring scans and owner routing; 12 simulated threads make the scheduler the host cost",
		cells: func(seed uint64, sc scale) []cell {
			return []cell{{"nextgen", func() Options {
				return Options{Allocator: "nextgen", Servers: 4, Workload: xmalloc(8, sc.xmallocOps, seed)}
			}}}
		},
	},
	{
		name: "service_failover",
		why:  "open-loop service (1 request per 60k cycles per worker) on a 4-shard fleet whose shard 0 goes dark 500k cycles in every 2M: the only workload where fault, resilience, failover and slo work",
		cells: func(seed uint64, sc scale) []cell {
			// Several independently seeded instances per rep: one
			// instance's tail depends on where its few outages fall.
			var cells []cell
			for i := 0; i < sc.serviceSeeds; i++ {
				sub := seed*1000 + uint64(i)
				cells = append(cells, cell{fmt.Sprintf("seed%d", sub), func() Options {
					return Options{
						Allocator:  "nextgen",
						Servers:    4,
						Workload:   service(8, sc.serviceRequests, 60000, sub),
						SLO:        sloOptions(8 * sc.serviceRequests),
						FaultPlans: shardOutage(500000, 2000000),
						Resilience: failoverResilience(),
					}
				}})
			}
			return cells
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
