package experiments

import (
	"fmt"

	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/workload"
)

// AblateScaling answers the paper's open question (a) quantitatively:
// one dedicated core serves all application cores' allocation traffic,
// so at some client count the server saturates and offload loses to a
// per-thread allocator. The sweep runs the churn driver (allocation-
// dominated, the offload worst case) on 1..8 application threads
// against Mimalloc (per-thread heaps, embarrassingly parallel) and
// NextGen with preallocation (one server core).
func AblateScaling(e Env) Outcome {
	rounds := e.Scale.ChurnRounds / 4
	if rounds < 10000 {
		rounds = 10000
	}
	header := []string{"threads", "mimalloc wall", "nextgen-prealloc wall", "nextgen/mimalloc", "server ops/kcycle"}
	var rows [][]string
	var crossover int
	threads := []int{1, 2, 4, 8}
	kinds := []string{"mimalloc", "nextgen-prealloc"}
	// Flattened (thread count x allocator) grid; each cell is one
	// independent machine.
	grid := runAll(len(threads)*len(kinds), func(i int) harness.Result {
		n := threads[i/len(kinds)]
		return e.run(harness.Options{
			Allocator: kinds[i%len(kinds)],
			Workload: &workload.Churn{
				NThreads: n, Slots: 4000, Rounds: rounds / n,
				MinSize: 16, MaxSize: 256, TouchBytes: 32, Seed: 17,
			},
		})
	})
	for ti, n := range threads {
		mi := grid[ti*len(kinds)]
		ng := grid[ti*len(kinds)+1]
		ratio := float64(ng.WallCycles) / float64(mi.WallCycles)
		if crossover == 0 && ratio > 1 {
			crossover = n
		}
		// Service rate: ring operations the single server core retires
		// per thousand wall cycles (its ceiling bounds throughput).
		rate := float64(ng.Served) / float64(ng.WallCycles) * 1000
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			report.Sci(float64(mi.WallCycles)),
			report.Sci(float64(ng.WallCycles)),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%.1f", rate),
		})
	}
	text := report.Table("Ablation: offload scaling — one allocator core, N application cores", header, rows)
	text += "\nChurn is the offload worst case (allocation-dominated, no app work to\n" +
		"protect); the single server core's service rate bounds aggregate\n" +
		"allocation throughput, the trade-off the paper's question (a) asks about.\n"
	return Outcome{ID: "ablate-scaling", Text: text}
}
