package experiments

import (
	"fmt"

	"nextgenmalloc/internal/gcheap"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/sim"
)

// gcResult summarizes one managed-heap run.
type gcResult struct {
	mode    string
	app     sim.Counters
	gcCore  sim.Counters
	gcStats gcheap.Stats
}

// runGCBench executes a GCBench-style program: a long-lived tree is
// built once and traversed continuously while short-lived trees are
// built and dropped, forcing regular collections, on a machine built
// from cfg. offload selects where those collections run.
func runGCBench(cfg sim.Config, offload bool, shortTrees, treeDepth int) gcResult {
	m := sim.New(cfg)
	gcCore := m.Cores() - 1
	var h *gcheap.Heap
	var off *gcheap.Offloader
	if offload {
		m.SpawnDaemon("gc-core", gcCore, func(th *sim.Thread) {
			for off == nil {
				if th.Stopping() {
					return
				}
				th.Pause(100)
			}
			off.Serve(th)
		})
	}
	res := gcResult{mode: "inline"}
	if offload {
		res.mode = "offloaded"
	}
	var gcStart sim.Counters

	m.Spawn("mutator", 0, func(th *sim.Thread) {
		h = gcheap.New(th, 4)
		h.TriggerEvery = 6000
		if offload {
			off = gcheap.NewOffloader(th, h)
		}
		gcStart = th.Machine().CoreCounters(gcCore)

		// buildTree builds a binary tree of the given depth and returns
		// its root (bottom-up, as GCBench does).
		var buildTree func(depth int) uint64
		buildTree = func(depth int) uint64 {
			n := h.Alloc(th, 2, 16)
			th.Store64(n+16, uint64(depth)) // payload
			if depth > 0 {
				h.WriteRef(th, n, 0, buildTree(depth-1))
				h.WriteRef(th, n, 1, buildTree(depth-1))
			}
			return n
		}
		// traverse sums the payloads (the mutator's cache-resident work).
		var traverse func(n uint64) uint64
		traverse = func(n uint64) uint64 {
			if n == 0 {
				return 0
			}
			th.Exec(4)
			return th.Load64(n+16) + traverse(h.ReadRef(th, n, 0)) + traverse(h.ReadRef(th, n, 1))
		}

		start := th.Counters()
		// The long-lived heap is several times the private caches, so a
		// full inline mark sweeps the mutator's L1/L2 clean every
		// collection; the mutator's own hot set is the current short
		// tree plus a slice of the long-lived one.
		longLived := buildTree(13) // ~16k nodes
		th.Store64(h.RootAddr(0), longLived)
		hotSlice := longLived
		for i := 0; i < shortTrees; i++ {
			tmp := buildTree(treeDepth)
			th.Store64(h.RootAddr(1), tmp)
			traverse(tmp)
			th.Store64(h.RootAddr(1), 0) // drop it
			// Walk down the long-lived tree a little (a hot path, not a
			// full scan).
			hotSlice = h.ReadRef(th, hotSlice, i%2)
			if hotSlice == 0 {
				hotSlice = longLived
			}
			th.Exec(2000)
			if h.NeedsCollect() {
				if offload {
					off.Request(th)
				} else {
					h.CollectInline(th)
				}
			}
		}
		res.app = th.Counters().Sub(start)
		res.gcStats = h.Stats()
	})
	m.Run()
	res.gcCore = m.CoreCounters(gcCore).Sub(gcStart)
	return res
}

// AblateGC reproduces the §3.3.2 extension: offloading stop-the-world
// garbage collection to the dedicated core, versus collecting on the
// mutator's core.
func AblateGC(e Env) Outcome {
	shortTrees := e.Scale.XalancOps / 1250 * 8
	if shortTrees < 32 {
		shortTrees = 32
	}
	both := runAll(2, func(i int) gcResult {
		return runGCBench(*e.machine(), i == 1, shortTrees, 9)
	})
	inline, offl := both[0], both[1]

	header := []string{"mode", "app cycles", "app L1-miss", "app L2-miss", "app LLC-miss", "pause cycles", "collections"}
	row := func(r gcResult) []string {
		return []string{
			r.mode,
			report.Sci(float64(r.app.Cycles)),
			report.Sci(float64(r.app.L1Misses)),
			report.Sci(float64(r.app.L2Misses)),
			report.Sci(float64(r.app.LLCLoadMisses + r.app.LLCStoreMisses)),
			report.Sci(float64(r.gcStats.PauseCycles)),
			fmt.Sprintf("%d", r.gcStats.Collections),
		}
	}
	text := report.Table("Ablation: GC on the mutator core vs the dedicated core (§3.3.2)",
		header, [][]string{row(inline), row(offl)})
	delta := (float64(inline.app.Cycles) - float64(offl.app.Cycles)) / float64(inline.app.Cycles) * 100
	text += fmt.Sprintf("\nmutator-core cycle change from offloading GC: %+.2f%%\n", delta)
	text += fmt.Sprintf("GC core (offloaded): %s cycles, %s LLC misses absorbed\n",
		report.Sci(float64(offl.gcCore.Cycles)),
		report.Sci(float64(offl.gcCore.LLCLoadMisses+offl.gcCore.LLCStoreMisses)))
	return Outcome{ID: "ablate-gc", Text: text}
}
