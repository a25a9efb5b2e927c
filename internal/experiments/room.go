package experiments

import (
	"fmt"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/gcheap"
	"nextgenmalloc/internal/report"
	"nextgenmalloc/internal/sim"
)

// runSharedRoom executes a mixed program — a managed heap churning
// GCBench trees *and* a raw NextGen malloc/free stream — with the
// service functions placed either on two dedicated cores (allocator
// core + GC core) or multiplexed on one shared core, the paper's
// closing intro question: "Can the room be used for other functions
// instead of exclusively for memory allocation?" The machine is built
// from cfg.
func runSharedRoom(cfg sim.Config, shared bool, rounds int) (appCycles uint64, serviceCores int, pause uint64) {
	m := sim.New(cfg)
	allocCore := m.Cores() - 1
	gcCore := m.Cores() - 2

	srv := core.NewServer()
	var off *gcheap.Offloader
	if shared {
		serviceCores = 1
		m.SpawnDaemon("shared-room", allocCore, func(th *sim.Thread) {
			for {
				if th.Stopping() {
					srv.Drain(th)
					return
				}
				busy := srv.Poll(th)
				if off != nil && off.Poll(th) {
					busy = true
				}
				if !busy {
					srv.Idle(th)
					th.Pause(8)
				}
			}
		})
	} else {
		serviceCores = 2
		m.SpawnDaemon("alloc-room", allocCore, srv.Run)
		m.SpawnDaemon("gc-room", gcCore, func(th *sim.Thread) {
			for off == nil {
				if th.Stopping() {
					return
				}
				th.Pause(100)
			}
			off.Serve(th)
		})
	}

	var h *gcheap.Heap
	m.Spawn("app", 0, func(th *sim.Thread) {
		cfg := core.DefaultConfig()
		cfg.Prealloc = core.PreallocStatic
		a := core.New(th, cfg)
		srv.Attach(a)
		h = gcheap.New(th, 2)
		h.TriggerEvery = 5000
		off = gcheap.NewOffloader(th, h)

		var build func(depth int) uint64
		build = func(depth int) uint64 {
			n := h.Alloc(th, 2, 16)
			if depth > 0 {
				h.WriteRef(th, n, 0, build(depth-1))
				h.WriteRef(th, n, 1, build(depth-1))
			}
			return n
		}
		longLived := build(9)
		th.Store64(h.RootAddr(0), longLived)

		start := th.Clock()
		scratch := make([]uint64, 0, 32)
		for i := 0; i < rounds; i++ {
			// Raw allocations through the offloaded malloc...
			scratch = scratch[:0]
			for k := 0; k < 24; k++ {
				p := a.Malloc(th, uint64(32+(k%6)*16))
				th.Store64(p, uint64(i))
				scratch = append(scratch, p)
			}
			// ...interleaved with managed-tree churn...
			tmp := build(6)
			th.Store64(h.RootAddr(1), tmp)
			th.Store64(h.RootAddr(1), 0)
			for _, p := range scratch {
				a.Free(th, p)
			}
			th.Exec(800)
			// ...with collections triggered by the heap's budget.
			if h.NeedsCollect() {
				off.Request(th)
			}
		}
		a.Flush(th)
		appCycles = th.Clock() - start
	})
	m.Run()
	pause = h.Stats().PauseCycles
	return appCycles, serviceCores, pause
}

// AblateRoom measures the cost of multiplexing the allocator server and
// the GC collector on one dedicated core versus giving each its own.
func AblateRoom(e Env) Outcome {
	rounds := e.Scale.XalancOps / 500
	if rounds < 100 {
		rounds = 100
	}
	type roomResult struct {
		cycles uint64
		cores  int
		pause  uint64
	}
	both := runAll(2, func(i int) roomResult {
		c, n, p := runSharedRoom(*e.machine(), i == 1, rounds)
		return roomResult{c, n, p}
	})
	twoCyc, twoCores, twoPause := both[0].cycles, both[0].cores, both[0].pause
	oneCyc, oneCores, onePause := both[1].cycles, both[1].cores, both[1].pause

	header := []string{"placement", "service cores", "app cycles", "GC pause cycles"}
	rows := [][]string{
		{"dedicated rooms", fmt.Sprintf("%d", twoCores), report.Sci(float64(twoCyc)), report.Sci(float64(twoPause))},
		{"shared room", fmt.Sprintf("%d", oneCores), report.Sci(float64(oneCyc)), report.Sci(float64(onePause))},
	}
	text := report.Table("Ablation: one shared service core vs dedicated cores (intro question (c))", header, rows)
	text += fmt.Sprintf("\nsharing one core costs %+.2f%% application cycles and frees a core\n",
		(float64(oneCyc)-float64(twoCyc))/float64(twoCyc)*100)
	return Outcome{ID: "ablate-room", Text: text}
}
