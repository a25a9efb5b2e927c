package harness

import (
	"testing"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/trace"
	"nextgenmalloc/internal/workload"
)

func smallChurn() workload.Workload {
	return &workload.Churn{NThreads: 1, Slots: 500, Rounds: 3000, MinSize: 16, MaxSize: 128, TouchBytes: 16, Seed: 4}
}

func TestUnknownAllocatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown allocator")
		}
	}()
	Run(Options{Allocator: "nosuch", Workload: smallChurn()})
}

func TestMachineOverride(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	res := Run(Options{Allocator: "mimalloc", Workload: smallChurn(), Machine: &cfg})
	if res.Total.Instructions == 0 {
		t.Fatal("override machine ran nothing")
	}
}

func TestServerCoreCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when workers collide with the server core")
		}
	}()
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	w := &workload.Xmalloc{NThreads: 2, OpsPerThread: 10, Seed: 1}
	Run(Options{Allocator: "nextgen", Workload: w, Machine: &cfg})
}

func TestWrapRecordsTrace(t *testing.T) {
	var rec *trace.Recorder
	res := Run(Options{
		Allocator: "mimalloc",
		Workload:  smallChurn(),
		Wrap: func(a alloc.Allocator) alloc.Allocator {
			rec = trace.NewRecorder(a)
			return rec
		},
	})
	if rec == nil || rec.Trace().Mallocs() == 0 {
		t.Fatal("wrap did not observe the request stream")
	}
	if uint64(rec.Trace().Mallocs()) != res.AllocStats.MallocCalls {
		t.Errorf("recorder saw %d mallocs, stats say %d",
			rec.Trace().Mallocs(), res.AllocStats.MallocCalls)
	}
}

func TestPrepareRuns(t *testing.T) {
	ran := false
	Run(Options{
		Allocator: "nextgen-prealloc",
		Workload:  smallChurn(),
		Prepare: func(th *sim.Thread, a alloc.Allocator) {
			ran = true
			if ng, ok := a.(*core.Allocator); ok {
				ng.Preheat(th, []uint64{32, 64, 96})
			}
		},
	})
	if !ran {
		t.Error("Prepare hook did not run")
	}
}

// TestServerCountersSeparated: the offload server's work must not leak
// into the application cores' totals.
func TestServerCountersSeparated(t *testing.T) {
	res := Run(Options{Allocator: "nextgen", Workload: smallChurn()})
	if res.Server.Instructions == 0 {
		t.Error("server core shows no work")
	}
	if res.Served == 0 {
		t.Error("no ring ops recorded")
	}
	// The workload is single-threaded: exactly one app-core delta.
	if len(res.PerThread) != 1 {
		t.Fatalf("PerThread = %d entries", len(res.PerThread))
	}
	if res.Total != res.PerThread[0] {
		t.Error("total != single worker delta")
	}
}

// TestTraceReplayAcrossAllocators: one recorded stream replays cleanly
// against every allocator family, with identical call counts.
func TestTraceReplayAcrossAllocators(t *testing.T) {
	var rec *trace.Recorder
	Run(Options{
		Allocator: "bump",
		Workload:  smallChurn(),
		Wrap: func(a alloc.Allocator) alloc.Allocator {
			rec = trace.NewRecorder(a)
			return rec
		},
	})
	tr := rec.Trace()
	for _, kind := range []string{"ptmalloc2", "jemalloc", "tcmalloc", "mimalloc", "nextgen"} {
		res := Run(Options{Allocator: kind, Workload: &replayWL{tr: tr}})
		if int(res.AllocStats.MallocCalls) != tr.Mallocs() {
			t.Errorf("%s: replay made %d mallocs, want %d", kind, res.AllocStats.MallocCalls, tr.Mallocs())
		}
		if res.AllocStats.FreeCalls != res.AllocStats.MallocCalls {
			t.Errorf("%s: replay leaked (%d vs %d)", kind, res.AllocStats.MallocCalls, res.AllocStats.FreeCalls)
		}
	}
}

type replayWL struct{ tr *trace.Trace }

func (r *replayWL) Name() string                           { return "replay" }
func (r *replayWL) Threads() int                           { return 1 }
func (r *replayWL) Setup(t *sim.Thread, a alloc.Allocator) {}
func (r *replayWL) Run(t *sim.Thread, part int, a alloc.Allocator) {
	trace.Replay(t, a, r.tr)
}
