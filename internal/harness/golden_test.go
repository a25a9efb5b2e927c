package harness

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/workload"
)

// The golden-counter equivalence test pins the simulated PMU counters of
// every allocator on two quick workloads to the values produced by the
// seed engine. Host-side performance work (page-directory lookup, micro
// TLBs, MRU ways, parallel fan-out) must never change what the model
// computes, only how fast the host computes it; any drift here is a
// model change and fails the test.
//
// The non-default offload variants are pinned too (static and
// noteHot-driven prealloc, synchronous free, the compact layout), so
// later PRs can't silently drift those paths either.
//
// Regenerate (only when the *model* intentionally changes) with:
//
//	go test ./internal/harness -run TestGoldenCounters -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_counters.json from the current engine")

const goldenPath = "testdata/golden_counters.json"

type goldenEntry struct {
	Allocator  string
	Workload   string
	Total      sim.Counters
	PerThread  []sim.Counters
	Server     sim.Counters
	WallCycles uint64
	Served     uint64
}

// goldenWorkloads returns the two quick drivers, freshly constructed per
// run so no state leaks between allocators.
func goldenWorkloads() []func() workload.Workload {
	return []func() workload.Workload{
		func() workload.Workload { return workload.DefaultXalanc(6000) },
		func() workload.Workload {
			return &workload.Xmalloc{NThreads: 2, OpsPerThread: 2000, TouchBytes: 128, Seed: 3}
		},
	}
}

func collectGolden() []goldenEntry {
	var entries []goldenEntry
	for _, mk := range goldenWorkloads() {
		for _, kind := range Kinds {
			res := Run(Options{Allocator: kind, Workload: mk()})
			entries = append(entries, goldenEntry{
				Allocator:  res.Allocator,
				Workload:   res.Workload,
				Total:      res.Total,
				PerThread:  res.PerThread,
				Server:     res.Server,
				WallCycles: res.WallCycles,
				Served:     res.Served,
			})
		}
	}
	return entries
}

func TestGoldenCounters(t *testing.T) {
	got := collectGolden()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden file: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, golden file has %d (regenerate with -update?)", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Allocator != w.Allocator || g.Workload != w.Workload {
			t.Fatalf("entry %d: got %s/%s, want %s/%s", i, g.Allocator, g.Workload, w.Allocator, w.Workload)
		}
		if g.Total != w.Total {
			t.Errorf("%s/%s: Total counters drifted\n got: %+v\nwant: %+v", w.Allocator, w.Workload, g.Total, w.Total)
		}
		if g.Server != w.Server {
			t.Errorf("%s/%s: Server counters drifted\n got: %+v\nwant: %+v", w.Allocator, w.Workload, g.Server, w.Server)
		}
		if g.WallCycles != w.WallCycles {
			t.Errorf("%s/%s: WallCycles drifted: got %d want %d", w.Allocator, w.Workload, g.WallCycles, w.WallCycles)
		}
		if g.Served != w.Served {
			t.Errorf("%s/%s: Served drifted: got %d want %d", w.Allocator, w.Workload, g.Served, w.Served)
		}
		if len(g.PerThread) != len(w.PerThread) {
			t.Errorf("%s/%s: PerThread length %d want %d", w.Allocator, w.Workload, len(g.PerThread), len(w.PerThread))
			continue
		}
		for j := range w.PerThread {
			if g.PerThread[j] != w.PerThread[j] {
				t.Errorf("%s/%s: thread %d counters drifted\n got: %+v\nwant: %+v",
					w.Allocator, w.Workload, j, g.PerThread[j], w.PerThread[j])
			}
		}
	}
}

// ringFreeGoldenSHA256 pins the golden entries that no change to the
// rings can legitimately move: every kind that never talks to a server
// (the classic allocators, bump, nextgen-inline*) on every workload that
// passes nothing between its own threads. xmalloc is excluded — its
// workers hand blocks to their neighbours through ring.SPSC, so even its
// classic rows move with the transport. A deliberate regeneration for a
// ring protocol change (-update rewrites the whole file) therefore
// cannot hide an unrelated drift in the model underneath: these 8
// entries must re-marshal to the same bytes they had before it.
// Recompute only when the *machine model* intentionally changes (the
// digest a failing run prints).
const ringFreeGoldenSHA256 = "a7449cc214a07a34fc2d17e8e2488c947148938641e4173f3dc5fb37179e583a"

// unstagedGoldenSHA256 pins the 10 further entries that a change to how
// asynchronous frees leave the client cannot move: the 8 non-offload
// xmalloc rows (their hand-off queues push one slot at a time) and the 2
// nextgen-sync rows (a synchronous free is pushed with its barrier,
// never staged). They do move with the ring protocol itself, and the 2
// nextgen-sync rows with the response word (their barriers wait on it);
// recompute then, and only then.
const unstagedGoldenSHA256 = "12c56eba00885da73ef5e6a81c509b421683119249a30d88c93e0ba4331bdabc"

func TestGoldenRingFreePinned(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var all, ringFree, unstaged []goldenEntry
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		offload := strings.HasPrefix(e.Allocator, "nextgen") && !strings.HasPrefix(e.Allocator, "nextgen-inline")
		if offload != (e.Served > 0) {
			t.Fatalf("%s/%s: kind name and Served=%d disagree about offload", e.Allocator, e.Workload, e.Served)
		}
		switch {
		case !offload && e.Workload != "xmalloc":
			ringFree = append(ringFree, e)
		case !offload || e.Allocator == "nextgen-sync":
			unstaged = append(unstaged, e)
		}
	}
	for _, set := range []struct {
		name    string
		entries []goldenEntry
		want    string
	}{
		{"ring-free", ringFree, ringFreeGoldenSHA256},
		{"unstaged", unstaged, unstagedGoldenSHA256},
	} {
		raw, err := json.Marshal(set.entries)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != set.want {
			t.Errorf("the %d %s golden entries changed: digest %s, pinned %s", len(set.entries), set.name, got, set.want)
		}
	}
}
