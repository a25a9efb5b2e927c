// Offload anatomy: measures the cost of each NextGen-Malloc operation
// mode from the application core's perspective — synchronous ring malloc
// (round trip), stash-hit malloc (predictive preallocation, no round
// trip), asynchronous free (ring push), and synchronous free — the
// trade-offs the paper's §3.1.1 and §4.1 model weighs.
package main

import (
	"fmt"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/sim"
)

// measure reports average app-core cycles per call of f over n calls.
func measure(t *sim.Thread, n int, f func()) float64 {
	start := t.Clock()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(t.Clock()-start) / float64(n)
}

func run(label string, cfg core.Config) {
	m := sim.New(sim.DefaultConfig())
	srv := core.NewServer()
	if cfg.Offload {
		m.SpawnDaemon("allocator-core", 15, srv.Run)
	}
	m.Spawn("app", 0, func(t *sim.Thread) {
		a := core.New(t, cfg)
		if cfg.Offload {
			srv.Attach(a)
		}
		const n = 2000
		addrs := make([]uint64, 0, n)

		mallocCost := measure(t, n, func() {
			addrs = append(addrs, a.Malloc(t, 64))
		})
		i := 0
		freeCost := measure(t, n, func() {
			a.Free(t, addrs[i])
			i++
		})
		a.Flush(t)
		fmt.Printf("%-28s malloc %7.1f cycles/call   free %7.1f cycles/call\n",
			label, mallocCost, freeCost)
	})
	m.Run()
}

func main() {
	fmt.Println("NextGen-Malloc operation costs as seen by the application core")
	fmt.Println("(64-byte objects, warm caches; compare with the paper's ~268-cycle")
	fmt.Println("4x67-cycle synchronization estimate in §4.1)")
	fmt.Println()

	inline := core.DefaultConfig()
	inline.Offload = false
	run("inline (no offload)", inline)

	plain := core.DefaultConfig()
	run("offload, sync malloc", plain)

	pre := core.DefaultConfig()
	pre.Prealloc = core.PreallocStatic
	run("offload + preallocation", pre)

	syncFree := core.DefaultConfig()
	syncFree.AsyncFree = false
	run("offload, sync free", syncFree)
}
