package core_test

import (
	"fmt"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/sim"
)

// Example is the quickstart: build a simulated machine, create
// NextGen-Malloc with its dedicated allocator core, allocate and free
// from an application thread, and read the PMU counters — the minimal
// end-to-end tour of the public surface (sim.Machine, core.Allocator,
// alloc.Allocator). Run it with
//
//	go test ./internal/core -run Example -v
func Example() {
	// A 16-core machine with default (paper-like) parameters.
	m := sim.New(sim.DefaultConfig())

	// The allocator core: a daemon pinned to core 15, polling request
	// rings. It gets the allocator handle once the app thread builds it.
	srv := core.NewServer()
	m.SpawnDaemon("allocator-core", 15, srv.Run)

	// The application, pinned to core 0.
	m.Spawn("app", 0, func(t *sim.Thread) {
		a := core.New(t, core.DefaultConfig())
		srv.Attach(a)

		// Allocate a small object, use it, free it (free is
		// asynchronous: it costs the app core only a ring push).
		p := a.Malloc(t, 48)
		t.Store64(p, 0xdead_beef)
		t.Store64(p+8, 42)
		fmt.Printf("allocated 48 bytes at %#x, first word %#x\n", p, t.Load64(p))
		a.Free(t, p)

		// A burst of DOM-node-like allocations.
		var nodes []uint64
		for i := 0; i < 1000; i++ {
			n := a.Malloc(t, uint64(24+8*(i%6)))
			t.Store64(n, uint64(i))
			nodes = append(nodes, n)
		}
		var sum uint64
		for _, n := range nodes {
			sum += t.Load64(n)
		}
		for _, n := range nodes {
			a.Free(t, n)
		}
		a.Flush(t) // drain the asynchronous frees before reading stats

		fmt.Printf("checksum %d, mallocs %d, frees %d\n",
			sum, a.Stats().MallocCalls, a.Stats().FreeCalls)
		c := t.Counters()
		fmt.Printf("app core: %d cycles, %d instructions, %d LLC load misses, %d dTLB load misses\n",
			c.Cycles, c.Instructions, c.LLCLoadMisses, c.DTLBLoadMisses)
	})

	wall := m.Run()
	fmt.Printf("machine ran for %d simulated cycles\n", wall)
	server := m.CoreCounters(15)
	fmt.Printf("allocator core: %d cycles, %d instructions (all metadata work happened here)\n",
		server.Cycles, server.Instructions)
	// Output:
	// allocated 48 bytes at 0x700000200fc0, first word 0xdeadbeef
	// checksum 499500, mallocs 1001, frees 1001
	// app core: 677579 cycles, 44646 instructions, 2 LLC load misses, 1 dTLB load misses
	// machine ran for 677597 simulated cycles
	// allocator core: 677597 cycles, 63058 instructions (all metadata work happened here)
}
