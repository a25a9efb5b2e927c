package core

import (
	"fmt"
	"testing"

	"nextgenmalloc/internal/sim"
)

// TestMultiClientOffload: several application threads share one server;
// each gets correct blocks, and no two blocks live at the same time
// overlap. Every client holds all its blocks until all clients have
// finished allocating (a freed block may legitimately be handed to
// another client, so addresses are only comparable while live).
func TestMultiClientOffload(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	ready, _ := m.Kernel().Mmap(1)
	var a *Allocator
	const clients, per = 3, 300
	results := make([][]uint64, clients)
	allocated := 0 // host-side barrier: one simulated thread runs at a time
	for i := 0; i < clients; i++ {
		part := i
		m.Spawn(fmt.Sprintf("c%d", part), part, func(th *sim.Thread) {
			if part == 0 {
				a = New(th, DefaultConfig())
				srv.Attach(a)
				th.AtomicStore64(ready, 1)
			} else {
				for th.Load64(ready) == 0 {
					th.Pause(100)
				}
			}
			addrs := make([]uint64, per)
			for k := range addrs {
				addrs[k] = a.Malloc(th, 64)
				th.Store64(addrs[k], uint64(part*10000+k))
			}
			results[part] = addrs
			for allocated++; allocated < clients; {
				th.Pause(100)
			}
			// Every block of every client is live here: any cross-client
			// overlap shows as a clobbered word (and as a duplicate below).
			for k, p := range addrs {
				if got := th.Load64(p); got != uint64(part*10000+k) {
					t.Errorf("client %d block %d corrupted: %#x", part, k, got)
				}
			}
			for _, p := range addrs {
				a.Free(th, p)
			}
			a.Flush(th)
		})
	}
	m.Run()
	seen := map[uint64]int{}
	for c, addrs := range results {
		for _, p := range addrs {
			if prev, dup := seen[p]; dup {
				t.Fatalf("clients %d and %d both held %#x live", prev, c, p)
			}
			seen[p] = c
		}
	}
	if a.Served() == 0 {
		t.Error("server served nothing")
	}
}

// TestTinyRingBackpressure: a 4-slot free ring forces constant
// backpressure; nothing may be lost.
func TestTinyRingBackpressure(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	m.Spawn("app", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.RingSlots = 4
		a := New(th, cfg)
		srv.Attach(a)
		var addrs []uint64
		for i := 0; i < 500; i++ {
			addrs = append(addrs, a.Malloc(th, 32))
		}
		for _, p := range addrs {
			a.Free(th, p)
		}
		a.Flush(th)
		st := a.Stats()
		if st.FreeCalls != 500 {
			t.Errorf("frees = %d", st.FreeCalls)
		}
		// All blocks must be back: reallocate and count reuse.
		reused := map[uint64]bool{}
		for _, p := range addrs {
			reused[p] = true
		}
		hits := 0
		for i := 0; i < 500; i++ {
			if reused[a.Malloc(th, 32)] {
				hits++
			}
		}
		if hits < 400 {
			t.Errorf("only %d/500 reused; frees lost under backpressure?", hits)
		}
	})
	m.Run()
}

// TestLargeObjectsThroughRing: requests above the size classes travel
// the same ring protocol and map whole pages.
func TestLargeObjectsThroughRing(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	m.Spawn("app", 0, func(th *sim.Thread) {
		a := New(th, DefaultConfig())
		srv.Attach(a)
		p := a.Malloc(th, 300<<10)
		th.Store64(p, 1)
		th.Store64(p+(300<<10)-8, 2)
		if th.Load64(p) != 1 || th.Load64(p+(300<<10)-8) != 2 {
			t.Error("large block corrupt")
		}
		a.Free(th, p)
		a.Flush(th)
	})
	m.Run()
}

// TestOversizeMallocFails: a size whose opMalloc word would spill into
// the ring's lap-tag bit fails like an exhausted heap (0) before any
// push, with and without the sealed protocol, and counts as no call.
func TestOversizeMallocFails(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		m := sim.New(sim.ScaledConfig())
		srv := NewServer()
		m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		m.Spawn("app", 0, func(th *sim.Thread) {
			cfg := DefaultConfig()
			cfg.Resilience.Enabled = resilient
			a := New(th, cfg)
			srv.Attach(a)
			for _, size := range []uint64{maxMallocSize + 1, 1 << 47, 1<<56 - 1, ^uint64(0)} {
				if p := a.Malloc(th, size); p != 0 {
					t.Errorf("resilient=%v: Malloc(%#x) = %#x, want 0", resilient, size, p)
				}
			}
			if n := a.Stats().MallocCalls; n != 0 {
				t.Errorf("resilient=%v: %d malloc calls recorded for refused sizes", resilient, n)
			}
			a.Free(th, a.Malloc(th, 64))
			a.Flush(th)
		})
		m.Run()
	}
}

func TestLayoutString(t *testing.T) {
	if Segregated.String() != "segregated" || Aggregated.String() != "aggregated" {
		t.Error("layout strings wrong")
	}
}

// TestNames: every variant reports a distinct, stable name.
func TestNames(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) {
		mk := func(cfg Config) string { return New(th, cfg).Name() }
		inline := DefaultConfig()
		inline.Offload = false
		agg := inline
		agg.Layout = Aggregated
		pre := DefaultConfig()
		pre.Prealloc = 4
		names := []string{
			mk(inline), mk(agg), mk(pre),
		}
		want := []string{"nextgen-inline", "nextgen-inline-agg", "nextgen-prealloc"}
		for i := range names {
			if names[i] != want[i] {
				t.Errorf("name %d = %q, want %q", i, names[i], want[i])
			}
		}
	})
	m.Run()
}

// TestInlineMultiThread: the inline engine's lock keeps concurrent
// mutators safe.
func TestInlineMultiThread(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	ready, _ := m.Kernel().Mmap(1)
	var a *Allocator
	const n = 3
	for i := 0; i < n; i++ {
		part := i
		m.Spawn(fmt.Sprintf("t%d", part), part, func(th *sim.Thread) {
			if part == 0 {
				cfg := DefaultConfig()
				cfg.Offload = false
				a = New(th, cfg)
				th.AtomicStore64(ready, 1)
			} else {
				for th.Load64(ready) == 0 {
					th.Pause(100)
				}
			}
			for k := 0; k < 400; k++ {
				p := a.Malloc(th, uint64(16+(k%8)*16))
				th.Store64(p, uint64(part))
				if th.Load64(p) != uint64(part) {
					t.Errorf("thread %d lost its write", part)
				}
				a.Free(th, p)
			}
		})
	}
	m.Run()
	if got := a.Stats().MallocCalls; got != n*400 {
		t.Errorf("mallocs = %d", got)
	}
}
