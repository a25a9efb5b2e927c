package core

import (
	"fmt"
	"testing"

	"nextgenmalloc/internal/mem"
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

// TestOneLineTransferPerResponse pins the one-word malloc response: the
// server answers with a single store of tag|addr, so the worker's spin
// pulls the response line across exactly once per sync malloc (two
// stores to one line, with the spin landing between them, cost two).
// The worker's other dirty transfers are the malloc ring's head line,
// once per lap (TestOneLineTransferPerRequest in internal/ring), and
// the server's invalidations are one response store per malloc plus
// one head store per lap.
func TestOneLineTransferPerResponse(t *testing.T) {
	const warm, n = 2 * mallocRingSlots, 8 * mallocRingSlots
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	server := m.SpawnDaemon("server", 1, srv.Run)
	var wk, sv [2]sim.Counters
	m.Spawn("worker", 0, func(th *sim.Thread) {
		a := New(th, DefaultConfig())
		srv.Attach(a)
		for i := 0; i < warm+n; i++ {
			if i == warm {
				wk[0], sv[0] = th.Counters(), server.Counters()
			}
			if a.Malloc(th, 64) == 0 {
				t.Errorf("malloc %d failed", i)
				return
			}
		}
		wk[1], sv[1] = th.Counters(), server.Counters()
	})
	m.Run()
	w, s := wk[1].Sub(wk[0]), sv[1].Sub(sv[0])
	t.Logf("per malloc: worker %.3f transfers %.3f invalidations, server %.3f transfers %.3f invalidations",
		float64(w.DirtyTransfers)/n, float64(w.Invalidations)/n, float64(s.DirtyTransfers)/n, float64(s.Invalidations)/n)
	laps := uint64(n / mallocRingSlots)
	if got := w.DirtyTransfers - laps; got != n {
		t.Errorf("response line cost the worker %d dirty transfers over %d mallocs, want one each", got, n)
	}
	if got := s.Invalidations - laps; got != n {
		t.Errorf("server issued %d response invalidations over %d mallocs, want one each", got, n)
	}
}

// TestResponseTagWrap drives the three response waits across the wrap
// of the 17-bit tag (seq 2^17 carries tag 0, the tag of the zeroed word
// a fresh page starts with): a plain sync malloc, a nextgen-sync free
// barrier, and a resilient malloc with abandoned requests queued. Every
// answer must resolve to its own request — each malloc's block is of
// the class it asked for, each barrier returns only after its free —
// and a late answer is reclaimed only for the request it belongs to.
func TestResponseTagWrap(t *testing.T) {
	const start = respTagSpan - 3
	sizes := []uint64{16, 64, 256, 1024, 32, 128} // one class each
	run := func(name string, tune func(*Config), body func(*testing.T, *sim.Thread, *Allocator, *client)) {
		t.Run(name, func(t *testing.T) {
			m := sim.New(sim.ScaledConfig())
			srv := NewServer()
			m.SpawnDaemon("server", 1, srv.Run)
			m.Spawn("worker", 0, func(th *sim.Thread) {
				cfg := DefaultConfig()
				tune(&cfg)
				a := New(th, cfg)
				srv.Attach(a)
				c := a.clientOf(th)
				c.seq = start
				body(t, th, a, c)
				if c.seq <= respTagSpan {
					t.Errorf("seq ended at %#x: the run never crossed the wrap", c.seq)
				}
			})
			m.Run()
		})
	}
	// mallocOK reports whether p is a live engine block of size's class.
	mallocOK := func(t *testing.T, th *sim.Thread, a *Allocator, size, p uint64) bool {
		t.Helper()
		want, _ := a.sc.ClassFor(size)
		if p == 0 {
			t.Errorf("Malloc(%d) = 0", size)
			return false
		}
		if got := th.Load64(a.pagemapGet(th, p) + slClass); got != uint64(want) {
			t.Errorf("Malloc(%d) = %#x, a block of class %d, want class %d", size, p, got, want)
			return false
		}
		return true
	}

	run("sync-malloc", func(*Config) {}, func(t *testing.T, th *sim.Thread, a *Allocator, c *client) {
		for _, size := range sizes {
			if !mallocOK(t, th, a, size, a.Malloc(th, size)) {
				return
			}
		}
	})
	run("sync-free-barrier", func(cfg *Config) { cfg.AsyncFree = false }, func(t *testing.T, th *sim.Thread, a *Allocator, c *client) {
		for _, size := range sizes {
			p := a.Malloc(th, size)
			if !mallocOK(t, th, a, size, p) {
				return
			}
			live := a.Stats().LiveBytes
			class, _ := a.sc.ClassFor(size)
			a.Free(th, p) // the free takes no sequence number, its barrier one
			if got := a.Stats().LiveBytes; got != live-a.sc.Size(class) {
				t.Errorf("seq %#x: barrier returned before its free was served (live %d -> %d)", c.seq, live, got)
			}
		}
	})
	run("resilient-abandoned", func(cfg *Config) { cfg.Resilience = DefaultResilience() }, func(t *testing.T, th *sim.Thread, a *Allocator, c *client) {
		rs := c.res
		// late is on the ring and its answer arrives while the next
		// malloc waits; lost never reached the ring, so no answer may
		// ever be taken for it.
		c.seq++
		late := c.seq
		if !c.mreq.TryPush(th, sealWord(opMalloc|512<<8, late, late), late) {
			t.Error("push into empty ring failed")
			return
		}
		for !answers(th.AtomicLoad64(c.page+respWord), late) {
			th.Pause(16)
		}
		c.seq++
		lost := c.seq
		rs.abandoned = append(rs.abandoned, abandonedReq{late, 512}, abandonedReq{lost, 2048})
		for i, size := range sizes {
			if !mallocOK(t, th, a, size, a.Malloc(th, size)) {
				return
			}
			if i == 0 && (len(rs.deferred) != 1 || !mallocOK(t, th, a, 512, rs.deferred[0])) {
				t.Errorf("late answer not reclaimed as the 512-byte block: deferred = %#x", rs.deferred)
				return
			}
		}
		if rs.stats.ReclaimedBlocks != 1 || len(rs.abandoned) != 1 || rs.abandoned[0].seq != lost {
			t.Errorf("reclaimed %d, still abandoned %+v; want 1 and only seq %#x", rs.stats.ReclaimedBlocks, rs.abandoned, lost)
		}
		// Run seq 2^17 past lost: the malloc numbered lost+2^17 carries
		// lost's tag, and the flush's first spin round still sees its
		// answer. lost must be dropped as leaked, not matched, or the
		// block the caller holds would be freed under it.
		c.seq = lost + respTagSpan - 1
		p := a.Malloc(th, 4096)
		if !mallocOK(t, th, a, 4096, p) {
			return
		}
		a.Flush(th)
		if rs.stats.ReclaimedBlocks != 1 || len(rs.abandoned) != 0 {
			t.Errorf("after the wrap: reclaimed %d, still abandoned %+v; want 1 and none", rs.stats.ReclaimedBlocks, rs.abandoned)
		}
		if q := a.Malloc(th, 4096); q == p {
			t.Errorf("live block %#x was reclaimed and handed out again", p)
		}
		if len(rs.em.blocks) != 0 {
			t.Errorf("%d mallocs fell back to the emergency allocator", len(rs.em.blocks))
		}
	})
}

// TestResponseWordNeverStale puts 2^17-1 asynchronous frees between
// two answers. Only requests that get an answer take a sequence number,
// so the answer after the frees is numbered one past the one before
// and cannot mistake the old word for its own. (Were the frees
// numbered, the next request would carry the old answer's tag: a
// flush would return before its frees were served, and a malloc would
// return the previous malloc's block.)
func TestResponseWordNeverStale(t *testing.T) {
	if testing.Short() {
		t.Skip("2^17 frees")
	}
	const n = respTagSpan - 1
	for _, next := range []string{"flush", "malloc"} {
		t.Run(next, func(t *testing.T) {
			m := sim.New(sim.ScaledConfig())
			srv := NewServer()
			m.SpawnDaemon("server", 1, srv.Run)
			m.Spawn("worker", 0, func(th *sim.Thread) {
				cfg := DefaultConfig()
				cfg.Prealloc = 8 // most of the n mallocs are stash hits
				a := New(th, cfg)
				srv.Attach(a)
				blocks := make([]uint64, n)
				for i := range blocks {
					blocks[i] = a.Malloc(th, 64)
				}
				c := a.clientOf(th)
				prev := a.Malloc(th, 4096) // a round trip: the class's stash is empty
				seq, live := c.seq, a.Stats().LiveBytes
				for _, p := range blocks {
					a.Free(th, p)
				}
				if c.seq != seq {
					t.Errorf("%d frees took %d sequence numbers, want none", n, c.seq-seq)
				}
				class, _ := a.sc.ClassFor(64)
				switch next {
				case "flush":
					a.Flush(th)
					if got, want := a.Stats().LiveBytes, live-n*a.sc.Size(class); got != want {
						t.Errorf("flush returned with %d live bytes, want %d: its frees were not all served", got, want)
					}
				case "malloc":
					want, _ := a.sc.ClassFor(8192)
					if p := a.Malloc(th, 8192); p == prev || p == 0 || th.Load64(a.pagemapGet(th, p)+slClass) != uint64(want) {
						t.Errorf("Malloc(8192) = %#x, want a fresh block of its class (the previous answer was %#x)", p, prev)
					}
				}
			})
			m.Run()
		})
	}
}

// TestResponseTagClearsEveryAddress pins the tag shift to the address
// space. A response carries an engine block, and every engine block lies
// in the mmap region below the pagemap's reach (a block past it would
// have no pagemap slot); that ceiling and every lower region must sit
// below the tag bits, or an address would bleed into its tag.
func TestResponseTagClearsEveryAddress(t *testing.T) {
	reach := uint64(mem.MmapBase) + pagemapRootSlots<<9<<mem.PageShift
	for _, r := range []struct {
		name string
		top  uint64 // one past the highest address
	}{
		{"brk", mem.MetaBase},
		{"meta", mem.MmapBase},
		{"mmap (pagemap reach)", reach},
	} {
		if r.top > 1<<respTagShift {
			t.Errorf("%s region reaches %#x, past the tag bits at %#x", r.name, r.top, uint64(1)<<respTagShift)
		}
	}
	// The largest request the server honours lands below the ceiling too.
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", 1, srv.Run)
	m.Spawn("worker", 0, func(th *sim.Thread) {
		a := New(th, DefaultConfig())
		srv.Attach(a)
		size := DefaultResilience().MaxRequestBytes
		if p := a.Malloc(th, size); p < mem.MmapBase || p+size > reach {
			t.Errorf("Malloc(%d) = %#x, outside [%#x, %#x)", size, p, uint64(mem.MmapBase), reach)
		}
	})
	m.Run()
}
