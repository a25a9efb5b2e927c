package core

import (
	"testing"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/alloctest"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
)

// factory builds a NextGen variant for the conformance suite.
func factory(cfg Config, srvSlot **Server) alloctest.Factory {
	return func(th *sim.Thread, m *sim.Machine) alloc.Allocator {
		a := New(th, cfg)
		if cfg.Offload && srvSlot != nil && *srvSlot != nil {
			(*srvSlot).Attach(a)
		}
		return a
	}
}

func TestConformanceOffload(t *testing.T) {
	var srv *Server
	alloctest.Run(t, alloctest.Options{
		Factory: factory(DefaultConfig(), &srv),
		Daemon: func(m *sim.Machine) {
			srv = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		},
	})
}

func TestConformancePrealloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prealloc = 12
	var srv *Server
	alloctest.Run(t, alloctest.Options{
		Factory: factory(cfg, &srv),
		Daemon: func(m *sim.Machine) {
			srv = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		},
	})
}

// lineRing shrinks cfg's free rings to one slot line, so every full
// staged line fills the ring: the Stage path that publishes its backlog
// and spins for space (under resilience, the TryStage failure that
// defers the free) runs all the time instead of never.
func lineRing(cfg Config) Config {
	cfg.RingSlots = maxBatch
	return cfg
}

func TestConformanceBatch(t *testing.T) {
	var srv *Server
	alloctestRun(t, lineRing(DefaultConfig()), &srv)
}

func TestConformanceAdaptivePrealloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptivePrealloc = true
	var srv *Server
	alloctest.Run(t, alloctest.Options{
		Factory: factory(cfg, &srv),
		Daemon: func(m *sim.Machine) {
			srv = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		},
	})
}

func TestConformanceInline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = false
	alloctest.Run(t, alloctest.Options{Factory: factory(cfg, nil)})
}

func TestConformanceInlineAggregated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offload = false
	cfg.Layout = Aggregated
	alloctest.Run(t, alloctest.Options{Factory: factory(cfg, nil)})
}

func TestConformanceSyncFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AsyncFree = false
	var srv *Server
	alloctest.Run(t, alloctest.Options{
		Factory: factory(cfg, &srv),
		Daemon: func(m *sim.Machine) {
			srv = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		},
	})
}

// TestMetadataRegionIsolated: with the segregated layout, no allocator
// metadata lives in user-visible pages — every metadata mmap lands in
// the dedicated MetaBase range. A metadata page mapped among user pages
// would be classified region.Meta there, so every page the allocator
// mapped below its first block (the page map's root and leaf among
// them) must classify otherwise.
func TestMetadataRegionIsolated(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Offload = false
		a := New(th, cfg)
		p := a.Malloc(th, 64)
		if p < mem.MmapBase {
			t.Errorf("user block %#x not in the user mmap region", p)
		}
		for pg := uint64(mem.MmapBase); pg < p; pg += mem.PageSize {
			if m.Regions().Classify(pg) == region.Meta {
				t.Fatalf("metadata page %#x among user pages (below block %#x)", pg, p)
			}
		}
		if rec := a.pages.Get(th, p); rec < mem.MetaBase || rec >= mem.MmapBase {
			t.Errorf("slab record %#x outside the metadata region", rec)
		}
		// Segregated: the allocator must not have written the block.
		q := a.Malloc(th, 64)
		a.Free(th, q)
		if w := th.Load64(q); w != 0 {
			t.Errorf("segregated layout wrote %#x into a freed block", w)
		}
		a.Free(th, p)
	})
	m.Run()
}

// TestAggregatedWritesBlocks: the aggregated layout, by contrast,
// threads its free list through the blocks.
func TestAggregatedWritesBlocks(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Offload = false
		cfg.Layout = Aggregated
		a := New(th, cfg)
		p := a.Malloc(th, 64)
		q := a.Malloc(th, 64)
		th.Store64(p, 0xfeed)
		a.Free(th, p)
		a.Free(th, q)
		// q's first word now holds the intrusive link to p.
		if w := th.Load64(q); w != p {
			t.Errorf("aggregated free list link = %#x, want %#x", w, p)
		}
	})
	m.Run()
}

// TestAsyncFreeCompletesByFlush: frees queue without blocking and are
// all applied once Flush returns.
func TestAsyncFreeCompletesByFlush(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	m.Spawn("t", 0, func(th *sim.Thread) {
		a := New(th, DefaultConfig())
		srv.Attach(a)
		addrs := make([]uint64, 500)
		for i := range addrs {
			addrs[i] = a.Malloc(th, 48)
		}
		for _, p := range addrs {
			a.Free(th, p)
		}
		a.Flush(th)
		// After the flush barrier every free was applied: allocating the
		// same count of the same class must reuse the same blocks.
		reused := map[uint64]bool{}
		for _, p := range addrs {
			reused[p] = true
		}
		hits := 0
		for range addrs {
			if reused[a.Malloc(th, 48)] {
				hits++
			}
		}
		if hits < 400 {
			t.Errorf("only %d/500 blocks reused after Flush; frees not drained", hits)
		}
	})
	m.Run()
}

// TestServerServesAllOps: every ring operation is accounted.
func TestServerServesAllOps(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	var a *Allocator
	m.Spawn("t", 0, func(th *sim.Thread) {
		a = New(th, DefaultConfig())
		srv.Attach(a)
		for i := 0; i < 100; i++ {
			p := a.Malloc(th, 64)
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	// 100 mallocs + 100 frees + 1 sync.
	if got := a.Served(); got != 201 {
		t.Errorf("server served %d ops, want 201", got)
	}
}

// TestNoAtomicsInEngine: the offloaded engine path performs no atomic
// RMW operations (paper §3.1.3 "Strategy 2").
func TestNoAtomicsInEngine(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	serverCore := m.Cores() - 1
	srv := NewServer()
	m.SpawnDaemon("server", serverCore, srv.Run)
	m.Spawn("t", 0, func(th *sim.Thread) {
		a := New(th, DefaultConfig())
		srv.Attach(a)
		for i := 0; i < 200; i++ {
			p := a.Malloc(th, uint64(16+(i%20)*16))
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	if got := m.CoreCounters(serverCore).AtomicOps; got != 0 {
		t.Errorf("server core executed %d atomic RMWs; the engine should need none", got)
	}
}

// TestBatchCoalescesFrees: asynchronous frees leave the client a slot
// line at a time — one publication per maxBatch frees while the ring has
// room — and every free is still applied by the flush barrier. (A full
// ring publishes its partial line before the producer spins, so a
// saturated ring coalesces less; the ring here never fills.)
func TestBatchCoalescesFrees(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	var a *Allocator
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.RingSlots = 256
		a = New(th, cfg)
		srv.Attach(a)
		addrs := make([]uint64, 200)
		for i := range addrs {
			addrs[i] = a.Malloc(th, 48)
		}
		for _, p := range addrs {
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	if got := a.Served(); got != 401 {
		t.Errorf("server served %d ops, want 401 (every staged free must drain)", got)
	}
	_, free := a.RingTelemetry()
	// 200 frees + 1 sync: a full line per 4 frees plus the barrier's own
	// publication.
	if want := uint64(200/maxBatch + 1); free.Pushes != 201 || free.PushBatches != want {
		t.Errorf("free ring: %d pushes in %d publications, want 201 in %d", free.Pushes, free.PushBatches, want)
	}
	if st := free.FullRetries + free.StallCycles; st != 0 {
		t.Errorf("the ring filled (%d full retries, %d stall cycles); the publication count above assumed it had room", free.FullRetries, free.StallCycles)
	}
}

// TestFreesInvalidateOncePerLine counts what staging is for, in the
// style of ring's TestOneLineTransferPerRequest: with the server polling
// the free ring, delivering n back-to-back frees (flush barrier
// included) costs the client at most ⌈n/maxBatch⌉+1 invalidations — one
// per slot line the server had to give back, not one per free.
func TestFreesInvalidateOncePerLine(t *testing.T) {
	const n = 46 // fits the ring; ends on a partial line the barrier completes
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	var before, after sim.Counters
	m.Spawn("t", 0, func(th *sim.Thread) {
		a := New(th, DefaultConfig())
		srv.Attach(a)
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = a.Malloc(th, 64)
		}
		before = th.Counters()
		for _, p := range blocks {
			th.Pause(300) // application work: the server is back to polling the next slot line
			a.Free(th, p)
		}
		a.Flush(th)
		after = th.Counters()
	})
	m.Run()
	lines := uint64((n + maxBatch - 1) / maxBatch)
	got := after.Invalidations - before.Invalidations
	if got > lines+1 {
		t.Errorf("%d frees cost the client %d invalidations, want at most %d (one per slot line, plus one)", n, got, lines+1)
	}
	if got < lines {
		t.Errorf("%d frees cost the client only %d invalidations over %d lines: the server was not polling them, so the bound above was not exercised", n, got, lines)
	}
}

// TestAdaptiveStashServesHotClass: the adaptive policy stocks a hot
// class's stash from noteHot feedback alone (no static depth), so
// repeated same-class mallocs mostly bypass the ring.
func TestAdaptiveStashServesHotClass(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	var a *Allocator
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.AdaptivePrealloc = true
		a = New(th, cfg)
		srv.Attach(a)
		var addrs []uint64
		for i := 0; i < 300; i++ {
			addrs = append(addrs, a.Malloc(th, 64))
		}
		for _, p := range addrs {
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	ringMallocs := a.Served() - 300 - 1
	if ringMallocs > 100 {
		t.Errorf("%d of 300 mallocs went through the ring; adaptive stash ineffective", ringMallocs)
	}
}

// TestAdaptiveStashDepthFollowsHeat: depth tracks the class's recency
// rank and is zero for classes that fell out of the list.
func TestAdaptiveStashDepthFollowsHeat(t *testing.T) {
	a := &Allocator{cfg: Config{AdaptivePrealloc: true}}
	c := &client{}
	if d := a.stashDepth(c, 3); d != 0 {
		t.Errorf("cold class depth = %d, want 0", d)
	}
	for class := 0; class < 10; class++ {
		c.noteHot(class)
	}
	// Classes 9,8,... are ranks 0,1,...; classes 0 and 1 fell out.
	want := []uint64{13, 13, 6, 6, 3, 3, 1, 1}
	for rank, w := range want {
		if d := a.stashDepth(c, 9-rank); d != w {
			t.Errorf("rank-%d class depth = %d, want %d", rank, d, w)
		}
	}
	if d := a.stashDepth(c, 0); d != 0 {
		t.Errorf("evicted class depth = %d, want 0", d)
	}
	if d := a.stashDepth(c, 9); d > stashWindow-1 {
		t.Errorf("depth %d exceeds the stash window slack bound %d", d, stashWindow-1)
	}
}

// TestVariantNames pins the Name strings the harness and reports key on.
func TestVariantNames(t *testing.T) {
	cases := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) {}, "nextgen"},
		{func(c *Config) { c.Prealloc = 12 }, "nextgen-prealloc"},
		{func(c *Config) { c.AdaptivePrealloc = true }, "nextgen-adaptive"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if got := (&Allocator{cfg: cfg}).Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}

	// Round trip through the kind table: every base and alias names
	// itself, a keyed config spells its canonical spec, and either way
	// ParseKind(Name()) is the config again.
	specs := []string{
		"nextgen:layout=compact,prealloc=static",
		"nextgen-inline:free=sync,slots=256",
		"nextgen-prealloc:prealloc=adaptive", // the static depth under the adaptive policy
		"nextgen:sched=round-robin,partition=class",
		"nextgen-inline:sched=batch-drain",
	}
	for _, k := range kindTable {
		specs = append(specs, k.name)
	}
	for _, spec := range specs {
		cfg, err := ParseKind(spec)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", spec, err)
		}
		name := (&Allocator{cfg: cfg}).Name()
		if name != spec {
			t.Errorf("Name() of %q = %q", spec, name)
		}
		if back, err := ParseKind(name); err != nil || back != cfg {
			t.Errorf("ParseKind(%q) = %+v, %v; want %+v", name, back, err, cfg)
		}
	}
}

// FuzzParseKind: any input is an error or a config with a defined
// layout and a power-of-two ring that Name spells back into itself.
func FuzzParseKind(f *testing.F) {
	for _, k := range kindTable {
		f.Add(k.name)
	}
	for _, s := range []string{
		"nextgen:layout=compact,prealloc=static", "nextgen-inline:free=sync,slots=4096",
		"nextgen-prealloc:prealloc=adaptive,layout=aggregated", "nextgen-sync:free=async",
		"nextgen:slots=3", "nextgen:prealloc=static,prealloc=off", "mimalloc:layout=compact", "nextgen:",
		"nextgen:sched=round-robin,partition=class", "nextgen-inline:sched=batch-drain",
		"nextgen-adaptive:partition=class,sched=fixed-scan", "nextgen:sched=fifo", "nextgen:partition=thread",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseKind(spec)
		if err != nil {
			return
		}
		if !cfg.Layout.Valid() || cfg.RingSlots <= 0 || cfg.RingSlots&(cfg.RingSlots-1) != 0 {
			t.Fatalf("ParseKind(%q) = %+v: invalid layout or ring depth", spec, cfg)
		}
		name := (&Allocator{cfg: cfg}).Name()
		if back, err := ParseKind(name); err != nil || back != cfg {
			t.Fatalf("ParseKind(%q) = %+v, but its Name %q parses to %+v, %v", spec, cfg, name, back, err)
		}
	})
}

// TestStashHitAvoidsRoundTrip: with preallocation, repeated same-class
// mallocs mostly bypass the ring.
func TestStashHitAvoidsRoundTrip(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	var a *Allocator
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Prealloc = 12
		a = New(th, cfg)
		srv.Attach(a)
		var addrs []uint64
		for i := 0; i < 300; i++ {
			addrs = append(addrs, a.Malloc(th, 64))
		}
		for _, p := range addrs {
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	// 300 mallocs: after warmup the stash absorbs most; the ring sees
	// frees (300) + sync (1) + only the stash-miss mallocs.
	ringMallocs := a.Served() - 300 - 1
	if ringMallocs > 100 {
		t.Errorf("%d of 300 mallocs went through the ring; stash ineffective", ringMallocs)
	}
}
