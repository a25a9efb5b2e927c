package core

import (
	"testing"

	"nextgenmalloc/internal/alloctest"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
)

// --- seal unit tests --------------------------------------------------------

func TestSealRoundTrip(t *testing.T) {
	for seq := uint64(0); seq < 40; seq++ {
		w0 := opMalloc | uint64(64+seq*8)<<8
		w1 := seq
		sealed := sealWord(w0, w1, seq)
		if !checkSeal(sealed, w1) {
			t.Fatalf("seq %d: freshly sealed word fails its own check", seq)
		}
		if got := unseal(sealed); got != w0 {
			t.Fatalf("seq %d: unseal = %#x, want %#x", seq, got, w0)
		}
		if sealed>>tagShift&0xf != seq&0xf {
			t.Fatalf("seq %d: tag nibble = %d", seq, sealed>>tagShift&0xf)
		}
	}
}

// TestSealDetectsSingleBitFlips is the corruption model's contract:
// the injector flips exactly one bit of the 128-bit pair, and the
// parity nibble must catch every such flip.
func TestSealDetectsSingleBitFlips(t *testing.T) {
	pairs := [][2]uint64{
		{sealWord(opMalloc|64<<8, 7, 7), 7},
		{sealWord(opFree, 0x7000_0000_1000, 9), 0x7000_0000_1000},
		{sealWord(opSync, 12, 12), 12},
		{sealWord(opPreheat|3<<8, 0, 13), 0},
	}
	for pi, p := range pairs {
		for bit := 0; bit < 128; bit++ {
			w0, w1 := p[0], p[1]
			if bit < 64 {
				w0 ^= 1 << bit
			} else {
				w1 ^= 1 << (bit - 64)
			}
			if checkSeal(w0, w1) {
				t.Fatalf("pair %d: flip of bit %d went undetected", pi, bit)
			}
		}
	}
}

// --- conformance under the resilient protocol -------------------------------

func resilientFactory(cfg Config, srvSlot **Server) alloctest.Factory {
	cfg.Resilience = DefaultResilience()
	return factory(cfg, srvSlot)
}

func TestConformanceResilience(t *testing.T) {
	var srv *Server
	alloctest.Run(t, alloctest.Options{
		Factory: resilientFactory(DefaultConfig(), &srv),
		Daemon: func(m *sim.Machine) {
			srv = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		},
	})
}

func TestConformanceResilienceSyncFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AsyncFree = false
	var srv *Server
	alloctest.Run(t, alloctest.Options{
		Factory: resilientFactory(cfg, &srv),
		Daemon: func(m *sim.Machine) {
			srv = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		},
	})
}

func TestConformanceResilienceBatch(t *testing.T) {
	cfg := lineRing(DefaultConfig())
	cfg.Resilience = DefaultResilience()
	var srv *Server
	alloctestRun(t, cfg, &srv)
}

// TestResilientCleanRun: with the policy armed but no faults injected,
// a healthy server means the degradation machinery never trips.
func TestResilientCleanRun(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	var a *Allocator
	m.Spawn("worker", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Resilience = DefaultResilience()
		a = New(th, cfg)
		srv.Attach(a)
		var live []uint64
		for i := 0; i < 200; i++ {
			p := a.Malloc(th, 64)
			if p == 0 {
				t.Error("malloc returned 0")
			}
			th.Store64(p, uint64(i))
			live = append(live, p)
			if len(live) > 8 {
				a.Free(th, live[0])
				live = live[1:]
			}
		}
		for _, p := range live {
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	rs := a.ResilienceTelemetry()
	// Stray timeouts are tolerated (a first-touch slab carve is slow);
	// what a clean run must never do is abandon a request or degrade.
	if rs.FallbackEntries != 0 || rs.EmergencyMallocs != 0 || rs.AbandonedRequests != 0 {
		t.Errorf("clean run tripped the fallback: %+v", rs)
	}
	if rs.MallocNacks != 0 || rs.FreeNacks != 0 {
		t.Errorf("clean run was NACKed: %+v", rs)
	}
	if a.Served() == 0 {
		t.Error("server served nothing")
	}
}

// --- degraded mode ----------------------------------------------------------

// TestNoServerFallback: with no server at all, every malloc times out
// and the client must still make progress through the emergency
// allocator — the tentpole's core promise.
func TestNoServerFallback(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var a *Allocator
	var rs ResilienceStats
	m.Spawn("worker", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Resilience = Resilience{
			Enabled:       true,
			TimeoutCycles: 500,
			MaxRetries:    1,
			BackoffCycles: 64,
			FallbackAfter: 1,
			ProbeCycles:   1 << 40, // never probe mid-run
		}
		a = New(th, cfg)
		// No server attached: the rings are write-only.
		const n = 50
		var blocks [n]uint64
		for i := 0; i < n; i++ {
			p := a.Malloc(th, 96)
			if p == 0 {
				t.Errorf("malloc %d returned 0 while degraded", i)
			}
			th.Store64(p, uint64(0xfeed_0000)+uint64(i))
			blocks[i] = p
		}
		seen := map[uint64]bool{}
		for i, p := range blocks {
			if got := th.Load64(p); got != uint64(0xfeed_0000)+uint64(i) {
				t.Errorf("block %d corrupted: %#x", i, got)
			}
			if seen[p] {
				t.Errorf("block %d address %#x double-allocated", i, p)
			}
			seen[p] = true
			a.Free(th, p)
		}
		// A large (off-class) emergency allocation travels the mmap path.
		big := a.Malloc(th, 128<<10)
		if big == 0 {
			t.Error("large degraded malloc returned 0")
		}
		th.Store64(big+100<<10, 1)
		a.Free(th, big)
		a.Flush(th)
		rs = a.ResilienceTelemetry()
	})
	m.Run()
	if rs.FallbackEntries != 1 {
		t.Errorf("FallbackEntries = %d, want 1", rs.FallbackEntries)
	}
	if rs.FallbackExits != 0 {
		t.Errorf("FallbackExits = %d, want 0 (server never answered)", rs.FallbackExits)
	}
	if rs.EmergencyMallocs != 51 {
		t.Errorf("EmergencyMallocs = %d, want 51", rs.EmergencyMallocs)
	}
	if rs.EmergencyFrees != 51 {
		t.Errorf("EmergencyFrees = %d, want 51", rs.EmergencyFrees)
	}
	if rs.Timeouts == 0 || rs.AbandonedRequests == 0 {
		t.Errorf("no timeouts/abandonments recorded: %+v", rs)
	}
	if rs.DegradedCycles == 0 {
		t.Errorf("DegradedCycles = 0 with a dead server")
	}
	if lb := a.Stats().LiveBytes; lb != 0 {
		t.Errorf("LiveBytes = %d after freeing everything, want 0", lb)
	}
}

// TestStallFallbackAndRecovery drives the full arc: healthy service,
// a long injected server stall (fallback), recovery (rejoin), and a
// clean drain — with the request-accounting invariant at the end.
func TestStallFallbackAndRecovery(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	inj := fault.NewInjector(fault.Plan{Seed: 11, StallCycles: 200000, StallStart: 50000})
	inj.Attach(m)
	var a *Allocator
	m.Spawn("worker", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Faults = inj
		cfg.Resilience = Resilience{
			Enabled:       true,
			TimeoutCycles: 2000,
			MaxRetries:    1,
			BackoffCycles: 256,
			FallbackAfter: 1,
			ProbeCycles:   20000,
		}
		a = New(th, cfg)
		srv.Attach(a)
		var live []uint64
		for th.Clock() < 400000 {
			p := a.Malloc(th, 64)
			if p == 0 {
				t.Error("malloc returned 0 across the stall")
			}
			th.Store64(p, p^0xabcd)
			live = append(live, p)
			if len(live) > 16 {
				q := live[0]
				live = live[1:]
				if got := th.Load64(q); got != q^0xabcd {
					t.Errorf("block %#x corrupted: %#x", q, got)
				}
				a.Free(th, q)
			}
			th.Pause(500)
		}
		for _, p := range live {
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	rs := a.ResilienceTelemetry()
	if rs.FallbackEntries == 0 || rs.EmergencyMallocs == 0 {
		t.Errorf("stall did not trigger the fallback: %+v", rs)
	}
	if rs.FallbackExits == 0 {
		t.Errorf("client never rejoined after the stall ended: %+v", rs)
	}
	if rs.DegradedCycles == 0 {
		t.Errorf("DegradedCycles = 0 across a 200k-cycle stall")
	}
	if st := inj.Stats(); st.Stalls == 0 || st.StallCycles == 0 {
		t.Errorf("injector recorded no stall: %+v", st)
	}
	// Liveness: the shutdown drain leaves nothing in the rings, and
	// every popped request was either served or NACKed.
	mr, fr := a.RingTelemetry()
	if mr.Pushes != mr.Pops || fr.Pushes != fr.Pops {
		t.Errorf("requests lost in the rings: malloc %d/%d free %d/%d",
			mr.Pops, mr.Pushes, fr.Pops, fr.Pushes)
	}
	if got, want := a.Served()+rs.MallocNacks+rs.FreeNacks, mr.Pops+fr.Pops; got != want {
		t.Errorf("served+nacked = %d, pops = %d", got, want)
	}
	if rs.ReclaimedBlocks > rs.AbandonedRequests {
		t.Errorf("reclaimed %d > abandoned %d", rs.ReclaimedBlocks, rs.AbandonedRequests)
	}
}

// --- server-side validation -------------------------------------------------

// TestServerValidationNacks feeds the server hand-crafted ring words —
// corrupt, malformed, and hostile — on a single thread (Poll driven
// directly) and checks each is NACKed, not served, not panicked on,
// under every metadata layout.
func TestServerValidationNacks(t *testing.T) {
	for _, l := range []Layout{Segregated, Aggregated, Compact} {
		t.Run(l.String(), func(t *testing.T) { serverValidationNacks(t, l) })
	}
}

func serverValidationNacks(t *testing.T, l Layout) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("worker", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Resilience = DefaultResilience()
		cfg.Layout = l
		a := New(th, cfg)
		srv := NewServer()
		srv.Attach(a)
		c := a.clientOf(th)
		drain := func() {
			for srv.Poll(th) {
			}
		}
		nacks := func() (nm, nf uint64) {
			return th.AtomicLoad64(c.page + respNackM), th.AtomicLoad64(c.page + respNackF)
		}

		// A well-formed malloc is served.
		c.mreq.TryPush(th, sealWord(opMalloc|64<<8, 5, 5), 5)
		drain()
		resp := th.AtomicLoad64(c.page + respWord)
		if !answers(resp, 5) {
			t.Errorf("valid malloc not answered: response word = %#x", resp)
		}
		addr := resp &^ respTagMask
		if addr == 0 {
			t.Error("valid malloc returned 0")
		}

		// One flipped payload bit: the seal catches it.
		c.mreq.TryPush(th, sealWord(opMalloc|64<<8, 6, 6)^(1<<13), 6)
		// A sealed op code the protocol doesn't know.
		c.mreq.TryPush(th, sealWord(0x7f, 7, 7), 7)
		// A sealed malloc for an absurd (corrupt-size) request.
		huge := cfg.Resilience.MaxRequestBytes + 1
		c.mreq.TryPush(th, sealWord(opMalloc|huge<<8, 8, 8), 8)
		drain()
		if nm, _ := nacks(); nm != 3 {
			t.Errorf("malloc-ring nacks = %d, want 3", nm)
		}

		// Free-ring garbage: unmapped address, interior pointer,
		// double free, out-of-range preheat class.
		c.freq.TryPush(th, sealWord(opFree, 0x1234, 9), 0x1234)
		c.freq.TryPush(th, sealWord(opFree, addr+8, 10), addr+8)
		drain()
		c.freq.TryPush(th, sealWord(opFree, addr, 11), addr) // legitimate
		drain()
		c.freq.TryPush(th, sealWord(opFree, addr, 12), addr) // double free
		c.freq.TryPush(th, sealWord(opPreheat|200<<8, 0, 13), 0)
		drain()
		if _, nf := nacks(); nf != 4 {
			t.Errorf("free-ring nacks = %d, want 4", nf)
		}

		// Accounting: every push was popped; every pop was served or NACKed.
		mr, fr := c.mreq.Stats(), c.freq.Stats()
		if mr.Pushes != mr.Pops || fr.Pushes != fr.Pops {
			t.Errorf("requests lost: malloc %d/%d free %d/%d",
				mr.Pops, mr.Pushes, fr.Pops, fr.Pushes)
		}
		rs := a.ResilienceTelemetry()
		if got, want := a.Served()+rs.MallocNacks+rs.FreeNacks, mr.Pops+fr.Pops; got != want {
			t.Errorf("served+nacked = %d, pops = %d", got, want)
		}
		if a.Served() != 2 {
			t.Errorf("Served = %d, want 2 (one malloc, one free)", a.Served())
		}
	})
	m.Run()
}

// TestCorruptionNacksEndToEnd wires the injector's bit-flipper between
// the rings and the server and checks the run survives: corrupt words
// become NACKs and retries, never panics or lost blocks.
func TestCorruptionNacksEndToEnd(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	inj := fault.NewInjector(fault.Plan{Seed: 3, CorruptEveryN: 8})
	inj.Attach(m)
	var a *Allocator
	m.Spawn("worker", 0, func(th *sim.Thread) {
		cfg := DefaultConfig()
		cfg.Faults = inj
		cfg.Resilience = DefaultResilience()
		a = New(th, cfg)
		srv.Attach(a)
		// Warm the class first: the initial slab carve dominates the
		// first round trip and would mask the corruption behaviour.
		warm := a.Malloc(th, 128)
		a.Free(th, warm)
		var live []uint64
		for i := 0; i < 300; i++ {
			p := a.Malloc(th, 128)
			if p == 0 {
				t.Error("malloc returned 0 under corruption")
			}
			live = append(live, p)
			if len(live) > 8 {
				a.Free(th, live[0])
				live = live[1:]
			}
		}
		for _, p := range live {
			a.Free(th, p)
		}
		a.Flush(th)
	})
	m.Run()
	rs := a.ResilienceTelemetry()
	if rs.MallocNacks+rs.FreeNacks == 0 {
		t.Errorf("1-in-8 corruption produced no NACKs: %+v", rs)
	}
	if st := inj.Stats(); st.CorruptWords == 0 {
		t.Errorf("injector corrupted nothing: %+v", st)
	}
	mr, fr := a.RingTelemetry()
	if got, want := a.Served()+rs.MallocNacks+rs.FreeNacks, mr.Pops+fr.Pops; got != want {
		t.Errorf("served+nacked = %d, pops = %d", got, want)
	}
}

// TestNackRepushPolicy pins what a bounded wait does when the server
// NACKs a request on the ring it is waiting on. A malloc-ring NACK
// re-pushes the malloc only when no abandoned request is queued: the
// rejection could be the abandoned request's, and a duplicate malloc
// would leak its second answer. A free-ring NACK always re-pushes the
// barrier, since a duplicate barrier is harmless. Each case queues a
// word whose seal fails ahead of a first-touch request (a slab carve,
// so the NACK lands long before the answer) and counts the re-pushes.
func TestNackRepushPolicy(t *testing.T) {
	for _, tc := range []struct {
		name      string
		free      bool // NACK on the free ring, waited on by a flush barrier
		abandoned bool // an abandoned malloc is queued during the wait
		repushes  uint64
	}{
		{"malloc", false, false, 1},
		{"malloc-abandoned", false, true, 0},
		{"barrier", true, false, 1},
		{"barrier-abandoned", true, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.New(sim.ScaledConfig())
			srv := NewServer()
			m.SpawnDaemon("server", 1, srv.Run)
			m.Spawn("worker", 0, func(th *sim.Thread) {
				cfg := DefaultConfig()
				cfg.Resilience = DefaultResilience()
				cfg.Resilience.TimeoutCycles = 1 << 24 // the carve must not time out
				a := New(th, cfg)
				srv.Attach(a)
				c := a.clientOf(th)
				rs := c.res
				if tc.abandoned {
					// Numbered but never pushed: its answer never comes.
					c.seq++
					rs.abandoned = append(rs.abandoned, abandonedReq{c.seq, 64})
				}
				r := c.mreq
				if tc.free {
					r = c.freq
				}
				if !r.TryPush(th, sealWord(opMalloc|64<<8, 0, 0)^1<<8, 0) {
					t.Fatal("push into empty ring failed")
				}
				if tc.free {
					// The preheat carves the class's slab between the NACK
					// and the barrier's answer.
					if !r.TryPush(th, sealWord(opPreheat|3<<8, 0, 0), 0) {
						t.Fatal("push into ring failed")
					}
				}
				pushes := r.Stats().Pushes
				if tc.free {
					a.Flush(th)
				} else if p := a.Malloc(th, 64); p == 0 || len(rs.em.blocks) != 0 {
					t.Errorf("malloc = %#x, %d emergency blocks: the wait failed", p, len(rs.em.blocks))
				}
				if rs.stats.MallocNacks+rs.stats.FreeNacks != 1 || rs.stats.Timeouts != 0 {
					t.Errorf("nacks %d/%d, timeouts %d; want one NACK and no timeout",
						rs.stats.MallocNacks, rs.stats.FreeNacks, rs.stats.Timeouts)
				}
				if rs.stats.Retries != tc.repushes {
					t.Errorf("retries = %d, want %d", rs.stats.Retries, tc.repushes)
				}
				if got := r.Stats().Pushes - pushes; got != 1+tc.repushes {
					t.Errorf("%d pushes for one request, want %d", got, 1+tc.repushes)
				}
			})
			m.Run()
		})
	}
}

// --- fuzzing ----------------------------------------------------------------

// FuzzServeWord: the server must survive arbitrary word pairs on both
// rings — no panic, and exactly one outcome (served or NACKed) per
// popped request. A served malloc's response word carries its request's
// tag over an address below the tag bits; a NACK leaves the word alone.
// Every input runs under each layout, so each layout's free validation
// sees the fuzzed words.
func FuzzServeWord(f *testing.F) {
	f.Add(sealWord(opMalloc|64<<8, 1, 1), uint64(1), sealWord(opFree, 0x1234, 2), uint64(0x1234))
	f.Add(sealWord(opMalloc|4096<<8, 1<<17|9, 9), uint64(1<<17|9), sealWord(opSync, 1<<20|3, 3), uint64(1<<20|3))
	f.Add(sealWord(opSync, 3, 3), uint64(3), sealWord(opPreheat|2<<8, 0, 4), uint64(0))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0xdead_beef_dead_beef), uint64(0xffff_ffff_ffff_ffff),
		sealWord(opMalloc|64<<8, 5, 5)^1<<40, uint64(5))
	f.Add(sealWord(0x7f, 6, 6), uint64(6), sealWord(opFree, mem.MmapBase+64, 7), uint64(mem.MmapBase+64))
	f.Fuzz(func(t *testing.T, w0a, w1a, w0b, w1b uint64) {
		for _, l := range []Layout{Segregated, Aggregated, Compact} {
			m := sim.New(sim.ScaledConfig())
			m.Spawn("worker", 0, func(th *sim.Thread) {
				cfg := DefaultConfig()
				cfg.Layout = l
				cfg.Resilience = DefaultResilience()
				a := New(th, cfg)
				srv := NewServer()
				srv.Attach(a)
				c := a.clientOf(th)
				// One request at a time, so each leaves its own mark on the
				// response word.
				serve := func(r *ring.SPSC, w0, w1 uint64) {
					w0 &^= ring.TagBit
					before, nacked := th.AtomicLoad64(c.page+respWord), a.ResilienceTelemetry()
					if !r.TryPush(th, w0, w1) {
						t.Errorf("%s: push into empty ring failed", l)
						return
					}
					for srv.Poll(th) {
					}
					after, rs := th.AtomicLoad64(c.page+respWord), a.ResilienceTelemetry()
					switch {
					case rs.MallocNacks+rs.FreeNacks != nacked.MallocNacks+nacked.FreeNacks:
						if after != before {
							t.Errorf("%s: NACK of %#x/%#x rewrote the response word %#x -> %#x", l, w0, w1, before, after)
						}
					case unseal(w0)&0xff == opMalloc:
						if addr := after &^ respTagMask; !answers(after, w1) || addr < mem.MmapBase {
							t.Errorf("%s: malloc %#x/%#x answered %#x: want tag %#x over a heap address", l, w0, w1, after, w1<<respTagShift>>respTagShift)
						}
					}
				}
				serve(c.mreq, w0a, w1a)
				serve(c.freq, w0b, w1b)
				mr, fr := c.mreq.Stats(), c.freq.Stats()
				if mr.Pops != 1 || fr.Pops != 1 {
					t.Fatalf("%s: pops = %d/%d, want 1/1", l, mr.Pops, fr.Pops)
				}
				rs := a.ResilienceTelemetry()
				if got := a.Served() + rs.MallocNacks + rs.FreeNacks; got != 2 {
					t.Fatalf("%s: served+nacked = %d for 2 requests (double or lost completion)", l, got)
				}
			})
			m.Run()
		}
	})
}
