package core

import (
	"fmt"
	"strings"
	"testing"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/alloctest"
	"nextgenmalloc/internal/sim"
)

func compactCfg() Config {
	cfg := DefaultConfig()
	cfg.Layout = Compact
	return cfg
}

func TestConformanceCompactInline(t *testing.T) {
	cfg := compactCfg()
	cfg.Offload = false
	alloctest.Run(t, alloctest.Options{Factory: factory(cfg, nil)})
}

func TestConformanceCompactOffload(t *testing.T) {
	var srv *Server
	alloctest.Run(t, alloctest.Options{
		Factory: factory(compactCfg(), &srv),
		Daemon: func(m *sim.Machine) {
			srv = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		},
	})
}

func TestConformanceCompactSyncFree(t *testing.T) {
	cfg := compactCfg()
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

func TestConformanceCompactBatch(t *testing.T) {
	var srv *Server
	alloctestRun(t, lineRing(compactCfg()), &srv)
}

func TestConformanceCompactAdaptive(t *testing.T) {
	cfg := compactCfg()
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

// TestConformanceCompactFleetSched: the compact layout under a 2-shard
// fleet, once per scheduling policy — the serve paths must speak the
// bitmask records regardless of how the daemon orders its rings.
func TestConformanceCompactFleetSched(t *testing.T) {
	for _, pol := range []SchedPolicy{FixedScan, RoundRobin, DoorbellPriority, BatchDrain} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := compactCfg()
			cfg.Sched = pol
			var srvs []*Server
			alloctest.Run(t, alloctest.Options{
				Factory: fleetFactory(cfg, 2, ByClient, &srvs),
				Daemon:  fleetDaemon(2, &srvs),
			})
		})
	}
}

func TestCompactBadFree(t *testing.T) {
	cfg := compactCfg()
	cfg.Offload = false
	alloctest.RunBadFree(t, alloctest.Options{Factory: factory(cfg, nil)})
}

// TestCompactMetaFootprint pins the layout's reason to exist: for every
// size class whose groups hold at least 8 units, the compact
// out-of-band allocation state (one mask word per 32-unit group) costs
// at most half the segregated index stack's bytes per slab.
func TestCompactMetaFootprint(t *testing.T) {
	sc := alloc.NewSizeClasses()
	checked := 0
	for class := 0; class < sc.NumClasses(); class++ {
		cCap, cBytes := MetaFootprint(Compact, sc, class)
		_, segBytes := MetaFootprint(Segregated, sc, class)
		if cCap < 1 {
			t.Errorf("class %d (size %d): compact slab holds %d units", class, sc.Size(class), cCap)
			continue
		}
		unitsPerGroup := cCap
		if unitsPerGroup > compactGroupUnits {
			unitsPerGroup = compactGroupUnits
		}
		if unitsPerGroup < 8 {
			continue
		}
		checked++
		if 2*cBytes > segBytes {
			t.Errorf("class %d (size %d): compact %d state B/slab > half of segregated %d",
				class, sc.Size(class), cBytes, segBytes)
		}
	}
	if checked == 0 {
		t.Fatal("no size class had >= 8 units per group")
	}
}

// TestCompactLeavesFreedBytesAlone: unlike the aggregated layout, the
// compact free path stores no intrusive link — a freed block's payload
// survives untouched (all state is the out-of-band mask bit).
func TestCompactLeavesFreedBytesAlone(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := compactCfg()
		cfg.Offload = false
		a := New(th, cfg)
		p := a.Malloc(th, 64)
		th.Store64(p, 0xfeedfacecafebeef)
		a.Free(th, p)
		if got := th.Load64(p); got != 0xfeedfacecafebeef {
			t.Errorf("freed block payload clobbered: %#x", got)
		}
	})
	m.Run()
}

// TestCompactDoubleFreePanics: the mask bit makes double free a
// detected fault even without the resilience layer.
func TestCompactDoubleFreePanics(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	panicked := false
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := compactCfg()
		cfg.Offload = false
		a := New(th, cfg)
		p := a.Malloc(th, 64)
		a.Free(th, p)
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		a.Free(th, p)
	})
	m.Run()
	if !panicked {
		t.Error("double free went undetected")
	}
}

// TestCompactHeaderFreePanics: an address inside a group's in-band
// header line is never a valid block start.
func TestCompactHeaderFreePanics(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	panicked := false
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := compactCfg()
		cfg.Offload = false
		a := New(th, cfg)
		p := a.Malloc(th, 64)
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		a.Free(th, p-compactHdrBytes) // the group header line
	})
	m.Run()
	if !panicked {
		t.Error("freeing a group header address went undetected")
	}
}

func TestLayoutStringParseRoundTrip(t *testing.T) {
	for _, l := range []Layout{Segregated, Aggregated, Compact} {
		if !l.Valid() {
			t.Errorf("%s not Valid()", l)
		}
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLayout(%q) = %v, %v", l.String(), got, err)
		}
	}
	if l, err := ParseLayout(""); err != nil || l != Segregated {
		t.Errorf("ParseLayout(\"\") = %v, %v", l, err)
	}
	if _, err := ParseLayout("bogus"); err == nil {
		t.Error("ParseLayout(\"bogus\") did not fail")
	}
	if bad := Layout(7); bad.Valid() || bad.String() != "layout(7)" {
		t.Errorf("Layout(7): Valid=%v String=%q", bad.Valid(), bad.String())
	}
}

// TestNewRejectsInvalidLayout: an undefined layout fails at
// construction with a panic that names it, instead of carving, popping
// and pushing with some other layout's slab format.
func TestNewRejectsInvalidLayout(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var got any
	m.Spawn("t", 0, func(th *sim.Thread) {
		defer func() { got = recover() }()
		cfg := DefaultConfig()
		cfg.Offload = false
		cfg.Layout = Layout(7)
		a := New(th, cfg)
		a.Free(th, a.Malloc(th, 64))
	})
	m.Run()
	if msg := fmt.Sprint(got); got == nil || !strings.Contains(msg, "invalid metadata layout layout(7)") {
		t.Errorf("New with Layout(7) recovered %v, want a panic naming layout(7)", got)
	}
}

// BenchmarkSlabMallocFree tracks the host-side cost of each layout's
// inline malloc/free paths (one simulated thread, churn over a few
// classes; ns/op is host time per malloc+free pair).
func BenchmarkSlabMallocFree(b *testing.B) {
	for _, l := range []Layout{Segregated, Aggregated, Compact} {
		b.Run(l.String(), func(b *testing.B) {
			m := sim.New(sim.ScaledConfig())
			m.Spawn("bench", 0, func(th *sim.Thread) {
				cfg := DefaultConfig()
				cfg.Offload = false
				cfg.Layout = l
				a := New(th, cfg)
				sizes := []uint64{16, 48, 64, 160, 512}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := a.Malloc(th, sizes[i%len(sizes)])
					a.Free(th, p)
				}
			})
			m.Run()
		})
	}
}

// TestCompactGeometryCoversEveryClass: every size class carves at least
// one full unit behind its header, addresses are in-bounds, and the
// find-first-set path hands out exactly capacity distinct unit
// addresses before the slab reports empty.
func TestCompactGeometryCoversEveryClass(t *testing.T) {
	sc := alloc.NewSizeClasses()
	for class := 0; class < sc.NumClasses(); class++ {
		pages, capacity := compact{}.geometry(sc, class)
		size := sc.Size(class)
		if capacity < 1 {
			t.Fatalf("class %d: capacity %d", class, capacity)
		}
		stride := compactStride(size)
		span := uint64(pages) << 12
		last := uint64((capacity-1)/compactGroupUnits)*stride +
			compactHdrBytes + uint64((capacity-1)%compactGroupUnits)*size + size
		if last > span {
			t.Errorf("class %d (size %d): last unit ends at %d > span %d (pages %d, cap %d)",
				class, size, last, span, pages, capacity)
		}
	}
}

func TestCompactVariantNames(t *testing.T) {
	cases := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Layout = Compact }, "nextgen-compact"},
		{func(c *Config) { c.Offload = false; c.Layout = Compact }, "nextgen-inline-compact"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if got := (&Allocator{cfg: cfg}).Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// TestCompactResilientFreeValidation: with the resilience layer armed,
// the server NACKs (rather than serves) compact frees that are
// misaligned, point into a header line, or double-free a unit — and
// the NACK path touches no allocator state.
func TestCompactResilientFreeValidation(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var srv *Server
	srv = NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	m.Spawn("t", 0, func(th *sim.Thread) {
		cfg := compactCfg()
		cfg.Resilience = DefaultResilience()
		a := New(th, cfg)
		srv.Attach(a)
		p := a.Malloc(th, 64)
		q := a.Malloc(th, 64)
		a.Free(th, q)
		a.Flush(th)
		for i, bad := range []uint64{
			p + 8,               // misaligned inside a live unit
			p - compactHdrBytes, // the group header line
			q,                   // unit already free
		} {
			a.Free(th, bad)
			a.Flush(th)
			if nacks := a.ResilienceTelemetry().FreeNacks; nacks != uint64(i+1) {
				t.Errorf("bad free %d (%#x): FreeNacks = %d, want %d", i, bad, nacks, i+1)
			}
		}
		// The slab must still be coherent: the live unit frees cleanly.
		a.Free(th, p)
		a.Flush(th)
		if nacks := a.ResilienceTelemetry().FreeNacks; nacks != 3 {
			t.Errorf("valid free NACKed: FreeNacks = %d", nacks)
		}
	})
	m.Run()
}
