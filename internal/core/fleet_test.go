package core

import (
	"fmt"
	"reflect"
	"testing"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/alloctest"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
)

// fleetDaemon spawns n servers on the machine's top cores and returns
// the slot the factory attaches shards through.
func fleetDaemon(n int, srvs *[]*Server) func(m *sim.Machine) {
	return func(m *sim.Machine) {
		*srvs = nil
		for i := 0; i < n; i++ {
			srv := NewServer()
			m.SpawnDaemon(fmt.Sprintf("server-%d", i), m.Cores()-n+i, srv.Run)
			*srvs = append(*srvs, srv)
		}
	}
}

func fleetFactory(cfg Config, servers int, part Partition, srvs *[]*Server) alloctest.Factory {
	return func(th *sim.Thread, m *sim.Machine) alloc.Allocator {
		f := NewFleet(th, cfg, servers, part, nil)
		for i, sh := range f.Shards() {
			(*srvs)[i].Attach(sh)
		}
		return f
	}
}

// TestConformanceFleet: the sharded fleet passes the same conformance
// suite as the single allocator — alignment, integrity under churn,
// cross-thread frees (which must route back to the owning shard), odd
// sizes.
func TestConformanceFleet(t *testing.T) {
	var srvs []*Server
	alloctest.Run(t, alloctest.Options{
		Factory: fleetFactory(DefaultConfig(), 2, ByClient, &srvs),
		Daemon:  fleetDaemon(2, &srvs),
	})
}

func TestConformanceFleetByClass(t *testing.T) {
	var srvs []*Server
	alloctest.Run(t, alloctest.Options{
		Factory: fleetFactory(DefaultConfig(), 2, ByClass, &srvs),
		Daemon:  fleetDaemon(2, &srvs),
	})
}

// TestFleetPartitionsClients: with the client partition, clients land
// on shards round-robin by arrival order, and every shard serves its
// own clients' traffic.
func TestFleetPartitionsClients(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var srvs []*Server
	fleetDaemon(2, &srvs)(m)
	ready, _ := m.Kernel().Mmap(1)
	var f *Fleet
	const clients, per = 4, 200
	for i := 0; i < clients; i++ {
		part := i
		m.Spawn(fmt.Sprintf("c%d", part), part, func(th *sim.Thread) {
			if part == 0 {
				f = NewFleet(th, DefaultConfig(), 2, ByClient, nil)
				for j, sh := range f.Shards() {
					srvs[j].Attach(sh)
				}
				th.AtomicStore64(ready, 1)
			} else {
				for th.Load64(ready) == 0 {
					th.Pause(100)
				}
			}
			addrs := make([]uint64, per)
			for k := range addrs {
				addrs[k] = f.Malloc(th, 64)
				th.Store64(addrs[k], uint64(part*10000+k))
			}
			for k, p := range addrs {
				if got := th.Load64(p); got != uint64(part*10000+k) {
					t.Errorf("client %d block %d corrupted: %#x", part, k, got)
				}
				f.Free(th, p)
			}
			f.Flush(th)
		})
	}
	m.Run()
	var sum uint64
	for i, sh := range f.Shards() {
		if sh.Served() == 0 {
			t.Errorf("shard %d served nothing (client partition left it idle)", i)
		}
		if got := len(sh.ClientServices()); got != clients/2 {
			t.Errorf("shard %d registered %d clients, want %d", i, got, clients/2)
		}
		sum += sh.Served()
	}
	if sum != f.Served() {
		t.Errorf("shards served %d, fleet says %d", sum, f.Served())
	}
}

// TestFleetByClassRoutesSizes: with the class partition a single client
// spreads its traffic across shards by size class, and frees route
// back to the shard that owns the block.
func TestFleetByClassRoutesSizes(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var srvs []*Server
	fleetDaemon(2, &srvs)(m)
	var f *Fleet
	m.Spawn("c0", 0, func(th *sim.Thread) {
		f = NewFleet(th, DefaultConfig(), 2, ByClass, nil)
		for j, sh := range f.Shards() {
			srvs[j].Attach(sh)
		}
		var addrs []uint64
		for k := 0; k < 150; k++ {
			for _, size := range []uint64{16, 32, 64, 128, 256} {
				p := f.Malloc(th, size)
				if p == 0 {
					t.Errorf("Malloc(%d) returned 0", size)
				}
				th.Store64(p, size)
				addrs = append(addrs, p)
			}
		}
		for _, p := range addrs {
			f.Free(th, p)
		}
		f.Flush(th)
	})
	m.Run()
	for i, sh := range f.Shards() {
		if sh.Served() == 0 {
			t.Errorf("shard %d served nothing (class partition routed nothing to it)", i)
		}
	}
}

// TestFleetName: the composite name carries the shard count.
func TestFleetName(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var srvs []*Server
	fleetDaemon(3, &srvs)(m)
	m.Spawn("c0", 0, func(th *sim.Thread) {
		f := NewFleet(th, DefaultConfig(), 3, ByClient, nil)
		for j, sh := range f.Shards() {
			srvs[j].Attach(sh)
		}
		want := f.Shards()[0].Name() + "-x3"
		if f.Name() != want {
			t.Errorf("fleet name %q, want %q", f.Name(), want)
		}
		f.Free(th, f.Malloc(th, 64))
		f.Flush(th)
	})
	m.Run()
}

func TestNewFleetRejectsZeroServers(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	m.Spawn("c0", 0, func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("NewFleet accepted zero servers")
			}
		}()
		NewFleet(th, DefaultConfig(), 0, ByClient, nil)
	})
	m.Run()
}

// TestBatchClampedToLine: a client never holds back a whole line — with
// room in the ring, k frees leave k mod maxBatch staged, and the next
// Malloc leaves none.
func TestBatchClampedToLine(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	srv := NewServer()
	m.SpawnDaemon("server", m.Cores()-1, srv.Run)
	m.Spawn("c0", 0, func(th *sim.Thread) {
		a := New(th, DefaultConfig())
		srv.Attach(a)
		blocks := make([]uint64, 2*maxBatch+3)
		for i := range blocks {
			blocks[i] = a.Malloc(th, 64)
		}
		freq := a.clientOf(th).freq
		for i, p := range blocks {
			a.Free(th, p)
			if got, want := freq.Staged(), (i+1)%maxBatch; got != want {
				t.Errorf("after %d frees: %d staged, want %d", i+1, got, want)
			}
		}
		a.Malloc(th, 64)
		if got := freq.Staged(); got != 0 {
			t.Errorf("%d frees still staged after a Malloc", got)
		}
		a.Flush(th)
	})
	m.Run()
}

// TestFleetForeignFreesWaitForFlush pins the price of staging on a
// fleet: Fleet.Malloc publishes only the ring of the shard that serves
// it, so fewer than maxBatch frees owed to a foreign shard stay staged
// — however many mallocs the thread makes at home — until that line
// fills or Fleet.Flush. A documented staleness bound, not starvation:
// Flush delivers them and every shard's ledger balances.
func TestFleetForeignFreesWaitForFlush(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var srvs []*Server
	fleetDaemon(2, &srvs)(m)
	var f *Fleet
	var handoff []uint64 // blocks of thread 0 (shard 0) for thread 1 (shard 1) to free
	m.Spawn("c0", 0, func(th *sim.Thread) {
		f = NewFleet(th, DefaultConfig(), 2, ByClient, nil)
		for j, sh := range f.Shards() {
			srvs[j].Attach(sh)
		}
		blocks := make([]uint64, maxBatch-1)
		for i := range blocks {
			blocks[i] = f.Malloc(th, 64)
		}
		handoff = blocks
		f.Flush(th)
	})
	m.Spawn("c1", 1, func(th *sim.Thread) {
		for handoff == nil {
			th.Pause(100)
		}
		home := f.Malloc(th, 64) // first touch: thread 1's home is shard 1
		for _, p := range handoff {
			f.Free(th, p)
		}
		foreign := f.Shards()[0].byThread[th.ID()].freq
		for i := 0; i < 50; i++ {
			f.Free(th, home)
			home = f.Malloc(th, 64)
		}
		if foreign.Staged() != len(handoff) || foreign.HostDepth() != len(handoff) {
			t.Errorf("after 50 home mallocs the foreign ring holds %d staged of depth %d, want %d and %d",
				foreign.Staged(), foreign.HostDepth(), len(handoff), len(handoff))
		}
		f.Free(th, home)
		f.Flush(th)
		if foreign.Staged() != 0 || foreign.HostDepth() != 0 {
			t.Errorf("after Flush the foreign ring still holds %d staged of depth %d", foreign.Staged(), foreign.HostDepth())
		}
	})
	m.Run()
	for i, sh := range f.Shards() {
		mr, fr := sh.RingTelemetry()
		if pushes, pops := mr.Pushes+fr.Pushes, mr.Pops+fr.Pops; pushes != pops || pops != sh.Served() {
			t.Errorf("shard %d: %d pushed, %d popped, %d served", i, pushes, pops, sh.Served())
		}
	}
	if live := f.Stats().LiveBytes; live != 0 {
		t.Errorf("%d bytes still live after every block was freed and flushed", live)
	}
}

// The Add-coverage walkers mirror internal/harness's: fill every uint64
// leaf with a distinct value, Add, and verify leaf-by-leaf that the sum
// landed. A counter added to FailoverStats without a matching line in
// Add fails here by construction.

func failoverWalkFill(v reflect.Value, next *uint64, mul uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next * mul)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			failoverWalkFill(v.Field(i), next, mul)
		}
	default:
		panic("failoverWalkFill: unhandled kind " + v.Kind().String())
	}
}

func failoverWalkCheck(t *testing.T, path string, a, b, sum reflect.Value) {
	t.Helper()
	switch a.Kind() {
	case reflect.Uint64:
		if sum.Uint() != a.Uint()+b.Uint() {
			t.Errorf("%s: Add dropped the field (%d + %d gave %d)", path, a.Uint(), b.Uint(), sum.Uint())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			failoverWalkCheck(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), sum.Field(i))
		}
	default:
		t.Fatalf("%s: unhandled kind %s", path, a.Kind())
	}
}

func TestFailoverStatsAddCoversEveryField(t *testing.T) {
	var a, b FailoverStats
	n := uint64(0)
	failoverWalkFill(reflect.ValueOf(&a).Elem(), &n, 1)
	n = 0
	failoverWalkFill(reflect.ValueOf(&b).Elem(), &n, 1000)
	sum := a
	sum.Add(b)
	failoverWalkCheck(t, "FailoverStats",
		reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(sum))
}

// failoverConfig is the degradation policy for the core-level failover
// tests. The timeout must outlive a first-touch malloc (the server
// carves the class's initial slab, ~90k busy cycles at the scaled
// geometry) so only a genuine stall — not a cold shard — trips the
// ladder; the full ladder is ~200k cycles, which the test's stall
// comfortably outlives.
func failoverConfig() Config {
	cfg := DefaultConfig()
	cfg.Resilience = Resilience{
		Enabled:         true,
		TimeoutCycles:   100000,
		MaxRetries:      1,
		BackoffCycles:   500,
		FallbackAfter:   1,
		ProbeCycles:     30000,
		FailoverAfter:   1,
		MaxRequestBytes: 1 << 24,
	}
	return cfg
}

// TestFleetFailoverReHomesAndRejoins: a one-shot stall on the client's
// home shard must re-home its mallocs to the healthy shard (no
// emergency-tier fallback), and the probe must bring it back home after
// the stall ends. Blocks served by either shard free back to their
// owner, and every block stays intact across the transitions.
func TestFleetFailoverReHomesAndRejoins(t *testing.T) {
	// The stall opens after the first-touch slab carves have settled and
	// outlives the whole retry ladder, so the home shard is marked down
	// exactly once and every malloc during the outage lands on the
	// healthy shard.
	const stallStart, stallLen = 250000, 400000
	m := sim.New(sim.ScaledConfig())
	var srvs []*Server
	fleetDaemon(2, &srvs)(m)
	inj := fault.NewShardInjector(fault.Plan{Seed: 1, StallStart: stallStart, StallCycles: stallLen, Shard: 1}, 0)
	inj.Attach(m)
	var f *Fleet
	m.Spawn("c0", 0, func(th *sim.Thread) {
		f = NewFleet(th, failoverConfig(), 2, ByClient, []*fault.Injector{inj})
		for j, sh := range f.Shards() {
			srvs[j].Attach(sh)
		}
		if !f.FailoverArmed() {
			t.Error("FailoverArmed() = false with FailoverAfter 1 on 2 shards")
		}
		type block struct{ addr, want uint64 }
		var live []block
		// Malloc through the stall window and well past the first probe
		// after recovery; each block carries a distinct pattern.
		for i := 0; th.Clock() < stallStart+stallLen+10*30000; i++ {
			addr := f.Malloc(th, 64)
			if addr == 0 {
				t.Fatalf("Malloc %d returned 0", i)
			}
			want := uint64(0xf0f0<<16) + uint64(i)
			th.Store64(addr, want)
			live = append(live, block{addr, want})
			th.Pause(2000)
		}
		for i, b := range live {
			if got := th.Load64(b.addr); got != b.want {
				t.Errorf("block %d corrupted across failover: got %#x want %#x", i, got, b.want)
			}
			f.Free(th, b.addr)
		}
		f.Flush(th)
	})
	m.Run()

	clients, events, totals, armed := f.FailoverTelemetry()
	if !armed {
		t.Fatal("telemetry says failover never armed")
	}
	if len(clients) != 1 {
		t.Fatalf("%d client ledgers, want 1", len(clients))
	}
	c := clients[0]
	if c.HomeShard != 0 {
		t.Fatalf("client homed on shard %d, want 0", c.HomeShard)
	}
	if c.Downs == 0 || c.ForwardedMallocs == 0 {
		t.Errorf("stall on the home shard did not re-home: downs %d, forwarded %d", c.Downs, c.ForwardedMallocs)
	}
	if c.Rejoins == 0 || c.ActiveShard != 0 {
		t.Errorf("client did not rejoin its recovered home: rejoins %d, active shard %d", c.Rejoins, c.ActiveShard)
	}
	if totals.Downs != c.Downs || totals.Rejoins != c.Rejoins || totals.ForwardedMallocs != c.ForwardedMallocs {
		t.Errorf("totals %+v disagree with the single ledger %+v", totals, c)
	}
	if got := uint64(len(events)) + totals.DroppedEvents; got != totals.Downs+totals.Rejoins {
		t.Errorf("%d events logged (+%d dropped) for %d transitions", len(events), totals.DroppedEvents, totals.Downs+totals.Rejoins)
	}
	var lastCycle uint64
	for i, ev := range events {
		if ev.From == ev.To {
			t.Errorf("event %d is a self-transition: %+v", i, ev)
		}
		if ev.Cycle < lastCycle {
			t.Errorf("event %d out of order: cycle %d after %d", i, ev.Cycle, lastCycle)
		}
		lastCycle = ev.Cycle
	}
	if rs := f.ResilienceTelemetry(); rs.EmergencyMallocs != 0 {
		t.Errorf("%d mallocs fell to the emergency tier with a healthy shard available", rs.EmergencyMallocs)
	}
	for i, sh := range f.Shards() {
		if sh.Served() == 0 {
			t.Errorf("shard %d served nothing across the failover", i)
		}
	}
}

// TestFleetFailoverDisarmedRecordsNothing: without FailoverAfter the
// fleet must behave exactly like the seed router — no ledgers, no
// events, telemetry reporting unarmed — even under the same stall.
func TestFleetFailoverDisarmedRecordsNothing(t *testing.T) {
	m := sim.New(sim.ScaledConfig())
	var srvs []*Server
	fleetDaemon(2, &srvs)(m)
	var f *Fleet
	m.Spawn("c0", 0, func(th *sim.Thread) {
		cfg := failoverConfig()
		cfg.Resilience.FailoverAfter = 0
		f = NewFleet(th, cfg, 2, ByClient, []*fault.Injector{
			fault.NewShardInjector(fault.Plan{Seed: 1, StallStart: 20000, StallCycles: 30000, Shard: 1}, 0),
		})
		for j, sh := range f.Shards() {
			srvs[j].Attach(sh)
		}
		if f.FailoverArmed() {
			t.Error("FailoverArmed() = true with FailoverAfter 0")
		}
		var addrs []uint64
		for i := 0; i < 60; i++ {
			addrs = append(addrs, f.Malloc(th, 64))
			th.Pause(1000)
		}
		for _, p := range addrs {
			f.Free(th, p)
		}
		f.Flush(th)
	})
	m.Run()
	clients, events, totals, armed := f.FailoverTelemetry()
	if armed || clients != nil || events != nil || totals != (FailoverStats{}) {
		t.Errorf("disarmed fleet recorded failover telemetry: armed %v, %d clients, %d events, %+v",
			armed, len(clients), len(events), totals)
	}
}

// FuzzFleetServeWord extends FuzzServeWord to the sharded topology:
// every shard of a 2-server fleet must survive arbitrary word pairs on
// its rings — no panic, exactly one outcome (served or NACKed) per
// popped request, and a malformed word on one shard never perturbs the
// other shard's ledger.
func FuzzFleetServeWord(f *testing.F) {
	f.Add(sealWord(opMalloc|64<<8, 1, 1), uint64(1), sealWord(opFree, 0x1234, 2), uint64(0x1234))
	f.Add(uint64(0), uint64(0), uint64(0xdead_beef_dead_beef), uint64(0xffff_ffff_ffff_ffff))
	f.Add(sealWord(opSync, 3, 3), uint64(3), sealWord(0x7f, 6, 6), uint64(6))
	f.Add(sealWord(opMalloc|64<<8, 5, 5)^1<<40, uint64(5), sealWord(opPreheat|2<<8, 0, 4), uint64(0))
	f.Fuzz(func(t *testing.T, w0a, w1a, w0b, w1b uint64) {
		m := sim.New(sim.ScaledConfig())
		m.Spawn("worker", 0, func(th *sim.Thread) {
			cfg := DefaultConfig()
			cfg.Resilience = DefaultResilience()
			fl := NewFleet(th, cfg, 2, ByClient, nil)
			var srvs []*Server
			for _, sh := range fl.Shards() {
				srv := NewServer()
				srv.Attach(sh)
				srvs = append(srvs, srv)
			}
			// One fuzzed pair per shard: shard 0 takes the pair on its
			// malloc ring, shard 1 on its free ring.
			c0 := fl.Shards()[0].clientOf(th)
			c1 := fl.Shards()[1].clientOf(th)
			if !c0.mreq.TryPush(th, w0a&^ring.TagBit, w1a) || !c1.freq.TryPush(th, w0b&^ring.TagBit, w1b) {
				t.Fatal("push into empty ring failed")
			}
			for again := true; again; {
				again = false
				for _, srv := range srvs {
					if srv.Poll(th) {
						again = true
					}
				}
			}
			for i, sh := range fl.Shards() {
				c := sh.clientOf(th)
				mr, fr := c.mreq.Stats(), c.freq.Stats()
				if mr.Pops+fr.Pops != 1 {
					t.Fatalf("shard %d pops = %d/%d, want one total", i, mr.Pops, fr.Pops)
				}
				rs := sh.ResilienceTelemetry()
				if got := sh.Served() + rs.MallocNacks + rs.FreeNacks; got != 1 {
					t.Fatalf("shard %d served+nacked = %d for 1 request (double or lost completion)", i, got)
				}
			}
		})
		m.Run()
	})
}
