package core

import (
	"testing"

	"nextgenmalloc/internal/alloctest"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/timeline"
)

// alloctestRun runs the conformance suite against a NextGen config
// with one offload server.
func alloctestRun(t *testing.T, cfg Config, srvSlot **Server) {
	alloctest.Run(t, alloctest.Options{
		Factory: factory(cfg, srvSlot),
		Daemon: func(m *sim.Machine) {
			*srvSlot = NewServer()
			m.SpawnDaemon("server", m.Cores()-1, (*srvSlot).Run)
		},
	})
}

func TestParseSched(t *testing.T) {
	cases := []struct {
		in   string
		want SchedPolicy
	}{
		{"", FixedScan},
		{"fixed-scan", FixedScan},
		{"round-robin", RoundRobin},
		{"doorbell-priority", DoorbellPriority},
		{"batch-drain", BatchDrain},
	}
	for _, c := range cases {
		got, err := ParseSched(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSched(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"fifo", "roundrobin", "doorbell"} {
		if _, err := ParseSched(bad); err == nil {
			t.Errorf("ParseSched(%q) accepted", bad)
		}
	}
	// The policy table is total: four rows, and each row's name, String
	// and ParseSched agree.
	if len(schedTable) != int(BatchDrain)+1 {
		t.Fatalf("schedTable has %d rows, want one per policy (%d)", len(schedTable), int(BatchDrain)+1)
	}
	for i, row := range schedTable {
		p := SchedPolicy(i)
		if row.name == "" || row.sliceCap <= 0 {
			t.Errorf("schedTable[%d] = %+v is not a complete row", i, row)
		}
		if p.String() != row.name {
			t.Errorf("SchedPolicy(%d).String() = %q, table row says %q", i, p.String(), row.name)
		}
		if got, err := ParseSched(row.name); err != nil || got != p {
			t.Errorf("ParseSched(%q) = %v, %v; want %v", row.name, got, err, p)
		}
	}
}

// TestMallocOvertakesFreeBacklog pins what popping frees one by one
// buys: once a malloc request is visible in its ring, the server
// services at most one more free before it — the one already popped —
// from the same client under every policy, and from any client under the
// two policies that re-check every malloc ring. (A drain that pops a
// slot line at a time makes that up to four.) Host order, not clocks,
// decides "before": spans are recorded in service order, and the
// requester notes how many exist when its push returns.
func TestMallocOvertakesFreeBacklog(t *testing.T) {
	const rounds, backlog = 20, 4 * maxBatch
	for i, row := range schedTable {
		for _, cross := range []bool{false, true} {
			if cross && !row.recheckAll {
				continue
			}
			name := row.name + "/same-client"
			if cross {
				name = row.name + "/other-client"
			}
			t.Run(name, func(t *testing.T) {
				m := sim.New(sim.ScaledConfig())
				srv := NewServer()
				m.SpawnDaemon("server", m.Cores()-1, srv.Run)
				rec := timeline.NewLatencyRecorder(0)
				var a *Allocator
				var seenAtPush []int // spans recorded when round r's malloc push returned
				requester := 0       // thread ID of the malloc requester
				// request is Malloc's ring round trip with the span count noted
				// between the push and the wait.
				request := func(th *sim.Thread) {
					c := a.clientOf(th)
					seq, _ := a.issue(th, c, c.mreq, opMalloc|64<<8)
					seenAtPush = append(seenAtPush, len(rec.Spans))
					a.spin(th, c, seq, 0, false)
				}
				turn, done := 0, 0 // host-side hand-over between the two clients
				m.Spawn("freer", 0, func(th *sim.Thread) {
					cfg := DefaultConfig()
					cfg.Sched = SchedPolicy(i)
					cfg.Latency = rec
					a = New(th, cfg)
					srv.Attach(a)
					blocks := make([]uint64, rounds*backlog)
					for k := range blocks {
						blocks[k] = a.Malloc(th, 64)
					}
					for r := 0; r < rounds; r++ {
						for _, p := range blocks[r*backlog : (r+1)*backlog] {
							a.Free(th, p)
						}
						if !cross {
							requester = th.ID()
							request(th)
							continue
						}
						for turn++; done < turn; {
							th.Pause(16)
						}
					}
					a.Flush(th)
				})
				if cross {
					m.Spawn("requester", 1, func(th *sim.Thread) {
						requester = th.ID()
						for r := 0; r < rounds; r++ {
							for turn <= r {
								th.Pause(16)
							}
							request(th)
							done++
						}
					})
				}
				m.Run()
				if rec.Dropped != 0 || len(seenAtPush) != rounds {
					t.Fatalf("%d spans dropped, %d of %d rounds ran", rec.Dropped, len(seenAtPush), rounds)
				}
				overtaken := 0
				for r, from := range seenAtPush {
					frees := 0
					for _, sp := range rec.Spans[from:] {
						if sp.Op == timeline.OpMalloc && sp.Client == requester {
							break
						}
						frees++
					}
					if frees > 1 {
						t.Errorf("round %d: %d frees serviced between the malloc's push and its service, want at most 1", r, frees)
					}
					overtaken += frees
				}
				if overtaken == 0 {
					t.Error("no malloc ever arrived behind a free backlog; the bound above was never exercised")
				}
			})
		}
	}
}

func TestParsePartition(t *testing.T) {
	cases := []struct {
		in   string
		want Partition
	}{
		{"", ByClient},
		{"client", ByClient},
		{"class", ByClass},
	}
	for _, c := range cases {
		got, err := ParsePartition(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePartition(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePartition("thread"); err == nil {
		t.Error("ParsePartition(thread) accepted")
	}
	for _, p := range []Partition{ByClient, ByClass} {
		got, err := ParsePartition(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePartition(%q) = %v, %v; want round trip", p.String(), got, err)
		}
	}
}

// TestSchedConformance: every non-default service order still passes
// the allocator conformance suite (the fairness fixes must not change
// what gets served, only when).
func TestSchedConformance(t *testing.T) {
	for _, p := range []SchedPolicy{RoundRobin, DoorbellPriority, BatchDrain} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Sched = p
			var srv *Server
			alloctestRun(t, cfg, &srv)
		})
	}
}

// TestSchedBatchedConformance: the same sweep on one-line free rings,
// where every published line is a full ring the policy has to drain
// before the client can stage again.
func TestSchedBatchedConformance(t *testing.T) {
	for _, p := range []SchedPolicy{RoundRobin, DoorbellPriority, BatchDrain} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := lineRing(DefaultConfig())
			cfg.Sched = p
			var srv *Server
			alloctestRun(t, cfg, &srv)
		})
	}
}

// TestIdleServerParks pins which policies let an idle server with two
// registered clients park its poll loop: the registration-order scans
// repeat the same round, while round-robin's rotating start makes
// consecutive rounds load the rings in a different order, so no two
// consecutive scripts match. The clients register without a request and
// then compute, so every park on the machine is the server's; only the
// parks after the second registration count.
func TestIdleServerParks(t *testing.T) {
	for _, c := range []struct {
		p     SchedPolicy
		parks bool
	}{{FixedScan, true}, {DoorbellPriority, true}, {RoundRobin, false}} {
		m := sim.New(sim.ScaledConfig())
		srv := NewServer()
		m.SpawnDaemon("server", m.Cores()-1, srv.Run)
		var a *Allocator
		var before uint64 // parks when the second client registered
		registered := 0
		client := func(th *sim.Thread) {
			a.clientOf(th)
			if registered++; registered == 2 {
				before = m.WarpStats().Parks
			}
			for i := 0; i < 400; i++ {
				th.Exec(500)
			}
		}
		m.Spawn("c0", 0, func(th *sim.Thread) {
			cfg := DefaultConfig()
			cfg.Sched = c.p
			a = New(th, cfg)
			srv.Attach(a)
			client(th)
		})
		m.Spawn("c1", 1, func(th *sim.Thread) {
			for a == nil {
				th.Pause(100)
			}
			client(th)
		})
		m.Run()
		if w := m.WarpStats(); (w.Parks > before) != c.parks {
			t.Errorf("%v: server parks %d times with two clients (%+v), want parking %v", c.p, w.Parks-before, w, c.parks)
		}
	}
}
