package core

import (
	"fmt"
	"math"

	"nextgenmalloc/internal/sim"
)

// SchedPolicy selects the order in which the server core services its
// clients' rings on each Poll pass: one row of schedTable. The zero
// value (FixedScan) is the seed behaviour and stays bit-identical to it;
// the other rows fix its fairness bugs (head-of-line blocking of one
// client's synchronous malloc behind another client's free slice, and
// the registration-order scan bias that favours early clients).
type SchedPolicy int

const (
	// FixedScan services clients in registration order: all malloc
	// rings first, then up to 16 background frees per client,
	// re-checking only the current client's malloc ring between frees.
	// This is the seed behaviour and the default.
	FixedScan SchedPolicy = iota
	// RoundRobin rotates the scan's starting client each pass so no
	// client is permanently first, and re-checks every malloc ring
	// between frees so a synchronous request never waits behind
	// another client's free backlog.
	RoundRobin
	// DoorbellPriority keeps the registration-order scan but re-checks
	// every malloc ring between frees, minimising synchronous malloc
	// latency.
	DoorbellPriority
	// BatchDrain empties each client's entire free backlog before
	// moving on (no 16-op slice cap), maximising drain throughput at
	// the cost of cross-client fairness.
	BatchDrain
)

// schedTable is the whole difference between the policies. Every row
// re-checks malloc rings before each free pop; the rows choose whose.
var schedTable = [...]struct {
	name       string
	rotate     bool // start each pass one client further on
	recheckAll bool // between frees, drain every client's malloc ring, not just the current client's
	sliceCap   int  // background frees per client per pass
}{
	FixedScan:        {"fixed-scan", false, false, 16},
	RoundRobin:       {"round-robin", true, true, 16},
	DoorbellPriority: {"doorbell-priority", false, true, 16},
	BatchDrain:       {"batch-drain", false, false, math.MaxInt},
}

// String reports the policy's CLI spelling.
func (p SchedPolicy) String() string {
	if p >= 0 && int(p) < len(schedTable) {
		return schedTable[p].name
	}
	return fmt.Sprintf("sched(%d)", int(p))
}

// ParseSched maps a CLI spelling to its policy. The empty string is
// the default (fixed-scan, the seed behaviour).
func ParseSched(s string) (SchedPolicy, error) {
	if s == "" {
		return FixedScan, nil
	}
	for p, row := range schedTable {
		if row.name == s {
			return SchedPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("unknown scheduling policy %q (want fixed-scan, round-robin, doorbell-priority or batch-drain)", s)
}

// ClientService is one client's slice of the server's service-fairness
// ledger: how many of its requests the server completed and the widest
// gap in cycles between consecutive completions (the starvation metric
// the fleet sweep reports).
type ClientService struct {
	ThreadID     int
	Served       uint64
	MaxGapCycles uint64
}

// ClientServices reports the per-client service ledger in client
// registration order. Host-side observation only; safe to call after a
// run completes.
func (a *Allocator) ClientServices() []ClientService {
	out := make([]ClientService, 0, len(a.clients))
	for _, c := range a.clients {
		out = append(out, ClientService{
			ThreadID:     c.threadID,
			Served:       c.servedOps,
			MaxGapCycles: c.maxServeGap,
		})
	}
	return out
}

// Poll performs one service pass over every client — malloc rings with
// priority, then a slice of each client's free backlog with malloc
// rings re-checked before every free, as Config.Sched's schedTable row
// directs — and reports whether any work was found. Exposed so the
// dedicated core can be shared with other service functions (the
// paper's "can the room be used for other functions" question).
func (s *Server) Poll(t *sim.Thread) bool {
	a := s.a
	if a == nil {
		return false
	}
	pol := schedTable[a.cfg.Sched]
	start := 0
	if pol.rotate {
		start = s.rr
		s.rr++
	}
	busy := s.drainMallocs(t, start)
	clients := a.clients
	for i := range clients {
		c := clients[(start+i)%len(clients)]
		for n := 0; n < pol.sliceCap; n++ {
			if pol.recheckAll {
				busy = s.drainMallocs(t, start) || busy
			} else if s.popServe(t, c, c.mreq) {
				busy = true
			}
			if !s.popServe(t, c, c.freq) {
				break
			}
			busy = true
		}
	}
	return busy
}

// drainMallocs empties every client's malloc ring, scanning from client
// index start (mod the client count), and reports whether any request
// was found.
func (s *Server) drainMallocs(t *sim.Thread, start int) bool {
	busy := false
	clients := s.a.clients
	for i := range clients {
		c := clients[(start+i)%len(clients)]
		for s.popServe(t, c, c.mreq) {
			busy = true
		}
	}
	return busy
}
