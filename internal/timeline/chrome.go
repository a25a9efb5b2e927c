package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceRun is one run's worth of trace data: the sampled counter series
// and (for offload allocators) the recorded latency spans. ServerCore
// is the dedicated core's index, or -1 when the run had none. Tenants
// carries service-workload request spans, one trace track per tenant.
type TraceRun struct {
	Name       string
	Series     *Series
	Latency    *LatencyRecorder
	ServerCore int
	Tenants    []TenantSpan
	// Failover holds the fleet's re-home transitions (empty unless the
	// run armed shard failover), drawn as instant events on the moving
	// thread's track.
	Failover []FailoverEvent
}

// FailoverEvent is one shard re-home transition: at Cycle, Thread moved
// its malloc traffic From one shard To another. The fleet records these
// directly (a bounded host-side log).
type FailoverEvent struct {
	Cycle  uint64
	Thread int
	From   int
	To     int
}

// TenantSpan is one service request's life on a tenant-labeled track:
// it arrives (open loop), waits for a worker, and is served until
// Complete. Class names the request's op class; Violated marks spans
// that blew their SLO budget (highlighted in trace args).
type TenantSpan struct {
	Tenant   int
	Class    string
	Arrival  uint64
	Start    uint64
	Complete uint64
	Violated bool
}

// tenantTidBase offsets tenant track ids past any plausible core count
// so tenant tracks never collide with per-core tracks.
const tenantTidBase = 1 << 20

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the "JSON Array Format" consumed by
// chrome://tracing and Perfetto). ts/dur are in microseconds by
// convention; we map 1 simulated cycle to 1 µs so cycle arithmetic
// survives the viewer untouched.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the runs as Chrome trace-event JSON: one
// process per run, counter ("C") events per core with per-interval
// deltas of the headline PMU counters, ring/server gauges, and one
// complete ("X") event per retained offload span on the client's
// thread track. The output loads in chrome://tracing and Perfetto.
func WriteChromeTrace(w io.Writer, runs []TraceRun) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	for pid, run := range runs {
		if err := writeRun(emit, pid, run); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func writeRun(emit func(chromeEvent) error, pid int, run TraceRun) error {
	// Metadata: name the process after the run, the threads after cores.
	meta := func(name string, tid int, label string) error {
		return emit(chromeEvent{
			Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": label},
		})
	}
	if err := meta("process_name", 0, run.Name); err != nil {
		return err
	}
	s := run.Series
	if s != nil && len(s.Samples) > 0 {
		for c := range s.Samples[0].Cores {
			label := fmt.Sprintf("core %d", c)
			if c == run.ServerCore {
				label = fmt.Sprintf("core %d (server)", c)
			}
			if err := meta("thread_name", c, label); err != nil {
				return err
			}
		}
	}

	seen := map[int]bool{}
	for _, sp := range run.Tenants {
		if !seen[sp.Tenant] {
			seen[sp.Tenant] = true
			label := fmt.Sprintf("tenant %d", sp.Tenant)
			if err := meta("thread_name", tenantTidBase+sp.Tenant, label); err != nil {
				return err
			}
		}
	}

	if err := writeCounters(emit, pid, run); err != nil {
		return err
	}
	if err := writeSpans(emit, pid, run); err != nil {
		return err
	}
	if err := writeFailover(emit, pid, run); err != nil {
		return err
	}
	return writeTenantSpans(emit, pid, run)
}

// writeFailover emits each shard re-home transition as a ph "i" instant
// event on the moving client's thread track, so failover and recovery
// line up visually with the latency spans around them.
func writeFailover(emit func(chromeEvent) error, pid int, run TraceRun) error {
	for _, ev := range run.Failover {
		if err := emit(chromeEvent{
			Name: "re-home", Ph: "i",
			Ts: ev.Cycle, Pid: pid, Tid: ev.Thread, Cat: "failover",
			Args: map[string]any{
				"from_shard": ev.From,
				"to_shard":   ev.To,
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeCounters emits per-interval counter deltas as ph "C" events.
func writeCounters(emit func(chromeEvent) error, pid int, run TraceRun) error {
	s := run.Series
	if s == nil {
		return nil
	}
	for i := 1; i < len(s.Samples); i++ {
		smp := s.Samples[i]
		prev := s.Samples[i-1]
		for c := range smp.Cores {
			d := smp.Cores[c].Counters.Sub(prev.Cores[c].Counters)
			if d.Instructions == 0 && d.Loads == 0 && d.Stores == 0 {
				continue // core idle this interval; skip the flat track
			}
			if err := emit(chromeEvent{
				Name: fmt.Sprintf("core%d misses", c), Ph: "C",
				Ts: smp.Cycle, Pid: pid, Tid: c, Cat: "pmu",
				Args: map[string]any{
					"llc_load":   d.LLCLoadMisses,
					"llc_store":  d.LLCStoreMisses,
					"dtlb_load":  d.DTLBLoadMisses,
					"dtlb_store": d.DTLBStoreMisses,
				},
			}); err != nil {
				return err
			}
		}
		if smp.Rings != prev.Rings || smp.Rings != (RingState{}) {
			if err := emit(chromeEvent{
				Name: "rings", Ph: "C",
				Ts: smp.Cycle, Pid: pid, Tid: 0, Cat: "transport",
				Args: map[string]any{
					"malloc_depth": smp.Rings.MallocDepth,
					"free_depth":   smp.Rings.FreeDepth,
				},
			}); err != nil {
				return err
			}
		}
		if smp.Server != (ServerState{}) {
			dBusy := smp.Server.BusyCycles - prev.Server.BusyCycles
			dIdle := smp.Server.IdleCycles - prev.Server.IdleCycles
			if err := emit(chromeEvent{
				Name: "server", Ph: "C",
				Ts: smp.Cycle, Pid: pid, Tid: 0, Cat: "transport",
				Args: map[string]any{
					"busy_cycles": dBusy,
					"idle_cycles": dIdle,
				},
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSpans emits each retained span as a ph "X" complete event on the
// client's thread track, with the queue-wait/service split in args.
func writeSpans(emit func(chromeEvent) error, pid int, run TraceRun) error {
	if run.Latency == nil {
		return nil
	}
	for _, sp := range run.Latency.Spans {
		dur := sp.EndToEnd()
		if dur == 0 {
			dur = 1 // zero-duration X events collapse invisibly in viewers
		}
		if err := emit(chromeEvent{
			Name: sp.Op.String(), Ph: "X",
			Ts: sp.Enqueue, Dur: dur,
			Pid: pid, Tid: sp.Client, Cat: "offload",
			Args: map[string]any{
				"queue_wait": sp.QueueWait(),
				"service":    sp.Service(),
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeTenantSpans emits each retained service request as a ph "X"
// complete event on its tenant's track, queue-wait/service split and
// SLO verdict in args.
func writeTenantSpans(emit func(chromeEvent) error, pid int, run TraceRun) error {
	for _, sp := range run.Tenants {
		dur := sp.Complete - sp.Arrival
		if dur == 0 {
			dur = 1 // zero-duration X events collapse invisibly in viewers
		}
		if err := emit(chromeEvent{
			Name: sp.Class, Ph: "X",
			Ts: sp.Arrival, Dur: dur,
			Pid: pid, Tid: tenantTidBase + sp.Tenant, Cat: "slo",
			Args: map[string]any{
				"queue_wait": sp.Start - sp.Arrival,
				"service":    sp.Complete - sp.Start,
				"violated":   sp.Violated,
			},
		}); err != nil {
			return err
		}
	}
	return nil
}
