// Package harness runs one (machine, allocator, workload) experiment and
// returns the PMU counters the paper's tables report.
//
// Protocol: worker thread 0 constructs the allocator and the workload's
// shared state, publishes a ready flag, and all workers meet at a
// barrier; each worker then snapshots its core's counters, runs its part,
// flushes any buffered allocator work, and snapshots again. Reported
// counters are the deltas, so allocator/workload construction cost is
// excluded, as `perf` region-of-interest measurement would do.
package harness

import (
	"fmt"
	"slices"
	"strings"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/allocators/bump"
	"nextgenmalloc/internal/allocators/jemalloc"
	"nextgenmalloc/internal/allocators/mimalloc"
	"nextgenmalloc/internal/allocators/ptmalloc"
	"nextgenmalloc/internal/allocators/tcmalloc"
	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/ring"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/slo"
	"nextgenmalloc/internal/timeline"
	"nextgenmalloc/internal/workload"
)

// kindRow is one allocator name: a classic constructor, or a NextGen
// kind spec (core.ParseKind), run with the near-memory profile on its
// server cores when nearMem is set.
type kindRow struct {
	name    string
	classic func(*sim.Thread) alloc.Allocator
	spec    string
	nearMem bool
}

// kindTable is the one list of allocator names, in golden-file order.
// The first four are Figure 1's (ClassicKinds).
var kindTable = []kindRow{
	{name: "ptmalloc2", classic: func(t *sim.Thread) alloc.Allocator { return ptmalloc.New(t) }},
	{name: "jemalloc", classic: func(t *sim.Thread) alloc.Allocator { return jemalloc.New(t, 0) }},
	{name: "tcmalloc", classic: func(t *sim.Thread) alloc.Allocator { return tcmalloc.New(t) }},
	{name: "mimalloc", classic: func(t *sim.Thread) alloc.Allocator { return mimalloc.New(t) }},
	{name: "bump", classic: func(t *sim.Thread) alloc.Allocator { return bump.New(t) }},
	{name: "nextgen", spec: "nextgen"},
	{name: "nextgen-prealloc", spec: "nextgen:prealloc=static"},
	{name: "nextgen-sync", spec: "nextgen:free=sync"},
	{name: "nextgen-inline", spec: "nextgen-inline"},
	{name: "nextgen-inline-agg", spec: "nextgen-inline:layout=aggregated"},
	{name: "nextgen-nearmem", spec: "nextgen", nearMem: true},
	{name: "nextgen-adaptive", spec: "nextgen:prealloc=adaptive"},
	{name: "nextgen-compact", spec: "nextgen:layout=compact"},
	{name: "nextgen-inline-compact", spec: "nextgen-inline:layout=compact"},
}

// Kinds lists every allocator name, kindTable's, in golden-file order.
var Kinds = func() (names []string) {
	for _, r := range kindTable {
		names = append(names, r.name)
	}
	return names
}()

// ClassicKinds are the four allocators of Figure 1 / Table 1, in the
// paper's column order.
var ClassicKinds = slices.Clip(Kinds[:4])

// KindHelp spells what Run accepts as an allocator, for CLI help and
// errors.
var KindHelp = strings.Join(Kinds, ", ") + ", or a kind spec " + core.KindSyntax

// parseKind resolves spec, a name in Kinds with optional keys, to its
// kindTable row and NextGen config (zero for a classic row, so
// cfg.Offload tells whether it runs the server): the row's own spec,
// then spec's keys as a second walk, so they override the row's.
func parseKind(spec string) (row kindRow, cfg core.Config, err error) {
	name, keys, keyed := strings.Cut(spec, ":")
	i := slices.IndexFunc(kindTable, func(r kindRow) bool { return r.name == name })
	if i < 0 {
		return row, cfg, fmt.Errorf("harness: unknown allocator %q (want %s)", name, KindHelp)
	}
	if row = kindTable[i]; row.classic != nil {
		if keyed {
			err = fmt.Errorf("harness: allocator %q takes no keys", name)
		}
		return row, cfg, err
	}
	cfg, _ = core.ParseKind(row.spec) // the table's own specs are valid
	if keyed {
		if err = core.ApplyKeys(&cfg, spec, keys); err != nil {
			err = fmt.Errorf("harness: %v", err)
		}
	}
	return row, cfg, err
}

// KindConfig resolves spec to its NextGen config (zero for a classic
// kind, so Offload tells whether it runs the server), or reports why it
// is not an allocator Run can instantiate (CLI flag validation shares
// the harness's own resolution).
func KindConfig(spec string) (core.Config, error) {
	_, cfg, err := parseKind(spec)
	return cfg, err
}

// WithKeys adds kind-spec keys (the -prealloc, -layout, -sched and
// -partition flags) to a NextGen kind, after its own; any other kind
// comes back as is.
func WithKeys(kind, keys string) string {
	row, _, err := parseKind(kind)
	switch {
	case keys == "" || err != nil || row.classic != nil:
		return kind
	case strings.Contains(kind, ":"):
		return kind + "," + keys
	}
	return kind + ":" + keys
}

// Options configures one experiment.
type Options struct {
	// Allocator is one of Kinds, or a NextGen kind followed by spec
	// keys (KindHelp, core.ParseKind). It is the run's whole allocator
	// policy, the server's ring-service order (sched=) and the fleet's
	// partition (partition=) included.
	Allocator string
	// Workload drives the run.
	Workload workload.Workload
	// Machine overrides the default 16-core configuration when non-nil.
	Machine *sim.Config
	// Servers shards the offload allocator across this many server
	// daemons (core.Fleet), each on its own core of the machine's last
	// Servers (workers take the first ones), partitioning clients
	// per the kind spec's partition key. 0 or 1 is the seed
	// single-server topology. Only offload kinds can shard.
	Servers int
	// Wrap, when non-nil, decorates the allocator before use (e.g. a
	// trace recorder). The run's telemetry is read from the allocator
	// the harness built, so a decorator hides none of it.
	Wrap func(alloc.Allocator) alloc.Allocator
	// Prepare, when non-nil, runs on worker 0 after workload setup and
	// before the measurement barrier (e.g. core.Allocator.Preheat).
	Prepare func(t *sim.Thread, a alloc.Allocator)
	// SampleInterval, when > 0, arms a timeline.Sampler snapshotting all
	// cores every SampleInterval cycles (the interval doubles whenever
	// timeline.DefaultCapacity samples fill its buffer) and (for NextGen
	// kinds) a latency recorder capturing per-request offload spans.
	// Both are host-side observation only: counters stay bit-identical
	// to an unsampled run (pinned by TestSamplerZeroTraffic).
	SampleInterval uint64
	// SpanCapacity bounds the latency recorder's raw span buffer
	// (timeline.DefaultSpanCap when 0). Sweeps over big topologies
	// raise it so per-client percentiles keep their tails.
	SpanCapacity int
	// FaultPlans arms deterministic fault injection on offload runs (see
	// internal/fault; fault.ParsePlans reads the CLI spelling), each plan
	// targeting the shard its shard= selector names (or every shard for
	// a broadcast plan); empty or unarmed plans mean a clean run. On a
	// sharded run every targeted shard gets its own injector seeded from
	// the plan seed and the shard index (fault.NewShardInjector), so a
	// plan hits the same shard with the same fault sequence regardless of
	// topology or interleaving; a single-server run keeps the seed
	// injector stream bit for bit. When a plan is armed and Resilience is
	// nil, core.DefaultResilience is applied automatically — doorbell
	// drops and corruption are unsurvivable for the seed blocking
	// protocol, and even a bare stall plan is only worth measuring with
	// the degradation machinery on. Pass an explicit Resilience (possibly
	// zero-valued) to override.
	FaultPlans []fault.Plan
	// Resilience overrides NextGen's graceful-degradation policy. nil
	// keeps the kind's default: disabled, unless an armed FaultPlans entry
	// forces the default policy on (see above). Ignored for non-NextGen
	// allocators.
	Resilience *core.Resilience
	// SLO, when non-nil, arms a per-tenant SLO tracker handed to the
	// workload (via slo.Observable) before Setup. Host-side observation
	// only: an armed run's counters stay bit-identical to an unarmed one
	// (pinned by TestSLOZeroTraffic). Workloads that don't implement
	// slo.Observable leave the tracker empty.
	SLO *slo.Options
}

// Result carries everything a table needs.
type Result struct {
	Allocator string
	Workload  string
	// PerThread holds each worker core's counter delta over the measured
	// region.
	PerThread []sim.Counters
	// Total is the sum of the worker deltas (how the paper's per-process
	// perf totals aggregate across cores).
	Total sim.Counters
	// Server is the dedicated allocator core's delta (offload modes).
	Server sim.Counters
	// WallCycles is the longest worker delta.
	WallCycles uint64
	// AllocStats is the allocator's own view after the run.
	AllocStats alloc.Stats
	// Kernel is the simulated kernel's syscall accounting.
	Kernel mem.KernelStats
	// Served counts offload-server ring operations (0 otherwise).
	Served uint64
	// Classes attributes the worker cores' traffic and misses to address
	// classes (user data, allocator metadata, ring transport, workload
	// globals), summed over the measured region of every worker.
	Classes sim.ClassBreakdown
	// ServerClasses is the dedicated allocator core's attribution delta
	// (offload modes only).
	ServerClasses sim.ClassBreakdown
	// Offload carries ring/server telemetry; nil for non-offload runs.
	// With Servers > 1 it is the fleet-wide aggregate.
	Offload *OffloadTelemetry
	// Servers carries one entry per server daemon (len 1 for the seed
	// single-server topology, empty for non-offload runs): the shard's
	// core, busy/idle split, ring stats, served/NACK counts, and the
	// per-client service-fairness ledger.
	Servers []ServerTelemetry
	// ClientShards maps each application thread to its home shard (the
	// fleet's first-touch assignment, where its allocations were
	// served; shard 0 for every client of a single server); nil unless
	// the run had a server daemon.
	ClientShards map[int]int
	// Timeline is the sampled counter series; nil unless
	// Options.SampleInterval armed the sampler.
	Timeline *timeline.Series
	// Latency holds per-request offload spans and latency histograms;
	// nil unless sampling was armed. It records zero spans for
	// non-offload allocators (check Latency.HasSpans()).
	Latency *timeline.LatencyRecorder
	// ServerCore is the dedicated allocator core's index, or -1 when the
	// run had no server daemon.
	ServerCore int
	// Layout names the NextGen metadata layout the run used
	// (segregated/aggregated/compact); empty for non-NextGen allocators.
	Layout string
	// MetaRecordBytes is the slab-record stride of that layout (0 for
	// non-NextGen allocators).
	MetaRecordBytes int
	// Resilience carries the degradation/fault telemetry; nil unless the
	// run armed Options.FaultPlans or a resilience policy.
	Resilience *ResilienceTelemetry
	// Failover carries the fleet failover telemetry: per-client routing
	// ledgers, the re-home transition log, and fleet totals. nil unless
	// failover was armed (Servers > 1, resilience on, FailoverAfter > 0).
	Failover *FailoverTelemetry
	// Warp is the scheduler's time-warp ledger: how many steady wait
	// windows were skipped instead of stepped. Host-side observation
	// only — every other field of Result is bit-identical whether warp
	// was on or off (pinned by TestWarpEquivalence).
	Warp sim.WarpStats
	// SLO is the per-tenant SLO tracker; nil unless Options.SLO armed
	// it. Empty (SLO.HasData() == false) when the workload doesn't feed
	// one.
	SLO *slo.Tracker
}

// ResilienceTelemetry pairs the client-side degradation counters with
// what the fault injector actually did to the run.
type ResilienceTelemetry struct {
	// Client merges every offload client's degradation counters
	// (timeouts, retries, NACKs, fallback transitions, emergency ops).
	Client core.ResilienceStats
	// Injected is the fault injector's own ledger (zero-valued when a
	// resilience policy ran without a fault plan).
	Injected fault.Stats
}

// Add accumulates o into tel, covering every field (kept exhaustive by
// the reflection test in telemetry_test.go).
func (tel *ResilienceTelemetry) Add(o ResilienceTelemetry) {
	tel.Client.Add(o.Client)
	tel.Injected.Add(o.Injected)
}

// FailoverTelemetry is the fleet failover machinery's view of a run:
// who re-homed where, when, and how much traffic travelled away from
// home. Present (possibly all-zero) on every failover-armed run.
type FailoverTelemetry struct {
	// Clients holds one routing ledger per application thread, in
	// first-touch order.
	Clients []core.ClientFailover
	// Events is the re-home transition log (bounded; overflow is counted
	// in Totals.DroppedEvents), feeding the Chrome trace.
	Events []timeline.FailoverEvent
	// Totals aggregates the per-client ledgers.
	Totals core.FailoverStats
}

// ServerTelemetry is one server daemon's slice of a (possibly sharded)
// offload run: which core it occupied, how its loop time split, what
// its clients' rings carried, and how fairly it served each client.
type ServerTelemetry struct {
	// Core is the simulated core the daemon was pinned to.
	Core int
	// BusyCycles / IdleCycles partition the daemon's loop time.
	BusyCycles uint64
	IdleCycles uint64
	// EmptyPolls / EmptyPollCycles count poll passes that found no work
	// and what they cost.
	EmptyPolls      uint64
	EmptyPollCycles uint64
	// Served counts ring operations this shard completed; Nacks counts
	// requests it rejected (resilience validation).
	Served uint64
	Nacks  uint64
	// MallocRing / FreeRing merge this shard's per-client ring stats.
	MallocRing ring.Stats
	FreeRing   ring.Stats
	// Clients is the shard's per-client service ledger (served ops and
	// the widest completion gap — the starvation metric).
	Clients []core.ClientService
	// Injected is this shard's own fault-injection ledger (zero-valued
	// for a clean shard), so a targeted plan's telemetry shows which
	// shard got hit instead of one fleet-wide aggregate.
	Injected fault.Stats
}

// OffloadTelemetry is the transport-level view of an offload run: what
// the rings and the dedicated core were doing while the workers ran.
type OffloadTelemetry struct {
	// MallocRing / FreeRing merge the per-client SPSC ring stats.
	MallocRing ring.Stats
	FreeRing   ring.Stats
	// ServerBusyCycles / ServerIdleCycles partition the server daemon's
	// loop time into servicing work vs empty polls and stash top-ups.
	ServerBusyCycles uint64
	ServerIdleCycles uint64
	// ServerEmptyPolls counts poll passes that found no ring work;
	// ServerEmptyPollCycles is what those passes cost in ring scanning
	// (a subset of ServerIdleCycles).
	ServerEmptyPolls      uint64
	ServerEmptyPollCycles uint64
}

// Add accumulates o into tel, covering every telemetry field (used when
// merging the offload view of multiple runs; kept exhaustive by the
// reflection test in telemetry_test.go).
func (tel *OffloadTelemetry) Add(o OffloadTelemetry) {
	tel.MallocRing.Add(o.MallocRing)
	tel.FreeRing.Add(o.FreeRing)
	tel.ServerBusyCycles += o.ServerBusyCycles
	tel.ServerIdleCycles += o.ServerIdleCycles
	tel.ServerEmptyPolls += o.ServerEmptyPolls
	tel.ServerEmptyPollCycles += o.ServerEmptyPollCycles
}

// TraceRun packages the run as one Chrome-trace process named name: its
// sampled counter series, offload spans, tenant request spans and
// failover transitions.
func (r Result) TraceRun(name string) timeline.TraceRun {
	tr := timeline.TraceRun{
		Name:       name,
		Series:     r.Timeline,
		Latency:    r.Latency,
		ServerCore: r.ServerCore,
		Tenants:    r.SLO.TraceSpans(),
	}
	if r.Failover != nil {
		tr.Failover = r.Failover.Events
	}
	return tr
}

// MetaShare returns the metadata class's share of LLC misses and of
// dTLB misses across the worker cores (the paper's Table 1 ratio).
func (r Result) MetaShare() (llc, dtlb float64) {
	var llcTot, llcMeta, tlbTot, tlbMeta uint64
	for cls, c := range r.Classes {
		llcTot += c.LLCLoadMisses + c.LLCStoreMisses
		tlbTot += c.DTLBLoadMisses + c.DTLBStoreMisses
		if region.Class(cls) == region.Meta {
			llcMeta = c.LLCLoadMisses + c.LLCStoreMisses
			tlbMeta = c.DTLBLoadMisses + c.DTLBStoreMisses
		}
	}
	if llcTot > 0 {
		llc = float64(llcMeta) / float64(llcTot)
	}
	if tlbTot > 0 {
		dtlb = float64(tlbMeta) / float64(tlbTot)
	}
	return llc, dtlb
}

// MPKI returns (llcLoad, llcStore, dtlbLoad, dtlbStore) misses per
// kilo-instruction for the total counters.
func (r Result) MPKI() (llcLoad, llcStore, dtlbLoad, dtlbStore float64) {
	ins := r.Total.Instructions
	return sim.MPKI(r.Total.LLCLoadMisses, ins),
		sim.MPKI(r.Total.LLCStoreMisses, ins),
		sim.MPKI(r.Total.DTLBLoadMisses, ins),
		sim.MPKI(r.Total.DTLBStoreMisses, ins)
}

// OffloadKind reports whether spec runs the offload transport — the
// kinds a fault plan can target (CLI validation shares this check).
func OffloadKind(spec string) bool {
	_, cfg, err := parseKind(spec)
	return err == nil && cfg.Offload
}

// CheckLiveness verifies the offload accounting invariant on a finished
// run: every pushed request was popped (nothing stranded in a ring at
// shutdown), and every popped request was either served or NACKed.
// nil Offload (non-offload run) trivially passes.
func (r Result) CheckLiveness() error {
	if r.Offload == nil {
		return nil
	}
	pushes := r.Offload.MallocRing.Pushes + r.Offload.FreeRing.Pushes
	pops := r.Offload.MallocRing.Pops + r.Offload.FreeRing.Pops
	if pushes != pops {
		return fmt.Errorf("liveness: %d requests pushed but %d popped (%d lost in the rings)",
			pushes, pops, pushes-pops)
	}
	var nacks uint64
	if r.Resilience != nil {
		nacks = r.Resilience.Client.MallocNacks + r.Resilience.Client.FreeNacks
	}
	if r.Served+nacks != pops {
		return fmt.Errorf("liveness: %d popped but only %d served + %d nacked",
			pops, r.Served, nacks)
	}
	// Per-server invariants: the fleet aggregate can mask a shard that
	// lost requests against another that double-counted, so each daemon
	// must balance on its own.
	for i, s := range r.Servers {
		pushes := s.MallocRing.Pushes + s.FreeRing.Pushes
		pops := s.MallocRing.Pops + s.FreeRing.Pops
		if pushes != pops {
			return fmt.Errorf("liveness: server %d (core %d): %d requests pushed but %d popped",
				i, s.Core, pushes, pops)
		}
		if s.Served+s.Nacks != pops {
			return fmt.Errorf("liveness: server %d (core %d): %d popped but only %d served + %d nacked",
				i, s.Core, pops, s.Served, s.Nacks)
		}
	}
	return nil
}

// Run executes the experiment, panicking on an invalid topology (the
// seed behaviour; RunE reports the same conditions as errors).
func Run(opt Options) Result {
	res, err := RunE(opt)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// Check reports the error RunE would return for opt without running
// anything.
func Check(opt Options) error {
	_, err := resolve(opt)
	return err
}

// topology is what RunE resolves from Options before it builds a
// machine. injs holds one fault injector per server daemon (nil entry =
// clean shard), or is nil when no armed plan reaches a server.
type topology struct {
	row              kindRow
	cfg              core.Config
	mcfg             sim.Config
	serverCore, nsrv int
	injs             []*fault.Injector
}

func resolve(opt Options) (topology, error) {
	row, cfg, err := parseKind(opt.Allocator)
	if err != nil {
		return topology{}, err
	}
	n := opt.Workload.Threads()
	if n <= 0 {
		return topology{}, fmt.Errorf("harness: workload declares no threads")
	}
	servers := opt.Servers
	if servers == 0 {
		servers = 1
	}
	if servers < 0 {
		return topology{}, fmt.Errorf("harness: negative server count %d", opt.Servers)
	}
	if servers > 1 && !cfg.Offload {
		return topology{}, fmt.Errorf("harness: allocator %q has no offload server to shard across %d cores", opt.Allocator, servers)
	}

	mcfg := sim.ScaledConfig()
	if opt.Machine != nil {
		mcfg = *opt.Machine
	}
	serverCore := mcfg.Cores - servers // the first of the last Servers cores
	if serverCore < 0 {
		return topology{}, fmt.Errorf("harness: %d servers do not fit in %d cores", servers, mcfg.Cores)
	}
	// nsrv is how many cores the fleet reserves; workers are placed
	// around them.
	nsrv := 0
	if cfg.Offload {
		nsrv = servers
	}
	avail := mcfg.Cores - nsrv
	if n > avail {
		return topology{}, fmt.Errorf("harness: %d workers collide with server core %d (%d cores)", n, serverCore, mcfg.Cores)
	}

	// Deterministic fault injection (offload runs only; a plan against an
	// inline allocator has no transport to break). Each targeted shard
	// gets its own injector, seeded from the plan and the shard index
	// (fault.NewShardInjector), so shard i's fault sequence never depends
	// on what the other shards are doing; shard 0 keeps the plan's own
	// stream, so single-server fault runs stay byte-identical.
	var injs []*fault.Injector
	for _, p := range opt.FaultPlans {
		if nsrv == 0 || !p.Armed() {
			continue
		}
		if p.Shard > 0 && p.Shard-1 >= nsrv {
			return topology{}, fmt.Errorf("harness: fault plan targets shard %d but the run has %d server(s)", p.Shard-1, nsrv)
		}
		if injs == nil {
			injs = make([]*fault.Injector, nsrv)
		}
		for i := range injs {
			if !p.TargetsShard(i) {
				continue
			}
			if injs[i] != nil {
				return topology{}, fmt.Errorf("harness: two fault plans target shard %d", i)
			}
			injs[i] = fault.NewShardInjector(p, i)
		}
	}
	return topology{row, cfg, mcfg, serverCore, nsrv, injs}, nil
}

// RunE executes the experiment, returning an error for an invalid
// topology (unknown allocator or malformed kind spec, zero-thread
// workload, more servers than cores, worker/server collision, bad
// shard count, a fault plan for a shard the run lacks) instead of
// panicking — CLIs print the message and exit instead of dumping a
// goroutine trace.
func RunE(opt Options) (Result, error) {
	top, err := resolve(opt)
	if err != nil {
		return Result{}, err
	}
	row, cfg, mcfg, serverCore, nsrv, injs := top.row, top.cfg, top.mcfg, top.serverCore, top.nsrv, top.injs
	w := opt.Workload
	n := w.Threads()
	if row.nearMem {
		if mcfg.CoreOverrides == nil {
			mcfg.CoreOverrides = map[int]sim.CoreProfile{}
		}
		for i := 0; i < nsrv; i++ {
			mcfg.CoreOverrides[serverCore+i] = sim.NearMemoryProfile()
		}
	}

	m := sim.New(mcfg)
	// The "loader" maps the control page before the program starts. Its
	// barrier/flag traffic is harness overhead, not allocator or user
	// data, so it is attributed to the workload-global class.
	ctrl, _ := m.Kernel().Mmap(1)
	m.Regions().Mark(ctrl, int(mem.PageSize), region.Global)

	var srvs []*core.Server
	for i := 0; i < nsrv; i++ {
		srv := core.NewServer()
		name := "ngm-server"
		if i > 0 {
			name = fmt.Sprintf("ngm-server-%d", i)
		}
		m.SpawnDaemon(name, serverCore+i, srv.Run)
		srvs = append(srvs, srv)
	}

	for _, in := range injs {
		if in != nil {
			in.Attach(m)
		}
	}
	faultsArmed := injs != nil

	// Per-tenant SLO observation (host-side only). The tracker — or nil,
	// detaching any tracker left by a previous run of the same workload
	// instance — is handed over before Setup.
	var sloTracker *slo.Tracker
	if opt.SLO != nil {
		sloTracker = slo.NewTracker(*opt.SLO)
	}
	if obs, ok := w.(slo.Observable); ok {
		obs.AttachSLO(sloTracker)
	}

	res := Result{
		Allocator:  opt.Allocator,
		Workload:   w.Name(),
		PerThread:  make([]sim.Counters, n),
		ServerCore: -1,
	}
	if row.classic == nil {
		res.Layout = cfg.Layout.String()
		res.MetaRecordBytes = cfg.Layout.RecordBytes()
	}
	if len(srvs) > 0 {
		res.ServerCore = serverCore
	}
	// a is what the workload sees; shards and fleet are what
	// makeAllocator built, the only source of the run's telemetry.
	var a alloc.Allocator
	var shards []*core.Allocator
	var fleet *core.Fleet
	serverStarts := make([]sim.Counters, len(srvs))
	serverStartCs := make([]sim.ClassBreakdown, len(srvs))
	perThreadC := make([]sim.ClassBreakdown, n)

	// Time-resolved telemetry (observation-only; see Options).
	var sampler *timeline.Sampler
	var latRec *timeline.LatencyRecorder
	if opt.SampleInterval > 0 {
		sampler = timeline.NewSampler(opt.SampleInterval, timeline.DefaultCapacity)
		sampler.Attach(m)
		latRec = timeline.NewLatencyRecorder(opt.SpanCapacity)
		sampler.ProbeRings(func() timeline.RingState {
			var st timeline.RingState
			for _, ng := range shards {
				md, fd := ng.RingDepths()
				st.MallocDepth += md
				st.FreeDepth += fd
			}
			return st
		})
		if len(srvs) > 0 {
			sampler.ProbeServer(func() timeline.ServerState {
				// An idle round updates these counters mid-round:
				// settle parked servers to their stepped positions.
				m.Settle()
				var st timeline.ServerState
				for _, srv := range srvs {
					busy, idle := srv.Telemetry()
					polls, pollCy := srv.PollStats()
					st.BusyCycles += busy
					st.IdleCycles += idle
					st.EmptyPolls += polls
					st.EmptyPollCycles += pollCy
				}
				return st
			})
		}
	}

	for i := 0; i < n; i++ {
		part := i
		m.Spawn(fmt.Sprintf("%s-worker-%d", w.Name(), part), part, func(t *sim.Thread) {
			if part == 0 {
				a, shards, fleet = makeAllocator(t, opt, row, cfg, srvs, latRec, injs)
				if opt.Wrap != nil {
					a = opt.Wrap(a)
				}
				w.Setup(t, a)
				if opt.Prepare != nil {
					opt.Prepare(t, a)
				}
				t.AtomicStore64(ctrl, 1)
			} else {
				// Wait for worker 0 to construct the allocator; declared
				// to the time warp (one flag load per round).
				t.WarpLoop(sim.WaitSpec{
					Round: func() bool {
						if t.Load64(ctrl) != 0 {
							return true
						}
						t.Pause(100)
						return false
					},
				})
			}
			// Barrier: everyone measures from a common point.
			t.FetchAdd64(ctrl+64, 1)
			t.WarpLoop(sim.WaitSpec{
				Round: func() bool {
					if t.Load64(ctrl+64) == uint64(n) {
						return true
					}
					t.Pause(50)
					return false
				},
			})
			if part == 0 {
				for i := range srvs {
					serverStarts[i] = t.Machine().CoreCounters(serverCore + i)
					serverStartCs[i] = t.Machine().CoreClassCounters(serverCore + i)
				}
			}
			start := t.Counters()
			startC := t.ClassCounters()
			w.Run(t, part, a)
			if f, ok := a.(alloc.Flusher); ok {
				f.Flush(t)
			}
			res.PerThread[part] = t.Counters().Sub(start)
			perThreadC[part] = t.ClassCounters().Sub(startC)
		})
	}
	m.Run()

	for _, d := range res.PerThread {
		res.Total.Add(d)
		if d.Cycles > res.WallCycles {
			res.WallCycles = d.Cycles
		}
	}
	for _, d := range perThreadC {
		res.Classes.Add(d)
	}
	for i := range srvs {
		res.Server.Add(m.CoreCounters(serverCore + i).Sub(serverStarts[i]))
		res.ServerClasses.Add(m.CoreClassCounters(serverCore + i).Sub(serverStartCs[i]))
	}
	res.AllocStats = a.Stats()
	res.Kernel = m.Kernel().Stats()
	if fleet != nil {
		res.ClientShards = fleet.ClientShards()
		if cl, ev, tot, armed := fleet.FailoverTelemetry(); armed {
			res.Failover = &FailoverTelemetry{Clients: cl, Events: ev, Totals: tot}
		}
	}
	if len(shards) > 0 {
		for _, ng := range shards {
			res.Served += ng.Served()
		}
		resilient := shards[0].ResilienceEnabled()
		if len(srvs) > 0 {
			tel := &OffloadTelemetry{}
			for i, srv := range srvs {
				ng := shards[i]
				st := ServerTelemetry{Core: serverCore + i, Served: ng.Served()}
				st.BusyCycles, st.IdleCycles = srv.Telemetry()
				st.EmptyPolls, st.EmptyPollCycles = srv.PollStats()
				st.MallocRing, st.FreeRing = ng.RingTelemetry()
				st.Clients = ng.ClientServices()
				if resilient || faultsArmed {
					cs := ng.ResilienceTelemetry()
					st.Nacks = cs.MallocNacks + cs.FreeNacks
				}
				if injs != nil && injs[i] != nil {
					st.Injected = injs[i].Stats()
				}
				res.Servers = append(res.Servers, st)

				tel.MallocRing.Add(st.MallocRing)
				tel.FreeRing.Add(st.FreeRing)
				tel.ServerBusyCycles += st.BusyCycles
				tel.ServerIdleCycles += st.IdleCycles
				tel.ServerEmptyPolls += st.EmptyPolls
				tel.ServerEmptyPollCycles += st.EmptyPollCycles
			}
			res.Offload = tel
			if fleet == nil {
				res.ClientShards = map[int]int{}
				for _, c := range res.Servers[0].Clients {
					res.ClientShards[c.ThreadID] = 0
				}
			}
		}
		if resilient || faultsArmed {
			rt := &ResilienceTelemetry{}
			for _, ng := range shards {
				rt.Client.Add(ng.ResilienceTelemetry())
			}
			for _, in := range injs {
				if in != nil {
					rt.Injected.Add(in.Stats())
				}
			}
			res.Resilience = rt
		}
	}
	if sampler != nil {
		sampler.Finish()
		res.Timeline = sampler.Series()
		res.Latency = latRec
	}
	res.SLO = sloTracker
	res.Warp = m.WarpStats()
	return res, nil
}

// TenantShardRollup joins the SLO tracker's per-thread tenant ledger
// with each thread's home shard (ClientShards), returning per-shard
// tenant->completed-request maps. Empty when the run had no tracker or
// no server telemetry.
func (r Result) TenantShardRollup() []map[int]uint64 {
	if r.SLO == nil || len(r.Servers) == 0 {
		return nil
	}
	// Each thread's home shard served its allocations, so the rollup
	// partitions the completed requests.
	shards := make([][]int, len(r.Servers))
	for th, i := range r.ClientShards {
		if i >= 0 && i < len(shards) {
			shards[i] = append(shards[i], th)
		}
	}
	return r.SLO.Rollup(shards)
}

// makeAllocator instantiates the resolved kind (row, cfg; see
// parseKind) on thread t, attaching offload shards to the
// already-spawned server daemons. injs holds one fault injector per
// daemon (nil entries = clean shard), or nil when no plan is armed. It
// hands back what it built: the allocator, every NextGen allocator in
// it (shard i attached to daemon i; none for a classic kind) and the
// Fleet when it sharded.
func makeAllocator(t *sim.Thread, opt Options, row kindRow, cfg core.Config, srvs []*core.Server, latRec *timeline.LatencyRecorder, injs []*fault.Injector) (alloc.Allocator, []*core.Allocator, *core.Fleet) {
	if row.classic != nil {
		return row.classic(t), nil, nil
	}
	cfg.Latency = latRec
	if opt.Resilience != nil {
		cfg.Resilience = *opt.Resilience
	} else if injs != nil {
		cfg.Resilience = core.DefaultResilience()
	}
	if len(srvs) > 1 {
		// Each shard is built with its own injector; the shared cfg
		// stays clean so untargeted shards run the seed server loop.
		f := core.NewFleet(t, cfg, len(srvs), injs)
		for i, sh := range f.Shards() {
			srvs[i].Attach(sh)
		}
		return f, f.Shards(), f
	}
	if len(injs) > 0 {
		cfg.Faults = injs[0]
	}
	a := core.New(t, cfg)
	if len(srvs) > 0 {
		srvs[0].Attach(a)
	}
	return a, []*core.Allocator{a}, nil
}
