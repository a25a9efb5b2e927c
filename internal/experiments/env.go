package experiments

import (
	"flag"
	"fmt"
	"strings"

	"nextgenmalloc/internal/core"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/harness"
	"nextgenmalloc/internal/sim"
	"nextgenmalloc/internal/workload"
)

// Env is one run configuration: the scale the experiments run at and
// the knobs the CLIs' shared run flags set (RunFlags). Every experiment
// takes one; Env{Scale: s} is the flagless configuration.
type Env struct {
	Scale Scale
	// Base is what every run launched through the standard experiment
	// sets starts from: Machine, FaultPlans, Resilience, SLO,
	// SampleInterval and Servers (see Apply). The sweeps that call
	// harness.Run directly read only the knobs their cells do not own.
	// Base.Machine has Quantum 0 unless -quantum was given, so an
	// experiment with its own lease length keeps it (see fleetMachine).
	Base harness.Options
	// Keys are the NextGen kind-spec keys -prealloc, -layout, -sched and
	// -partition give, in that order. runSet folds them all in
	// (harness.WithKeys); AblateTransport and AblateLayout own their
	// prealloc and layout variants, and Apply folds the sched and
	// partition keys onto every offload run.
	Keys string
	// Tenants overrides the SLOSweep's tenant-count axis (0 = default).
	Tenants int
}

// machine returns the simulated machine of one run: sim.ScaledConfig
// under the -warp/-quantum flags.
func (e Env) machine() *sim.Config {
	cfg := sim.ScaledConfig()
	if m := e.Base.Machine; m != nil {
		q := cfg.Quantum
		cfg = *m
		if !e.quantumSet() {
			cfg.Quantum = q
		}
	}
	return &cfg
}

// quantumSet reports whether -quantum was given.
func (e Env) quantumSet() bool { return e.Base.Machine != nil && e.Base.Machine.Quantum != 0 }

// Apply folds the Env into one run's options. A knob opt sets itself
// wins, its spec's own sched or partition key included, except the
// sampling interval, which is always the Env's; the -servers, -sched and
// -partition topology reaches offload kinds only (inline allocators have
// no server to shard or schedule).
func (e Env) Apply(opt harness.Options) harness.Options {
	opt.SampleInterval = e.Base.SampleInterval
	if opt.Machine == nil {
		opt.Machine = e.machine()
	}
	if len(opt.FaultPlans) == 0 {
		opt.FaultPlans = e.Base.FaultPlans
	}
	if opt.Resilience == nil {
		opt.Resilience = e.Base.Resilience
	}
	if opt.SLO == nil {
		opt.SLO = e.Base.SLO
	}
	if harness.OffloadKind(opt.Allocator) {
		if opt.Servers == 0 && e.Base.Servers > 1 {
			opt.Servers = e.Base.Servers
		}
		_, own, _ := strings.Cut(opt.Allocator, ":")
		var keys []string
		for _, kv := range strings.Split(e.Keys, ",") {
			k, _, _ := strings.Cut(kv, "=")
			if (k == "sched" || k == "partition") && !strings.Contains(","+own, ","+k+"=") {
				keys = append(keys, kv)
			}
		}
		opt.Allocator = harness.WithKeys(opt.Allocator, strings.Join(keys, ","))
	}
	return opt
}

// run runs opt under the Env, its result labelled with opt's own
// allocator spec.
func (e Env) run(opt harness.Options) harness.Result {
	r := harness.Run(e.Apply(opt))
	r.Allocator = opt.Allocator
	return r
}

// runSet runs w under each kind with the Env's NextGen keys, reporting
// each result under its kind's own name.
func (e Env) runSet(w func() workload.Workload, kinds []string) []harness.Result {
	return runAll(len(kinds), func(i int) harness.Result {
		r := e.run(harness.Options{Allocator: harness.WithKeys(kinds[i], e.Keys), Workload: w()})
		r.Allocator = kinds[i]
		return r
	})
}

// defaultTimelineInterval is the sampling interval -chrome-trace implies
// when -timeline is not given explicitly.
const defaultTimelineInterval = 50000

// RunFlags registers the run flags ngm-run and ngm-bench share on fs.
// After fs.Parse, the returned function yields the Env they describe
// (Scale and Tenants unset; those flags are each CLI's own) and the
// -chrome-trace path, or the error the CLI reports with exit 2.
func RunFlags(fs *flag.FlagSet) func() (Env, string, error) {
	prealloc := fs.String("prealloc", "", "override the NextGen prealloc policy: off, static, or adaptive (empty = per-kind default)")
	layout := fs.String("layout", "", "override the NextGen metadata layout: segregated, aggregated, or compact (empty = per-kind default)")
	faultSpec := fs.String("fault", "", "inject offload faults: ;-separated plans, each a comma list of shard/seed/stall-len/stall-start/stall-period/drop/corrupt/slow key=value pairs (empty = none)")
	resSpec := fs.String("resilience", "", "offload degradation policy: off, on/default, or a comma list of timeout/retries/backoff/fallback/probe/max-request key=value pairs (empty = kind default)")
	failoverSpec := fs.String("failover", "", "fleet malloc failover: off, on/default, or the consecutive-timeout threshold before a client re-homes (empty = off; needs -servers >= 2)")
	servers := fs.Int("servers", 1, "offload server shard count (offload kinds only; clients are partitioned across shards)")
	schedSpec := fs.String("sched", "", "offload ring service order, the kind-spec key sched: fixed-scan, round-robin, doorbell-priority, or batch-drain (empty = fixed-scan)")
	partSpec := fs.String("partition", "", "fleet shard partition, the kind-spec key partition: client or class (empty = client)")
	sloSpec := fs.String("slo", "", "per-tenant SLO tracking: off, on/default, or a comma list of window/interactive/bulk/spans/target-ppm key=value pairs (empty = off; only the service workload reports tenants)")
	timeline := fs.Uint64("timeline", 0, "sample a cycle-interval timeline every N cycles (0 = off; implied by -chrome-trace)")
	tracePath := fs.String("chrome-trace", "", "write a Chrome trace-event JSON file (chrome://tracing / Perfetto) to this path")
	warp := fs.Bool("warp", true, "skip provably-idle wait windows in the scheduler (bit-identical counters; -warp=false forces fully-stepped execution)")
	quantum := fs.Int64("quantum", 64, "scheduler lease slack in cycles (must be > 0)")

	return func() (Env, string, error) {
		var e Env
		if *quantum <= 0 {
			return Env{}, "", fmt.Errorf("-quantum must be > 0 (got %d)", *quantum)
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if set["warp"] || set["quantum"] {
			m := sim.ScaledConfig()
			m.Warp = *warp
			m.Quantum = 0
			if set["quantum"] {
				m.Quantum = uint64(*quantum)
			}
			e.Base.Machine = &m
		}

		var keys []string
		for _, kv := range [][2]string{{"prealloc", *prealloc}, {"layout", *layout}, {"sched", *schedSpec}, {"partition", *partSpec}} {
			if kv[1] == "" {
				continue
			}
			if strings.Contains(kv[1], ",") {
				return Env{}, "", fmt.Errorf("-%s takes one value, got %q", kv[0], kv[1])
			}
			keys = append(keys, kv[0]+"="+kv[1])
		}
		e.Keys = strings.Join(keys, ",")
		if _, err := core.ParseKind(harness.WithKeys("nextgen", e.Keys)); err != nil {
			return Env{}, "", err
		}

		var err error
		if e.Base.FaultPlans, err = fault.ParsePlans(*faultSpec); err != nil {
			return Env{}, "", err
		}
		res, err := ParseResilience(*resSpec)
		if err != nil {
			return Env{}, "", err
		}
		after, err := ParseFailover(*failoverSpec)
		if err != nil {
			return Env{}, "", err
		}
		e.Base.Resilience = withFailover(res, after)

		if *servers < 0 {
			return Env{}, "", fmt.Errorf("negative server count %d", *servers)
		}
		if after > 0 && *servers < 2 {
			return Env{}, "", fmt.Errorf("-failover re-homes across fleet shards; it needs -servers >= 2 (got %d)", *servers)
		}
		if *partSpec == "class" && *servers < 2 {
			return Env{}, "", fmt.Errorf("partition=class splits clients across fleet shards; it needs -servers >= 2 (got %d)", *servers)
		}
		e.Base.Servers = *servers

		if e.Base.SLO, err = ParseSLO(*sloSpec); err != nil {
			return Env{}, "", err
		}
		// The trace needs a series to emit, so -chrome-trace alone samples
		// at the default interval.
		e.Base.SampleInterval = *timeline
		if e.Base.SampleInterval == 0 && *tracePath != "" {
			e.Base.SampleInterval = defaultTimelineInterval
		}
		return e, *tracePath, nil
	}
}
