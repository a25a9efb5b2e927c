// Package fault is the deterministic fault injector for the offload
// path. A Plan describes what can go wrong on a run — the dedicated
// allocator core stalls (stolen by the hypervisor, preempted, thermally
// throttled), doorbell publications are lost, ring-slot words suffer
// bit flips, the server core runs slower than provisioned — and an
// Injector turns the plan into concrete, seeded decisions the transport
// and server consult at well-defined points.
//
// Everything derives from the plan's seed through one xorshift64* PRNG
// consulted in simulation order, so a faulty run is exactly as
// bit-reproducible as a clean one: same plan, same machine, same
// counters. With a zero (unarmed) plan no decision point fires and the
// simulated instruction stream is byte-identical to a build without the
// injector, which is what keeps the golden-counter suite pinned.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"nextgenmalloc/internal/sim"
)

// Plan describes the faults to inject into one run. The zero value is
// unarmed: no decision point ever fires.
type Plan struct {
	// Seed drives every randomized decision (doorbell drops, corrupt-bit
	// selection). Zero is treated as 1 so an armed plan is never
	// accidentally degenerate.
	Seed uint64

	// StallCycles > 0 opens server-core stall windows of this length:
	// within a window the server leases cycles but refuses to serve
	// (the "room" was taken away — §3.2's dedicated core is not ours).
	StallCycles uint64
	// StallStart is the wall cycle the first window opens.
	StallStart uint64
	// StallPeriod is the distance between window starts; 0 means a
	// single one-shot window. Must exceed StallCycles when set, so the
	// server gets air between windows.
	StallPeriod uint64

	// DropEveryN > 0 loses one in N doorbell (ring tail) publications:
	// the slots are written but the consumer keeps seeing the stale
	// tail until a later publication or an explicit re-ring delivers it.
	DropEveryN uint64

	// CorruptEveryN > 0 flips one seeded bit in one in N popped
	// ring-slot word pairs, modelling transport corruption the server
	// must survive (and, with resilience armed, NACK).
	CorruptEveryN uint64

	// SlowFactor > 1 makes the server core serve that many times
	// slower: each served request is followed by (factor-1)x its
	// service time of injected pause.
	SlowFactor uint64

	// Shard selects which fleet shard the plan targets, +1 encoded so
	// the zero value keeps its pre-fleet meaning: 0 broadcasts to every
	// shard (and to the lone server of a non-fleet run), N > 0 targets
	// shard N-1 only. ParsePlan's "shard=n" key maps to Shard = n+1.
	Shard int
}

// TargetsShard reports whether the plan applies to fleet shard i.
func (p Plan) TargetsShard(i int) bool {
	return p.Shard == 0 || p.Shard == i+1
}

// Armed reports whether the plan injects anything at all.
func (p Plan) Armed() bool {
	return p.StallCycles > 0 || p.DropEveryN > 0 || p.CorruptEveryN > 0 || p.SlowFactor > 1
}

// String renders the plan in ParsePlan's spec syntax.
func (p Plan) String() string {
	var parts []string
	add := func(k string, v uint64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
	}
	if p.Shard > 0 {
		parts = append(parts, fmt.Sprintf("shard=%d", p.Shard-1))
	}
	add("seed", p.Seed)
	add("stall-start", p.StallStart)
	add("stall-len", p.StallCycles)
	add("stall-period", p.StallPeriod)
	add("drop", p.DropEveryN)
	add("corrupt", p.CorruptEveryN)
	if p.SlowFactor > 1 {
		add("slow", p.SlowFactor)
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated key=value spec, e.g.
//
//	stall-start=100000,stall-len=50000,stall-period=400000,drop=64
//
// Keys: seed, stall-start, stall-len (window length in cycles),
// stall-period (0/absent = one-shot), drop (1-in-N doorbell loss),
// corrupt (1-in-N word bit flips), slow (server slow-down factor),
// shard (the single fleet shard the plan targets; absent = every
// shard). A duplicate key is an error, not a silent last-win; slow=1
// (serve at ×1 speed) injects nothing and is rejected like drop=0
// would be. An empty spec returns (nil, nil); the spec "none" does too.
func ParsePlan(spec string) (*Plan, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	p := &Plan{}
	err := ParseKV("fault", spec, func(k string, n uint64) error {
		switch k {
		case "seed":
			p.Seed = n
		case "stall-start":
			p.StallStart = n
		case "stall-len":
			p.StallCycles = n
		case "stall-period":
			p.StallPeriod = n
		case "drop":
			p.DropEveryN = n
		case "corrupt":
			p.CorruptEveryN = n
		case "slow":
			if n == 1 {
				n = 0 // ×1 = full speed: treat as unarmed, like drop=0
			}
			p.SlowFactor = n
		case "shard":
			if n > 1<<20 {
				return fmt.Errorf("fault: implausible shard index %d", n)
			}
			p.Shard = int(n) + 1
		default:
			return fmt.Errorf("fault: unknown key %q (want seed, stall-start, stall-len, stall-period, drop, corrupt, slow, shard)", k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.StallPeriod > 0 && p.StallPeriod <= p.StallCycles {
		return nil, fmt.Errorf("fault: stall-period %d must exceed stall-len %d", p.StallPeriod, p.StallCycles)
	}
	if (p.StallStart > 0 || p.StallPeriod > 0) && p.StallCycles == 0 {
		return nil, fmt.Errorf("fault: stall-start/stall-period without stall-len")
	}
	if !p.Armed() {
		return nil, fmt.Errorf("fault: plan %q injects nothing", spec)
	}
	return p, nil
}

// ParsePlans parses a multi-plan spec: ";"-separated ParsePlan specs,
// each optionally carrying its own shard selector, e.g.
//
//	shard=2,stall-start=50000,stall-len=60000;shard=3,drop=64
//
// An empty spec or "none" returns (nil, nil). Two plans may not target
// the same shard (including two broadcast plans): each shard's injector
// evaluates exactly one plan.
func ParsePlans(spec string) ([]Plan, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	var plans []Plan
	seen := map[int]bool{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("fault: empty plan in multi-plan spec %q", spec)
		}
		p, err := ParsePlan(part)
		if err != nil {
			return nil, err
		}
		if seen[p.Shard] {
			if p.Shard == 0 {
				return nil, fmt.Errorf("fault: two broadcast plans in %q (give each a shard=)", spec)
			}
			return nil, fmt.Errorf("fault: two plans target shard %d in %q", p.Shard-1, spec)
		}
		seen[p.Shard] = true
		plans = append(plans, *p)
	}
	if len(plans) > 1 && seen[0] {
		return nil, fmt.Errorf("fault: broadcast plan mixed with shard-targeted plans in %q", spec)
	}
	return plans, nil
}

// WalkKV walks a comma-separated key=value spec, calling set with each
// trimmed key and value in order. A pair without "=" and a repeated key
// are errors prefixed with prefix; an error from set is returned as is.
// It is the one key=value parser: ParseKV and allocator kind specs
// (core.ParseKind) read through it.
func WalkKV(prefix, spec string, set func(key, value string) error) error {
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", prefix, kv)
		}
		k = strings.TrimSpace(k)
		if seen[k] {
			return fmt.Errorf("%s: duplicate key %q in %q", prefix, k, spec)
		}
		seen[k] = true
		if err := set(k, strings.TrimSpace(v)); err != nil {
			return err
		}
	}
	return nil
}

// ParseKV is WalkKV over unsigned integers, as the -fault, -resilience
// and -slo flags spell them.
func ParseKV(prefix, spec string, set func(key string, n uint64) error) error {
	return WalkKV(prefix, spec, func(k, v string) error {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%s: bad value in %q: %v", prefix, k+"="+v, err)
		}
		return set(k, n)
	})
}

// Stats counts what the injector actually did (host-side telemetry).
type Stats struct {
	// Stalls counts stall windows the server observed; StallCycles is
	// the pause time injected inside them.
	Stalls      uint64
	StallCycles uint64
	// DoorbellDrops counts suppressed tail publications.
	DoorbellDrops uint64
	// CorruptWords counts word pairs that had a bit flipped.
	CorruptWords uint64
	// SlowdownCycles is the extra service pause injected by SlowFactor.
	SlowdownCycles uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Stalls += o.Stalls
	s.StallCycles += o.StallCycles
	s.DoorbellDrops += o.DoorbellDrops
	s.CorruptWords += o.CorruptWords
	s.SlowdownCycles += o.SlowdownCycles
}

// stallChunk bounds a single injected pause so the stalled server still
// polls Stopping between chunks — a stall window must not turn shutdown
// into a hang.
const stallChunk = 2048

// Injector evaluates one Plan over one run. It is consulted from
// simulated-thread context (one thread runs at a time), so its host
// state needs no synchronization. A nil *Injector is the unarmed plan:
// every method is safe on it and injects nothing, so a consumer holds
// one pointer instead of guarding each decision point.
type Injector struct {
	plan Plan
	rng  uint64
	// wall is the scheduler's wall clock, observed through the machine
	// probe; stall windows are defined in wall time because the fault
	// they model (core theft) is external to the simulated program.
	wall    uint64
	inStall bool
	stats   Stats
}

// NewInjector builds an injector for plan: shard 0's, the plan's own
// stream.
func NewInjector(p Plan) *Injector { return NewShardInjector(p, 0) }

// NewShardInjector builds fleet shard i's injector: the plan evaluated
// under a shard-decorrelated seed (effective seed ⊕ shard<<32); shard 0
// keeps the plan's own stream, so a single server draws it. Stall windows consume no randomness — they are pure
// functions of the wall clock — so a targeted stall covers the same
// cycles on the same shard under any topology or interleaving; drops
// and corruption draw from the shard's own stream, independent of
// every other shard's.
func NewShardInjector(p Plan, shard int) *Injector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	seed ^= uint64(shard) << 32
	return &Injector{plan: p, rng: seed}
}

// Plan returns the injector's plan (the zero Plan for nil).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Stats returns what has been injected so far (zero for nil).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Attach wires the injector into the machine's scheduler hook so it
// tracks the wall clock (chained with any other probe via AddProbe). A
// nil injector attaches nothing.
func (in *Injector) Attach(m *sim.Machine) {
	if in != nil {
		m.AddProbe(in.observe)
	}
}

func (in *Injector) observe(wall uint64) {
	in.wall = wall
}

// rnd is xorshift64*: cheap, full-period, and plenty for picking drop
// victims and corrupt bits.
func (in *Injector) rnd() uint64 {
	x := in.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	in.rng = x
	return x * 0x2545F4914F6CDD1D
}

// oneIn fires once per n consultations on average (false when n is 0).
func (in *Injector) oneIn(n uint64) bool {
	if n == 0 {
		return false
	}
	return in.rnd()%n == 0
}

// StallPause reports how many cycles the server core must pause right
// now to honour the plan's stall windows, given its own clock. It
// returns 0 outside a window. Pauses are chunked (stallChunk) so the
// caller keeps polling Stopping; call again after pausing to learn
// whether the window persists.
func (in *Injector) StallPause(now uint64) uint64 {
	p := in.Plan()
	if p.StallCycles == 0 {
		return 0
	}
	// Judge the window against the latest clock we know of: the server's
	// own clock or the machine wall clock, whichever ran ahead.
	if in.wall > now {
		now = in.wall
	}
	if now < p.StallStart {
		in.inStall = false
		return 0
	}
	off := now - p.StallStart
	if p.StallPeriod > 0 {
		off %= p.StallPeriod
	}
	if off >= p.StallCycles {
		in.inStall = false
		return 0
	}
	if !in.inStall {
		in.inStall = true
		in.stats.Stalls++
	}
	chunk := p.StallCycles - off
	if chunk > stallChunk {
		chunk = stallChunk
	}
	in.stats.StallCycles += chunk
	return chunk
}

// NextStall returns the clock at which the next stall window opens for
// a caller whose clock is now, or 0 when no window ever will. It is the
// time-warp event horizon for the server's wait loop: for every clock c
// with now <= c < NextStall(now), StallPause(c) takes the same
// outside-window branch and returns 0, so idle rounds may be skipped up
// to (but never across) the returned boundary. Pure: no injector state
// changes. It mirrors StallPause's clamping of now to the wall clock,
// which is frozen between scheduler probes.
func (in *Injector) NextStall(now uint64) uint64 {
	p := in.Plan()
	if p.StallCycles == 0 {
		return 0
	}
	eff := now
	if in.wall > eff {
		eff = in.wall
	}
	if eff < p.StallStart {
		return p.StallStart
	}
	off := eff - p.StallStart
	if p.StallPeriod > 0 {
		off %= p.StallPeriod
		if off < p.StallCycles {
			// Inside a window right now: return the caller's own clock
			// (not the wall-clamped time, which may lie ahead of it) so
			// no round at or after now is ever skipped.
			return now
		}
		return eff + (p.StallPeriod - off)
	}
	if off < p.StallCycles {
		return now // inside the one-shot window
	}
	return 0 // one-shot window already passed
}

// DropDoorbell decides whether this tail publication is lost.
func (in *Injector) DropDoorbell() bool {
	if !in.oneIn(in.Plan().DropEveryN) {
		return false
	}
	in.stats.DoorbellDrops++
	return true
}

// Corrupt possibly flips one seeded bit across a popped word pair.
func (in *Injector) Corrupt(w0, w1 uint64) (uint64, uint64) {
	if !in.oneIn(in.Plan().CorruptEveryN) {
		return w0, w1
	}
	in.stats.CorruptWords++
	bit := in.rnd() % 128
	if bit < 64 {
		return w0 ^ 1<<bit, w1
	}
	return w0, w1 ^ 1<<(bit-64)
}

// SlowPause converts a request's service time into the extra pause the
// slow-down factor demands (0 when the factor is off).
func (in *Injector) SlowPause(serviceCycles uint64) uint64 {
	f := in.Plan().SlowFactor
	if f <= 1 {
		return 0
	}
	extra := serviceCycles * (f - 1)
	in.stats.SlowdownCycles += extra
	return extra
}
