package fault

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePlan(t *testing.T) {
	cases := []struct {
		spec string
		want *Plan
		err  string
	}{
		{spec: "", want: nil},
		{spec: "none", want: nil},
		{
			spec: "stall-len=50000",
			want: &Plan{StallCycles: 50000},
		},
		{
			spec: "seed=7,stall-start=100000,stall-len=50000,stall-period=400000,drop=64,corrupt=256,slow=3",
			want: &Plan{Seed: 7, StallStart: 100000, StallCycles: 50000,
				StallPeriod: 400000, DropEveryN: 64, CorruptEveryN: 256, SlowFactor: 3},
		},
		{spec: "drop=32", want: &Plan{DropEveryN: 32}},
		{spec: " corrupt = 8 ", want: &Plan{CorruptEveryN: 8}},
		{spec: "stall-len", err: "not key=value"},
		{spec: "stall-len=abc", err: "bad value"},
		{spec: "warp=9", err: "unknown key"},
		{spec: "drop=1,drop=2", err: "duplicate key"},
		{spec: "stall-len=100,stall-period=100", err: "must exceed"},
		{spec: "stall-start=5", err: "without stall-len"},
		{spec: "seed=3", err: "injects nothing"},
		{spec: "slow=1", err: "injects nothing"},
	}
	for _, c := range cases {
		got, err := ParsePlan(c.spec)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParsePlan(%q) err = %v, want containing %q", c.spec, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlan(%q) unexpected error: %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePlan(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"stall-len=50000",
		"seed=7,stall-start=100000,stall-len=50000,stall-period=400000,drop=64,corrupt=256,slow=3",
		"drop=32",
	} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Errorf("round trip %q -> %q changed the plan: %+v vs %+v", spec, p.String(), p, again)
		}
	}
	if s := (Plan{}).String(); s != "none" {
		t.Errorf("zero plan String() = %q, want none", s)
	}
}

func TestArmed(t *testing.T) {
	if (Plan{}).Armed() || (Plan{Seed: 9}).Armed() || (Plan{SlowFactor: 1}).Armed() {
		t.Error("unarmed plan reports Armed")
	}
	for _, p := range []Plan{
		{StallCycles: 1}, {DropEveryN: 1}, {CorruptEveryN: 1}, {SlowFactor: 2},
	} {
		if !p.Armed() {
			t.Errorf("%+v not Armed", p)
		}
	}
}

// TestInjectorDeterminism: two injectors with the same plan make the
// same decision sequence; a different seed diverges.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, DropEveryN: 4, CorruptEveryN: 4}
	a, b := NewInjector(plan), NewInjector(plan)
	for i := 0; i < 1000; i++ {
		if a.DropDoorbell() != b.DropDoorbell() {
			t.Fatalf("drop decision %d diverged under the same seed", i)
		}
		a0, a1 := a.Corrupt(uint64(i), uint64(i)*3)
		b0, b1 := b.Corrupt(uint64(i), uint64(i)*3)
		if a0 != b0 || a1 != b1 {
			t.Fatalf("corrupt decision %d diverged under the same seed", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	plan.Seed = 43
	c := NewInjector(plan)
	same := true
	d := NewInjector(Plan{Seed: 42, DropEveryN: 4, CorruptEveryN: 4})
	for i := 0; i < 1000; i++ {
		if c.DropDoorbell() != d.DropDoorbell() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical decision sequences")
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, CorruptEveryN: 1}) // every consult fires
	for i := 0; i < 500; i++ {
		w0, w1 := uint64(0x1234_5678_9abc_def0), uint64(0x0f0f_0f0f_0f0f_0f0f)
		c0, c1 := in.Corrupt(w0, w1)
		diff := popcount(c0^w0) + popcount(c1^w1)
		if diff != 1 {
			t.Fatalf("corruption %d flipped %d bits, want 1", i, diff)
		}
	}
	if got := in.Stats().CorruptWords; got != 500 {
		t.Errorf("CorruptWords = %d, want 500", got)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestStallWindows exercises the window arithmetic: outside before
// start, chunked inside, closed after, reopened by the period.
func TestStallWindows(t *testing.T) {
	in := NewInjector(Plan{StallCycles: 5000, StallStart: 10000, StallPeriod: 20000})
	if d := in.StallPause(0); d != 0 {
		t.Fatalf("pause before start = %d", d)
	}
	// Inside the first window: chunked pauses until the window closes.
	now, total := uint64(10000), uint64(0)
	for {
		d := in.StallPause(now)
		if d == 0 {
			break
		}
		if d > stallChunk {
			t.Fatalf("chunk %d exceeds stallChunk", d)
		}
		now += d
		total += d
	}
	if total != 5000 {
		t.Errorf("first window injected %d cycles, want 5000", total)
	}
	if now != 15000 {
		t.Errorf("window closed at %d, want 15000", now)
	}
	if d := in.StallPause(20000); d != 0 {
		t.Errorf("pause between windows = %d", d)
	}
	// Second period: the window reopens at start+period.
	if d := in.StallPause(30000); d == 0 {
		t.Error("periodic window did not reopen")
	}
	st := in.Stats()
	if st.Stalls != 2 {
		t.Errorf("Stalls = %d, want 2 (one per window entered)", st.Stalls)
	}
	if st.StallCycles < 5000 {
		t.Errorf("StallCycles = %d, want >= 5000", st.StallCycles)
	}
}

func TestOneShotStallEnds(t *testing.T) {
	in := NewInjector(Plan{StallCycles: 3000, StallStart: 100})
	if d := in.StallPause(100000); d != 0 {
		t.Errorf("one-shot stall still pausing long after the window: %d", d)
	}
}

func TestSlowPause(t *testing.T) {
	in := NewInjector(Plan{SlowFactor: 3})
	if d := in.SlowPause(200); d != 400 {
		t.Errorf("SlowPause(200) with factor 3 = %d, want 400", d)
	}
	if st := in.Stats().SlowdownCycles; st != 400 {
		t.Errorf("SlowdownCycles = %d, want 400", st)
	}
	off := NewInjector(Plan{DropEveryN: 2})
	if d := off.SlowPause(200); d != 0 {
		t.Errorf("SlowPause without a factor = %d, want 0", d)
	}
}

func TestStatsAddCoversEveryField(t *testing.T) {
	// Mirror of the harness reflection test, local so the package stands
	// alone: every uint64 leaf must survive Add.
	a := Stats{1, 2, 3, 4, 5}
	b := Stats{10, 20, 30, 40, 50}
	sum := a
	sum.Add(b)
	if sum != (Stats{11, 22, 33, 44, 55}) {
		t.Errorf("Add dropped a field: %+v", sum)
	}
}

// TestNilInjectorInjectsNothing: a nil *Injector is the unarmed plan, so
// the server and transport consult it without a guard.
func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	for _, now := range []uint64{0, 1, 1 << 40} {
		if d := in.StallPause(now); d != 0 {
			t.Errorf("StallPause(%d) = %d, want 0", now, d)
		}
		if h := in.NextStall(now); h != 0 {
			t.Errorf("NextStall(%d) = %d, want 0", now, h)
		}
		if d := in.SlowPause(now); d != 0 {
			t.Errorf("SlowPause(%d) = %d, want 0", now, d)
		}
	}
	if in.DropDoorbell() {
		t.Error("DropDoorbell() = true")
	}
	if w0, w1 := in.Corrupt(0xdead, 0xbeef); w0 != 0xdead || w1 != 0xbeef {
		t.Errorf("Corrupt(0xdead, 0xbeef) = %#x, %#x", w0, w1)
	}
	if st := in.Stats(); st != (Stats{}) {
		t.Errorf("Stats() = %+v, want zero", st)
	}
	if p := in.Plan(); p.Armed() {
		t.Errorf("Plan() = %+v is armed", p)
	}
}
