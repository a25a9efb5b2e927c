package experiments

import (
	"strings"
	"testing"

	"nextgenmalloc/internal/harness"
)

func TestParseFailover(t *testing.T) {
	for spec, want := range map[string]int{"": 0, "off": 0, "on": 1, "default": 1, "3": 3} {
		got, err := ParseFailover(spec)
		if err != nil || got != want {
			t.Errorf("ParseFailover(%q) = %d, %v; want %d", spec, got, err, want)
		}
	}
	for _, bad := range []string{"-1", "abc", "1.5"} {
		if _, err := ParseFailover(bad); err == nil {
			t.Errorf("ParseFailover(%q) accepted", bad)
		}
	}
}

// TestQuickFailoverSweep checks the quick grid's acceptance bar on its
// 4-shard permanent-kill cells: failover keeps every malloc off the
// emergency tier and holds the worst tenant's p99 below the
// emergency-only policy's, the routing ledger records the re-homes, and
// the rendered text carries its tables (the metrics document is
// TestQuickSuiteDocument's).
func TestQuickFailoverSweep(t *testing.T) {
	out := quickOutcome(t, "failover-sweep")
	cells := map[string]harness.Result{}
	for _, r := range out.Results {
		cells[r.Allocator] = r
	}
	for _, label := range []string{"clean 4sh", "fo 4sh killinf", "em 4sh killinf"} {
		if _, ok := cells[label]; !ok {
			t.Fatalf("the grid lost its %q cell", label)
		}
	}
	clean, fo, em := cells["clean 4sh"], cells["fo 4sh killinf"], cells["em 4sh killinf"]
	if fo.Failover == nil || fo.Failover.Totals.Downs == 0 || fo.Failover.Totals.ForwardedMallocs == 0 {
		t.Fatal("failover cell never re-homed a client")
	}
	if n := emergencyMallocs(fo); n != 0 {
		t.Errorf("failover cell left %d mallocs on the emergency tier", n)
	}
	if emergencyMallocs(em) == 0 {
		t.Error("emergency-only cell never touched the emergency tier under a permanent kill")
	}
	if em.Failover != nil {
		t.Errorf("emergency-only cell recorded failover telemetry: %+v", em.Failover.Totals)
	}
	if worstTenantP99(fo) >= worstTenantP99(em) {
		t.Errorf("failover did not beat emergency-only on worst-tenant p99: fo %d, em %d",
			worstTenantP99(fo), worstTenantP99(em))
	}
	if worstTenantP99(clean) == 0 {
		t.Error("clean cell tracked no tenant latency")
	}
	for _, want := range []string{
		"Failover sweep", "worst ten", "recovered",
		"worst-tenant p99 failover", "Per-client routing ledger",
	} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("sweep text missing %q:\n%s", want, out.Text)
		}
	}
}
