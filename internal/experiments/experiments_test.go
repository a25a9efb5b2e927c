package experiments

import (
	"strings"
	"testing"
)

// TestModelText: the closed-form experiment embeds the paper's numbers.
func TestModelText(t *testing.T) {
	out := Model()
	for _, want := range []string{"7.499E+10", "1.2523", "225.7"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("model output missing %q:\n%s", want, out.Text)
		}
	}
}

// TestQuickFigure1 sanity-checks the quick suite's Figure 1 rendering.
func TestQuickFigure1(t *testing.T) {
	out := quickOutcome(t, "figure1")
	if len(out.Results) != 4 {
		t.Fatalf("expected 4 results, got %d", len(out.Results))
	}
	if !strings.Contains(out.Text, "ptmalloc2") || !strings.Contains(out.Text, "x (") {
		t.Errorf("figure text malformed:\n%s", out.Text)
	}
}

// TestQuickAblateLayout checks the layout x prealloc-policy ablation:
// 12 cells (3 layouts x 2 policies x 2 workloads), every layout present
// in every policy block, and the compact cells carrying the dense
// record stride.
func TestQuickAblateLayout(t *testing.T) {
	out := quickOutcome(t, "ablate-layout")
	if len(out.Results) != 12 {
		t.Fatalf("got %d results, want 12", len(out.Results))
	}
	for _, label := range []string{
		"segregated/default", "aggregated/default", "compact/default",
		"segregated/adaptive", "compact/adaptive",
	} {
		if !strings.Contains(out.Text, label) {
			t.Errorf("ablation text missing cell %q", label)
		}
	}
	for _, r := range out.Results {
		wantLayout := strings.SplitN(r.Allocator, "/", 2)[0]
		if r.Layout != wantLayout {
			t.Errorf("cell %s ran layout %q", r.Allocator, r.Layout)
		}
		wantRec := 1088
		if wantLayout == "compact" {
			wantRec = 192
		}
		if r.MetaRecordBytes != wantRec {
			t.Errorf("cell %s: MetaRecordBytes = %d, want %d", r.Allocator, r.MetaRecordBytes, wantRec)
		}
	}
}

// TestQuickExtensions checks the §3.3 extension experiments' headline
// rows at quick scale.
func TestQuickExtensions(t *testing.T) {
	t.Run("GC", func(t *testing.T) {
		out := quickOutcome(t, "ablate-gc")
		if !strings.Contains(out.Text, "offloaded") {
			t.Errorf("missing offloaded row:\n%s", out.Text)
		}
	})
	t.Run("FaaS", func(t *testing.T) {
		out := quickOutcome(t, "ablate-faas")
		if !strings.Contains(out.Text, "nextgen preheated") {
			t.Errorf("missing preheated row:\n%s", out.Text)
		}
	})
	t.Run("GPU", func(t *testing.T) {
		out := quickOutcome(t, "ablate-gpu")
		if !strings.Contains(out.Text, "speedup") {
			t.Errorf("missing speedup line:\n%s", out.Text)
		}
	})
}

// TestQuickScaling checks the scaling sweep keeps its 8-thread row.
func TestQuickScaling(t *testing.T) {
	out := quickOutcome(t, "ablate-scaling")
	if !strings.Contains(out.Text, "8") {
		t.Errorf("missing 8-thread row:\n%s", out.Text)
	}
}

// TestQuickRoom checks the shared-room experiment runs both placements.
func TestQuickRoom(t *testing.T) {
	out := quickOutcome(t, "ablate-room")
	if !strings.Contains(out.Text, "shared room") || !strings.Contains(out.Text, "dedicated rooms") {
		t.Errorf("missing rows:\n%s", out.Text)
	}
}
