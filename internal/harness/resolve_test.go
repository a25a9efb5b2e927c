package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/fault"
	"nextgenmalloc/internal/sim"
)

// passThrough is the thinnest Options.Wrap decorator: every call goes
// straight to the allocator it wraps, Flush included.
type passThrough struct{ alloc.Allocator }

func (p passThrough) Flush(t *sim.Thread) {
	if f, ok := p.Allocator.(alloc.Flusher); ok {
		f.Flush(t)
	}
}

// TestWrappedRunKeepsTelemetry: a decorator hides nothing from the run's
// telemetry, because RunE reads it from the allocator it built, not from
// the one the workload sees. A wrapped two-server failover run reports
// exactly what the unwrapped one does, and its liveness check has real
// ledgers to balance.
func TestWrappedRunKeepsTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("two fleet runs")
	}
	opts := func() Options {
		return Options{
			Allocator:      "nextgen",
			Workload:       fleetXalanc(2, 2500),
			Servers:        2,
			FaultPlans:     []fault.Plan{{Seed: 1, StallStart: 150000, StallCycles: 600000, Shard: 1}},
			Resilience:     patientFailover(),
			SampleInterval: 20000,
		}
	}
	plain := Run(opts())
	wrappedOpt := opts()
	wrappedOpt.Wrap = func(a alloc.Allocator) alloc.Allocator { return passThrough{a} }
	wrapped := Run(wrappedOpt)

	if plain.Served == 0 || plain.Offload == nil || len(plain.Servers) != 2 || plain.Resilience == nil ||
		plain.Failover == nil || plain.Failover.Totals.Downs == 0 || plain.ClientShards == nil || plain.Timeline == nil {
		t.Fatalf("the plain run lacks telemetry: served %d, offload %v, %d servers, resilience %v, failover %v, shards %v",
			plain.Served, plain.Offload, len(plain.Servers), plain.Resilience, plain.Failover, plain.ClientShards)
	}
	for _, f := range []struct {
		name        string
		plain, wrap any
	}{
		{"Served", plain.Served, wrapped.Served},
		{"Offload", plain.Offload, wrapped.Offload},
		{"Servers", plain.Servers, wrapped.Servers},
		{"Resilience", plain.Resilience, wrapped.Resilience},
		{"Failover", plain.Failover, wrapped.Failover},
		{"ClientShards", plain.ClientShards, wrapped.ClientShards},
		{"Timeline", plain.Timeline, wrapped.Timeline},
	} {
		if !reflect.DeepEqual(f.plain, f.wrap) {
			t.Errorf("wrapped run's %s differs:\n plain %+v\n wrap  %+v", f.name, f.plain, f.wrap)
		}
	}

	if err := wrapped.CheckLiveness(); err != nil || len(wrapped.Servers) != 2 {
		t.Fatalf("wrapped run: liveness %v over %d server blocks", err, len(wrapped.Servers))
	}
	// The check has something to check: one lost request fails it.
	lost := wrapped
	lost.Servers = append([]ServerTelemetry(nil), wrapped.Servers...)
	lost.Servers[1].Served--
	if lost.CheckLiveness() == nil {
		t.Error("CheckLiveness passed a wrapped run whose shard 1 lost a request")
	}
}

// TestAllocatorResolvedOnce: RunE resolves a run's allocator in one
// place. Policy enters only through the kind spec, so Options carries no
// server-policy field, and telemetry leaves only through what
// makeAllocator built, so no non-test code here looks behind an
// allocator value except to flush it.
func TestAllocatorResolvedOnce(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	isSel := func(e ast.Expr, pkg, name string) bool {
		s, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := s.X.(*ast.Ident)
		return ok && x.Name == pkg && s.Sel.Name == name
	}
	fset := token.NewFileSet()
	options := false
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Every name declared with type alloc.Allocator: variables,
		// parameters and results.
		allocs := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				if isSel(n.Type, "alloc", "Allocator") {
					for _, id := range n.Names {
						allocs[id.Name] = true
					}
				}
			case *ast.Field:
				if isSel(n.Type, "alloc", "Allocator") {
					for _, id := range n.Names {
						allocs[id.Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if x, ok := n.X.(*ast.Ident); ok && allocs[x.Name] && !isSel(n.Type, "alloc", "Flusher") {
					t.Errorf("%s: %s is type-asserted to something other than alloc.Flusher", fset.Position(n.Pos()), x.Name)
				}
			case *ast.TypeSpec:
				if n.Name.Name != "Options" {
					break
				}
				options = true
				for _, fld := range n.Type.(*ast.StructType).Fields.List {
					for _, id := range fld.Names {
						if id.Name == "Sched" || id.Name == "Partition" {
							t.Errorf("%s: Options.%s: server policy belongs in the kind spec", fset.Position(id.Pos()), id.Name)
						}
					}
				}
			}
			return true
		})
	}
	if !options {
		t.Fatal("no Options type found")
	}
}
