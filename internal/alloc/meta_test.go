package alloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
	"nextgenmalloc/internal/sim"
)

// onThread runs fn on one simulated thread of a fresh machine.
func onThread(t *testing.T, fn func(m *sim.Machine, th *sim.Thread)) {
	t.Helper()
	m := sim.New(sim.ScaledConfig())
	m.Spawn("t", 0, func(th *sim.Thread) { fn(m, th) })
	m.Run()
}

// opCost is the simulated work one call issued.
type opCost struct{ loads, stores, mmaps uint64 }

// cost runs fn and returns the loads, stores and mmaps it issued.
func cost(m *sim.Machine, th *sim.Thread, fn func()) opCost {
	c0, k0 := th.Counters(), m.Kernel().Stats()
	fn()
	c1, k1 := th.Counters(), m.Kernel().Stats()
	return opCost{c1.Loads - c0.Loads, c1.Stores - c0.Stores, k1.Mmap - k0.Mmap}
}

// TestMetaKitOps pins each kit call's simulated cost and behaviour, for
// both placements of its pages.
func TestMetaKitOps(t *testing.T) {
	for _, segregated := range []bool{false, true} {
		onThread(t, func(m *sim.Machine, th *sim.Thread) {
			// Placement: segregated pages come from the metadata region,
			// the others from the mmap region, classified as metadata.
			p := MapMeta(th, 2, segregated)
			inMeta := p >= mem.MetaBase && p < mem.MmapBase
			if inMeta != segregated {
				t.Errorf("segregated=%v: MapMeta page %#x in the metadata region = %v", segregated, p, inMeta)
			}
			for a := p; a < p+2<<mem.PageShift; a += 1 << 10 {
				if c := m.Regions().Classify(a); c != region.Meta {
					t.Errorf("segregated=%v: MapMeta byte %#x classified %v", segregated, a, c)
				}
			}

			pm := NewPageMap(th, segregated)
			const rec = 0xabc0
			addr := uint64(mem.MmapBase) + 3*pageMapLeafSlots<<mem.PageShift + 5<<mem.PageShift
			var got uint64
			if c := cost(m, th, func() { got = pm.Get(th, addr) }); c != (opCost{loads: 1}) || got != 0 {
				t.Errorf("Get with no leaf: %d, cost %+v; want 0 for 1 load", got, c)
			}
			before := MapMeta(th, 1, segregated)
			if c := cost(m, th, func() { pm.Set(th, addr, rec) }); c != (opCost{1, 2, 1}) {
				t.Errorf("Set on a fresh leaf cost %+v, want 1 load, 2 stores, 1 mmap", c)
			}
			if leaf := MapMeta(th, 1, segregated); leaf != before+2<<mem.PageShift {
				t.Errorf("the leaf was not mapped beside the root's pages: next page %#x, want %#x", leaf, before+2<<mem.PageShift)
			}
			if c := cost(m, th, func() { pm.Set(th, addr+1<<mem.PageShift, rec+64) }); c != (opCost{1, 1, 0}) {
				t.Errorf("Set on a present leaf cost %+v, want 1 load, 1 store", c)
			}
			if c := cost(m, th, func() { got = pm.Get(th, addr+100) }); c != (opCost{loads: 2}) || got != rec {
				t.Errorf("Get: %#x, cost %+v; want %#x for 2 loads", got, c, rec)
			}
			if got = pm.Get(th, addr+2<<mem.PageShift); got != 0 {
				t.Errorf("Get of an unset page in a present leaf = %#x, want 0", got)
			}

			// Records: released records come back last-in first-out
			// before the arena bumps; a full chunk maps the next.
			rs := NewRecords(th, 1024, 1, segregated)
			var a, b, c, d uint64
			if k := cost(m, th, func() {
				a, b = rs.Alloc(th), rs.Alloc(th)
				rs.Release(a)
				rs.Release(b)
				c, d = rs.Alloc(th), rs.Alloc(th)
			}); k != (opCost{}) {
				t.Errorf("record reuse issued simulated work: %+v", k)
			}
			if b != a+1024 || c != b || d != a {
				t.Errorf("records %#x %#x, then %#x %#x after releasing both; want LIFO reuse", a, b, c, d)
			}
			if e := rs.Alloc(th); e != b+1024 {
				t.Errorf("bump after reuse = %#x, want %#x", e, b+1024)
			}
			if k := cost(m, th, func() { rs.Alloc(th) }); k != (opCost{}) {
				t.Errorf("the last record of a one-page chunk cost %+v, want none", k)
			}
			var f uint64
			if k := cost(m, th, func() { f = rs.Alloc(th) }); k != (opCost{mmaps: 1}) || f&(mem.PageSize-1) != 0 {
				t.Errorf("the record past a full chunk (%#x) cost %+v; want a fresh chunk's first for 1 mmap", f, k)
			}

			// CarveIndexStack: ceil(n/4) words, indices in order, zero
			// lanes past n.
			for _, n := range []int{1, 4, 7, 9} {
				stack := MapMeta(th, 1, segregated)
				th.Store64(stack+uint64(n/4)*8, ^uint64(0))
				if k := cost(m, th, func() { CarveIndexStack(th, stack, n) }); k != (opCost{stores: uint64((n + 3) / 4)}) {
					t.Errorf("CarveIndexStack(%d) cost %+v, want %d stores", n, k, (n+3)/4)
				}
				for i := 0; i < (n+3)/4*4; i++ {
					want := uint64(i)
					if i >= n {
						want = 0
					}
					if got := th.Load16(stack + uint64(i)*2); got != want {
						t.Errorf("CarveIndexStack(%d): lane %d = %d, want %d", n, i, got, want)
					}
				}
			}

			// ListInsert then ListRemove restores an empty sentinel.
			page := MapMeta(th, 1, segregated)
			s, r := page, page+64
			th.Store64(s+RecNext, s)
			th.Store64(s+RecPrev, s)
			if k := cost(m, th, func() { ListInsert(th, s, r) }); k != (opCost{1, 4, 0}) {
				t.Errorf("ListInsert cost %+v, want 1 load, 4 stores", k)
			}
			if th.Load64(s+RecNext) != r || th.Load64(s+RecPrev) != r || th.Load64(r+RecNext) != s || th.Load64(r+RecPrev) != s {
				t.Error("ListInsert into an empty list did not link sentinel and record both ways")
			}
			if k := cost(m, th, func() { ListRemove(th, r) }); k != (opCost{2, 2, 0}) {
				t.Errorf("ListRemove cost %+v, want 2 loads, 2 stores", k)
			}
			if th.Load64(s+RecNext) != s || th.Load64(s+RecPrev) != s {
				t.Error("ListRemove of the only record did not restore the sentinel")
			}
		})
	}
}

// TestPageMapCovers pins the reach at its edges.
func TestPageMapCovers(t *testing.T) {
	for _, c := range []struct {
		addr uint64
		want bool
	}{
		{mem.MmapBase - 1, false},
		{mem.MmapBase, true},
		{mem.MmapBase + PageMapReach - 1, true},
		{mem.MmapBase + PageMapReach, false},
		{mem.MetaBase, false},
	} {
		if got := PageMapCovers(c.addr); got != c.want {
			t.Errorf("PageMapCovers(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
	if PageMapReach != 1<<34 {
		t.Errorf("PageMapReach = %#x, want 2^34", uint64(PageMapReach))
	}
}

// FuzzPageMap drives Set, Register and Get over pages that cross leaf
// boundaries and reach the edge of PageMapCovers, against a Go map oracle.
// Each op is three bytes: kind and neighbourhood, then a 16-bit offset.
func FuzzPageMap(f *testing.F) {
	f.Add(false, []byte{0, 1, 0, 2, 1, 0, 1, 5, 3, 4, 0x80, 0x10, 6, 0xff, 0xff})
	f.Add(true, []byte{3, 2, 0x81, 4, 2, 0x7f, 5, 0, 0, 6, 0, 2, 8, 0, 2, 9, 0xff, 0x03, 11, 0x34, 0x12})
	f.Add(false, []byte{6, 0, 0, 7, 0, 0, 8, 1, 0, 0xff, 0xfe, 0xff})
	const totalPages = pageMapRootSlots * pageMapLeafSlots
	f.Fuzz(func(t *testing.T, segregated bool, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		onThread(t, func(m *sim.Machine, th *sim.Thread) {
			pm := NewPageMap(th, segregated)
			recs := NewRecords(th, 64, 1, segregated)
			oracle := map[uint64]uint64{}
			for i := 0; i+3 <= len(ops); i += 3 {
				kind, off := ops[i]%3, uint64(ops[i+1])|uint64(ops[i+2])<<8
				var page uint64
				switch ops[i] / 3 % 4 {
				case 0: // the first leaves
					page = off % (4 * pageMapLeafSlots)
				case 1: // either side of a leaf boundary
					page = (off>>8%16+1)*pageMapLeafSlots + off&0xff - 128
				case 2: // either side of the reach's edge
					page = totalPages - 512 + off%1024
				default: // spread over the whole reach
					page = off * 64 % totalPages
				}
				addr := uint64(mem.MmapBase) + page<<mem.PageShift + off%mem.PageSize
				if page >= totalPages {
					if PageMapCovers(addr) {
						t.Fatalf("PageMapCovers(%#x) past the reach (page %d of %d)", addr, page, totalPages)
					}
					continue
				}
				if !PageMapCovers(addr) {
					t.Fatalf("PageMapCovers(%#x) false for page %d of %d", addr, page, totalPages)
				}
				switch kind {
				case 0:
					if got := pm.Get(th, addr); got != oracle[page] {
						t.Fatalf("op %d: Get(page %d) = %#x, want %#x", i/3, page, got, oracle[page])
					}
				case 1:
					rec := recs.Alloc(th)
					pm.Set(th, addr, rec)
					oracle[page] = rec
				case 2:
					rec := recs.Alloc(th)
					n := off%4 + 1
					if page+n > totalPages {
						n = totalPages - page
					}
					th.Store64(rec+RecBase, addr&^(mem.PageSize-1))
					th.Store64(rec+RecPages, n)
					pm.Register(th, rec)
					for p := page; p < page+n; p++ {
						oracle[p] = rec
					}
				}
			}
			for page, want := range oracle {
				if got := pm.Get(th, mem.MmapBase+page<<mem.PageShift); got != want {
					t.Fatalf("final Get(page %d) = %#x, want %#x", page, got, want)
				}
			}
		})
	})
}

// TestOneMetadataKit pins the kit as the only page map, record arena
// and record list of the models that walk them: no non-test file of
// NextGen, the jemalloc, tcmalloc and mimalloc models or the managed
// heap declares its own pagemapSet, pagemapGet, growMeta, listInsert or
// listRemove, or indexes a radix root with >>9. ptmalloc's bin list
// (whose links hold chunk bases) and gpu's host-map engine stay outside.
func TestOneMetadataKit(t *testing.T) {
	banned := map[string]bool{"pagemapSet": true, "pagemapGet": true, "growMeta": true, "listInsert": true, "listRemove": true}
	for _, dir := range []string{"../core", "../allocators/jemalloc", "../allocators/tcmalloc", "../allocators/mimalloc", "../gcheap"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		kitCalls := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if banned[n.Name.Name] {
						t.Errorf("%s: declares %s; use the alloc metadata kit", fset.Position(n.Pos()), n.Name.Name)
					}
				case *ast.BinaryExpr:
					if lit, ok := n.Y.(*ast.BasicLit); ok && n.Op == token.SHR && lit.Value == "9" {
						t.Errorf("%s: indexes a radix root with >>9; use alloc.PageMap", fset.Position(n.Pos()))
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "alloc" && n.Sel.Name == "NewPageMap" {
						kitCalls++
					}
				}
				return true
			})
		}
		if kitCalls == 0 {
			t.Errorf("%s: no alloc.NewPageMap call found: the scan is not looking at the package", dir)
		}
	}
}
