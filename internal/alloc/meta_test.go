package alloc

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
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

			// Spans: a growth, a split and an exact fit, each at a fixed
			// cost, with and without a stamp on every record the heap
			// creates (one more store each).
			for _, stamp := range []uint64{0, 1} {
				var heap uint64
				srecs := NewRecords(th, 128, 4, segregated)
				sent := MapMeta(th, 1, segregated)
				sp := NewSpans(th, sent, &srecs, &heap)
				if stamp != 0 {
					sp.Stamp(56, 7)
				}
				stamped := func(rec uint64) bool { return th.Load64(rec+56) == stamp*7 }
				var whole, head, fit uint64
				// Growth: an empty walk, a chunk and its free record, then
				// the walk that takes it whole.
				if k := cost(m, th, func() { whole = sp.Alloc(th, spanGrowPages) }); k != (opCost{6, 9 + stamp, 1}) || heap != spanGrowPages<<mem.PageShift {
					t.Errorf("Alloc growth cost %+v with %d heap bytes; want 6 loads, %d stores, 1 mmap and one chunk", k, heap, 9+stamp)
				}
				base := th.Load64(whole + RecBase)
				if th.Load64(whole+RecPages) != spanGrowPages || th.Load64(whole+RecClass) != SpanFree || !stamped(whole) {
					t.Errorf("grown span: %d pages, class %d, stamp %d; want %d, SpanFree, %d",
						th.Load64(whole+RecPages), th.Load64(whole+RecClass), th.Load64(whole+56), spanGrowPages, stamp*7)
				}
				th.Store64(whole+RecClass, 3)
				if k := cost(m, th, func() { sp.Free(th, whole) }); k != (opCost{1, 5, 0}) || th.Load64(whole+RecClass) != SpanFree {
					t.Errorf("Free cost %+v, class %d; want 1 load, 5 stores, SpanFree", k, th.Load64(whole+RecClass))
				}
				// Split: the fit keeps its record; the remainder is a fresh
				// free record at the list's head.
				if k := cost(m, th, func() { head = sp.Alloc(th, 3) }); k != (opCost{6, 10 + stamp, 0}) || head != whole {
					t.Errorf("Alloc split: %#x, cost %+v; want %#x for 6 loads, %d stores", head, k, whole, 10+stamp)
				}
				rest := th.Load64(sent + RecNext)
				if th.Load64(head+RecPages) != 3 || th.Load64(rest+RecBase) != base+3<<mem.PageShift ||
					th.Load64(rest+RecPages) != spanGrowPages-3 || th.Load64(rest+RecClass) != SpanFree || !stamped(rest) {
					t.Errorf("split: %d pages taken; remainder at %#x, %d pages, class %d, stamp %d",
						th.Load64(head+RecPages), th.Load64(rest+RecBase), th.Load64(rest+RecPages), th.Load64(rest+RecClass), th.Load64(rest+56))
				}
				// Exact fit: the most recently freed span, unlinked whole.
				sp.Free(th, head)
				if k := cost(m, th, func() { fit = sp.Alloc(th, 3) }); k != (opCost{4, 2, 0}) || fit != head || heap != spanGrowPages<<mem.PageShift {
					t.Errorf("Alloc exact fit: %#x, cost %+v, %d heap bytes; want %#x for 4 loads, 2 stores and no growth", fit, k, heap, head)
				}
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

// FuzzSpans drives Alloc and Free against a host interval-set oracle:
// live spans are disjoint and each lies inside a grown chunk, the free
// list and the live spans cover the chunks exactly, and the heap-byte
// count is the chunks' size. Each op is three bytes: Alloc (even kind
// byte) of 1-1100 pages or Free (odd) of a live span, then a 16-bit
// argument.
func FuzzSpans(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0xff, 1, 1, 0, 0, 0, 3, 0, 0, 0x4b, 4, 0, 0, 2})
	f.Add([]byte{0, 0xff, 1, 0, 0, 2, 0, 0x4b, 4, 1, 1, 0, 1, 0, 0, 0, 0xfe, 1, 0, 0x4b, 4})
	f.Add([]byte{0, 0x4b, 4, 0, 0x4b, 4, 1, 0, 0, 1, 0, 0, 0, 0x96, 8, 0, 1, 0})
	type span struct{ base, pages uint64 }
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		onThread(t, func(m *sim.Machine, th *sim.Thread) {
			var heap, grown uint64
			recs := NewRecords(th, 64, 1, true)
			sent := MapMeta(th, 1, true)
			sp := NewSpans(th, sent, &recs, &heap)
			var chunks []span
			var live []uint64 // live span records
			for i := 0; i+3 <= len(ops); i += 3 {
				arg := uint64(ops[i+1]) | uint64(ops[i+2])<<8
				if ops[i]%2 == 1 && len(live) > 0 {
					j := arg % uint64(len(live))
					sp.Free(th, live[j])
					live = append(live[:j], live[j+1:]...)
				} else {
					n := arg%1100 + 1
					before := heap
					rec := sp.Alloc(th, int(n))
					base, pages := th.Load64(rec+RecBase), th.Load64(rec+RecPages)
					if pages != n {
						t.Fatalf("op %d: Alloc(%d) returned a span of %d pages", i/3, n, pages)
					}
					if heap != before {
						// A fresh chunk is linked at the head of the list,
						// so the walk takes it first.
						g := (heap - before) >> mem.PageShift
						chunks = append(chunks, span{base, g})
						grown += g
					}
					th.Store64(rec+RecClass, 1)
					live = append(live, rec)
				}
				if heap != grown<<mem.PageShift {
					t.Fatalf("op %d: %d heap bytes for %d grown pages", i/3, heap, grown)
				}
				var spans []span
				var covered uint64
				for _, rec := range live {
					spans = append(spans, span{th.Load64(rec + RecBase), th.Load64(rec + RecPages)})
				}
				for rec := th.Load64(sent + RecNext); rec != sent; rec = th.Load64(rec + RecNext) {
					if th.Load64(rec+RecClass) != SpanFree {
						t.Fatalf("op %d: free record %#x has class %d", i/3, rec, th.Load64(rec+RecClass))
					}
					if len(spans) > len(live)+len(chunks)+len(ops) {
						t.Fatalf("op %d: the free list does not return to its sentinel", i/3)
					}
					spans = append(spans, span{th.Load64(rec + RecBase), th.Load64(rec + RecPages)})
				}
				slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.base, b.base) })
				for k, s := range spans {
					covered += s.pages
					if k > 0 && spans[k-1].base+spans[k-1].pages<<mem.PageShift > s.base {
						t.Fatalf("op %d: spans %+v and %+v overlap", i/3, spans[k-1], s)
					}
					if !slices.ContainsFunc(chunks, func(c span) bool {
						return s.base >= c.base && s.base+s.pages<<mem.PageShift <= c.base+c.pages<<mem.PageShift
					}) {
						t.Fatalf("op %d: span %+v lies outside every grown chunk", i/3, s)
					}
				}
				if covered != grown {
					t.Fatalf("op %d: live and free spans hold %d pages of %d grown", i/3, covered, grown)
				}
			}
		})
	})
}

// TestOneMetadataKit pins the kit as the only page map, record arena,
// record list and page-span heap of the models that walk them: no
// non-test file of NextGen, the jemalloc, tcmalloc and mimalloc models,
// the managed heap or the GPU engine declares its own pagemapSet,
// pagemapGet, growMeta, listInsert, listRemove, spanAlloc, segAlloc,
// pageAlloc, rtCharge or newRec, or indexes a radix root with >>9.
// ptmalloc's bin list (whose links hold chunk bases) stays outside.
func TestOneMetadataKit(t *testing.T) {
	banned := map[string]bool{"pagemapSet": true, "pagemapGet": true, "growMeta": true, "listInsert": true, "listRemove": true,
		"spanAlloc": true, "segAlloc": true, "pageAlloc": true, "rtCharge": true, "newRec": true}
	for _, dir := range []string{"../core", "../allocators/jemalloc", "../allocators/tcmalloc", "../allocators/mimalloc", "../gcheap", "../gpu"} {
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
