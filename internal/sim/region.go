package sim

import (
	"nextgenmalloc/internal/mem"
	"nextgenmalloc/internal/region"
)

// The region table maps virtual addresses to address classes
// (region.Class) at 16-byte granularity — fine enough to separate a
// PTMalloc2-style inline chunk header from the user payload sharing its
// cache line, which is exactly the aggregated-layout pollution the
// paper's Figure 2 describes.
//
// The table is host-side observability state: reading or writing it
// never advances the simulated clock or any PMU counter. Because the
// simulated kernel only ever hands out fresh virtual addresses
// (mem.AddressSpace's bump pointers; see the epoch comment there), a
// page's class array can be cached for the page's whole lifetime and
// never goes stale across munmap.
const (
	granuleShift = 4 // 16-byte granules: the smallest allocator alignment
	pageGranules = mem.PageSize >> granuleShift
)

// pageClasses holds the class of every 16-byte granule of one 4 KiB page.
type pageClasses [pageGranules]region.Class

// RegionTable is the per-machine address-class map.
type RegionTable struct {
	pages map[uint64]*pageClasses // vpn -> granule classes
	// marks counts Mark calls: a granule's class changes only with one.
	marks uint64
}

func newRegionTable() *RegionTable {
	return &RegionTable{pages: make(map[uint64]*pageClasses)}
}

// staticClass is the class an address has before anything marks it: the
// dedicated metadata range is Meta by construction (NextGen's segregated
// region, §3.1.2), everything else defaults to User.
func staticClass(vaddr uint64) region.Class {
	if vaddr >= mem.MetaBase && vaddr < mem.MmapBase {
		return region.Meta
	}
	return region.User
}

// page returns (creating on first touch) the class array for the page
// containing vaddr.
func (rt *RegionTable) page(vaddr uint64) *pageClasses {
	vpn := vaddr >> mem.PageShift
	p := rt.pages[vpn]
	if p == nil {
		p = new(pageClasses)
		if def := staticClass(vaddr); def != region.User {
			for i := range p {
				p[i] = def
			}
		}
		rt.pages[vpn] = p
	}
	return p
}

// Mark sets the class of [vaddr, vaddr+n). Partial granules at either
// end are rounded outward (allocator structures are at least 16-byte
// aligned in practice, so rounding only matters for odd test inputs).
func (rt *RegionTable) Mark(vaddr uint64, n int, cls region.Class) {
	if n <= 0 {
		return
	}
	rt.marks++
	end := vaddr + uint64(n)
	g := vaddr &^ (1<<granuleShift - 1)
	for g < end {
		p := rt.page(g)
		i := (g & mem.PageMask) >> granuleShift
		pageEnd := (g | mem.PageMask) + 1
		for ; g < end && g < pageEnd; g += 1 << granuleShift {
			p[i] = cls
			i++
		}
	}
}

// Classify returns the class of the granule containing vaddr.
func (rt *RegionTable) Classify(vaddr uint64) region.Class {
	return rt.page(vaddr)[(vaddr&mem.PageMask)>>granuleShift]
}

// ClassCounters are the attribution counters for one address class:
// the subset of Counters that is tied to specific addresses (demand
// traffic, cache misses, TLB walks).
type ClassCounters struct {
	Loads           uint64
	Stores          uint64
	L1Misses        uint64
	LLCLoadMisses   uint64
	LLCStoreMisses  uint64
	DTLBLoadMisses  uint64
	DTLBStoreMisses uint64
}

// Add accumulates o into c.
func (c *ClassCounters) Add(o ClassCounters) {
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.L1Misses += o.L1Misses
	c.LLCLoadMisses += o.LLCLoadMisses
	c.LLCStoreMisses += o.LLCStoreMisses
	c.DTLBLoadMisses += o.DTLBLoadMisses
	c.DTLBStoreMisses += o.DTLBStoreMisses
}

// Sub returns c - o, field-wise.
func (c ClassCounters) Sub(o ClassCounters) ClassCounters {
	return ClassCounters{
		Loads:           c.Loads - o.Loads,
		Stores:          c.Stores - o.Stores,
		L1Misses:        c.L1Misses - o.L1Misses,
		LLCLoadMisses:   c.LLCLoadMisses - o.LLCLoadMisses,
		LLCStoreMisses:  c.LLCStoreMisses - o.LLCStoreMisses,
		DTLBLoadMisses:  c.DTLBLoadMisses - o.DTLBLoadMisses,
		DTLBStoreMisses: c.DTLBStoreMisses - o.DTLBStoreMisses,
	}
}

// ClassBreakdown is one counter set per address class, indexed by
// region.Class.
type ClassBreakdown [region.NumClasses]ClassCounters

// Add accumulates o into b, class-wise.
func (b *ClassBreakdown) Add(o ClassBreakdown) {
	for i := range b {
		b[i].Add(o[i])
	}
}

// Sub returns b - o, class-wise.
func (b ClassBreakdown) Sub(o ClassBreakdown) ClassBreakdown {
	var out ClassBreakdown
	for i := range b {
		out[i] = b[i].Sub(o[i])
	}
	return out
}

// CoreClassCounters assembles the per-class attribution snapshot for one
// core from the cache and TLB models. Like CoreCounters it may be read
// mid-run; unlike it there is no live-thread component (all per-class
// state lives in the shared models).
func (m *Machine) CoreClassCounters(core int) ClassBreakdown {
	m.chargeCore(core)
	cs := m.caches.ClassStats(core)
	ts := m.tlbs[core].ClassStats()
	var b ClassBreakdown
	for i := range b {
		b[i] = ClassCounters{
			Loads:           cs[i].Loads,
			Stores:          cs[i].Stores,
			L1Misses:        cs[i].L1Misses,
			LLCLoadMisses:   cs[i].LLCLoadMisses,
			LLCStoreMisses:  cs[i].LLCStoreMisses,
			DTLBLoadMisses:  ts[i].LoadMisses,
			DTLBStoreMisses: ts[i].StoreMisses,
		}
	}
	return b
}

// Regions returns the machine's address-class table (host-side; safe to
// read or mark from outside the simulation).
func (m *Machine) Regions() *RegionTable { return m.regions }

// MarkRegion classifies [vaddr, vaddr+n) for miss attribution. It is
// host-side bookkeeping: no simulated instructions, cycles, or memory
// traffic result, so calling it cannot perturb the PMU counters.
func (t *Thread) MarkRegion(vaddr uint64, n int, cls region.Class) {
	t.m.regions.Mark(vaddr, n, cls)
}

// ClassCounters returns this core's per-class attribution counters as of
// now (usable mid-run by the owning thread, like Counters).
func (t *Thread) ClassCounters() ClassBreakdown {
	return t.m.CoreClassCounters(t.core)
}
