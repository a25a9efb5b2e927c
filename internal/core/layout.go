package core

import (
	"fmt"

	"nextgenmalloc/internal/alloc"
	"nextgenmalloc/internal/sim"
)

// Layout selects the metadata encoding (paper Figure 2).
type Layout int

const (
	// Segregated keeps 16-bit index stacks in the metadata region; user
	// pages hold no allocator state at all (layout_segregated.go).
	Segregated Layout = iota
	// Aggregated threads an intrusive next-pointer through the free
	// blocks themselves (the Mimalloc-style layout, layout_aggregated.go).
	Aggregated
	// Compact carves each slab into groups of up to 32 units with one
	// out-of-band bitmask word per group and an in-band header line of
	// offset bytes (the mallocng layout, layout_compact.go).
	Compact
)

// layouts is the one table every Layout method reads: each defined
// layout's CLI spelling and slab format, indexed by Layout.
var layouts = [...]struct {
	name string
	enc  encoding
}{
	Segregated: {"segregated", segregated{}},
	Aggregated: {"aggregated", aggregated{}},
	Compact:    {"compact", compact{}},
}

// encoding is one layout's slab format: where a slab's free state lives.
// The engine owns the record fields every layout shares (class,
// capacity, base, and slTop, the free count); the encoding owns the rest
// of the record and any in-band state, and each method issues exactly
// its layout's simulated operations, in order.
type encoding interface {
	// geometry is the span size and unit capacity of a fresh slab.
	geometry(sc *alloc.SizeClasses, class int) (pages, capacity int)
	recordBytes() int            // metadata-region stride of one slab record
	stateBytes(capacity int) int // out-of-band state bytes beyond the shared fields
	// carve lays out a fresh slab's free state for n units of size
	// bytes; the engine then stores slTop = n.
	carve(t *sim.Thread, rec, size uint64, n int)
	// pop takes a unit from a slab whose free count top (> 0) the engine
	// has just lowered; push returns addr to a slab holding top free
	// units before the engine raises it.
	pop(t *sim.Thread, rec, top, size uint64) uint64
	push(t *sim.Thread, rec, top, size, addr uint64)
	// valid is the layout's stage of the server's free validation, after
	// the engine's class and base checks: false means addr cannot be a
	// live unit of the slab.
	valid(t *sim.Thread, rec, base, size, addr uint64) bool
}

// maxSlabUnits caps every layout's slab capacity: the segregated index
// stack and the compact mask words are both sized for 512 units.
const maxSlabUnits = 512

func (l Layout) String() string {
	if !l.Valid() {
		return fmt.Sprintf("layout(%d)", int(l))
	}
	return layouts[l].name
}

// Valid reports whether l is one of the defined layouts. A kind spec
// names only these, and New panics on anything else (a hand-built
// Config), so a bad layout never runs as a silent fallback.
func (l Layout) Valid() bool { return l >= 0 && int(l) < len(layouts) }

// ParseLayout maps a CLI spelling to a Layout; "" is the default
// (Segregated).
func ParseLayout(s string) (Layout, error) {
	if s == "" {
		return Segregated, nil
	}
	for l, row := range layouts {
		if row.name == s {
			return Layout(l), nil
		}
	}
	return 0, fmt.Errorf("unknown layout %q (want segregated, aggregated, or compact)", s)
}

// encoding resolves l's slab format; an undefined layout panics.
func (l Layout) encoding() encoding {
	if !l.Valid() {
		panic(fmt.Sprintf("core: invalid metadata layout %s", l))
	}
	return layouts[l].enc
}

// RecordBytes is the metadata-region stride one slab record reserves
// under this layout. Compact records carry 16 mask words instead of a
// 1 KiB index stack, so many more of them share a metadata page.
func (l Layout) RecordBytes() int { return l.encoding().recordBytes() }

// MetaFootprint reports the slab capacity and out-of-band
// allocation-state bytes layout l uses for one size class — the inputs
// to report.LayoutTable and the conformance suite's footprint
// assertion.
func MetaFootprint(l Layout, sc *alloc.SizeClasses, class int) (capacity, stateBytes int) {
	enc := l.encoding()
	_, capacity = enc.geometry(sc, class)
	return capacity, enc.stateBytes(capacity)
}

// seedFormat is the record stride, geometry and free validation the two
// seed layouts share: segregated and aggregated embed it.
type seedFormat struct{}

// slRecBytes is the seed record stride: the shared fields plus a uint16
// index stack, which aggregated reserves but leaves unused.
const slRecBytes = 64 + 2*maxSlabUnits

func (seedFormat) recordBytes() int { return slRecBytes }

// geometry is the seed span: the class's span pages, packed with units.
func (seedFormat) geometry(sc *alloc.SizeClasses, class int) (pages, capacity int) {
	pages = sc.SpanPages(class)
	return pages, min(sc.ObjectsPerSpan(class, pages), maxSlabUnits)
}

// valid checks alignment and capacity, then rejects a free into a slab
// that is already fully free (the slab-level double-free check).
func (seedFormat) valid(t *sim.Thread, rec, base, size, addr uint64) bool {
	off := addr - base
	if off%size != 0 || off/size >= t.Load64(rec+slCapacity) {
		return false
	}
	return t.Load64(rec+slTop) < t.Load64(rec+slCapacity) // equal: slab already fully free
}
