// Package cache models a multicore cache hierarchy: private L1D and L2
// per core, a shared inclusive LLC, and a directory-based MESI-style
// coherence protocol.
//
// The paper's central observation is that allocator metadata traffic
// pollutes these structures (Table 1) and that cross-core metadata
// sharing causes invalidation storms (Table 2). Both effects fall out of
// this model: every simulated load/store walks the hierarchy, shared
// lines ping-pong through the directory, and the per-core counters
// correspond one-for-one to the PMU events the paper reports
// (LLC-load-misses, LLC-store-misses).
package cache

import (
	"fmt"

	"nextgenmalloc/internal/region"
)

// LineShift is log2 of the cache line size (64 bytes, as assumed by the
// paper's Figure 2 discussion).
const (
	LineShift = 6
	LineSize  = 1 << LineShift
)

// MESI states for lines in private caches.
const (
	Invalid byte = iota
	Shared
	Exclusive
	Modified
)

type line struct {
	tag   uint64 // full line address (addr >> LineShift)
	state byte   // MESI state (private caches); LLC uses valid/dirty below
	valid bool
	dirty bool  // LLC only: line differs from memory
	idx   int32 // this line's fixed index in its array (set once at build)
	// Directory fields (LLC only).
	sharers uint64 // bitmask of cores whose private caches may hold the line
	owner   int8   // core holding the line Modified, or -1
}

// cacheArray is one set-associative tag array with LRU replacement.
//
// Host-side layout notes (the model is unchanged): the valid tags and
// the LRU stamps live in dense parallel []uint64 slices (tags store
// tag+1; 0 marks an invalid way) so the way scans in find and victim
// touch 8 bytes per way instead of a full line struct, and each set
// remembers its most-recently-hit way so the dominant repeat-hit
// pattern resolves without scanning at all. Every mutation of a way's
// identity goes through fill/invalidate to keep tags[] and lines[] in
// lockstep.
type cacheArray struct {
	sets    int
	ways    int
	setMask uint64   // sets-1 when sets is a power of two, else 0
	tags    []uint64 // tag+1 per way, 0 when invalid
	used    []uint64 // LRU stamp per way
	lines   []line
	mru     []uint16 // per-set index of the last way that hit
	tick    uint64
	// changes counts fills and drops: a way's identity changes only
	// with it.
	changes uint64
}

func newArray(sizeBytes, ways int) *cacheArray {
	nlines := sizeBytes / LineSize
	if nlines%ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", nlines, ways))
	}
	sets := nlines / ways
	c := &cacheArray{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, nlines),
		used:  make([]uint64, nlines),
		lines: make([]line, nlines),
		mru:   make([]uint16, sets),
	}
	for i := range c.lines {
		c.lines[i].idx = int32(i)
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// set maps a tag to its set index; power-of-two geometries (all shipped
// configs) use a mask instead of a divide.
func (c *cacheArray) set(tag uint64) int {
	if c.setMask != 0 || c.sets == 1 {
		return int(tag & c.setMask)
	}
	return int(tag % uint64(c.sets))
}

func (c *cacheArray) setBase(tag uint64) int { return c.set(tag) * c.ways }

// findMRU probes only the set's MRU way — the overwhelmingly common hit
// location — and returns nil on anything else. Pure lookup (no LRU
// side effects, identical to a find that hits the MRU way); small
// enough to inline into the per-access hot path.
func (c *cacheArray) findMRU(tag uint64) *line {
	if c.setMask == 0 && c.sets > 1 {
		return nil // non-power-of-two geometry: take the full probe
	}
	base := int(tag&c.setMask) * c.ways
	if m := base + int(c.mru[tag&c.setMask]); c.tags[m] == tag+1 {
		return &c.lines[m]
	}
	return nil
}

// find returns the line holding tag, or nil. It does not touch LRU.
func (c *cacheArray) find(tag uint64) *line {
	set := c.set(tag)
	base := set * c.ways
	want := tag + 1
	tags := c.tags[base : base+c.ways]
	if m := int(c.mru[set]); tags[m] == want {
		return &c.lines[base+m]
	}
	for i, tg := range tags {
		if tg == want {
			c.mru[set] = uint16(i)
			return &c.lines[base+i]
		}
	}
	return nil
}

// touch refreshes LRU state for a line.
func (c *cacheArray) touch(l *line) {
	c.tick++
	c.used[l.idx] = c.tick
}

// victim returns the index of the line to fill for tag: an invalid way
// if any, otherwise the LRU way. The caller must handle eviction of the
// line if it is valid, then install the new identity via fill.
func (c *cacheArray) victim(tag uint64) int {
	base := c.setBase(tag)
	tags := c.tags[base : base+c.ways]
	used := c.used[base : base+c.ways]
	vi := 0
	for i, tg := range tags {
		if tg == 0 {
			return base + i
		}
		if used[i] < used[vi] {
			vi = i
		}
	}
	return base + vi
}

// fill installs a fresh line identity at index i (obtained from victim)
// and returns the line for further field setup.
func (c *cacheArray) fill(i int, tag uint64, state byte) *line {
	c.tags[i] = tag + 1
	c.used[i] = 0
	c.changes++
	l := &c.lines[i]
	*l = line{tag: tag, state: state, valid: true, idx: int32(i)}
	return l
}

// drop invalidates the line at index i.
func (c *cacheArray) drop(i int) {
	c.tags[i] = 0
	c.lines[i].valid = false
	c.changes++
}

// invalidate drops tag if present, returning whether it was Modified.
func (c *cacheArray) invalidate(tag uint64) (present, wasModified bool) {
	base := c.set(tag) * c.ways
	want := tag + 1
	for i, tg := range c.tags[base : base+c.ways] {
		if tg == want {
			c.drop(base + i)
			return true, c.lines[base+i].state == Modified
		}
	}
	return false, false
}

// Config holds geometry and latency parameters for the hierarchy.
type Config struct {
	L1Size, L1Ways   int
	L2Size, L2Ways   int // L2Size 0 disables the private L2 (near-memory core profile)
	LLCSize, LLCWays int

	L1HitCycles  uint64
	L2HitCycles  uint64
	LLCHitCycles uint64
	MemCycles    uint64
	// DirtyTransferCycles is the extra cost of sourcing a line from
	// another core's modified copy (cache-to-cache transfer).
	DirtyTransferCycles uint64
	// InvalidateCycles is charged per remote sharer invalidated on a
	// write (the cross-core communication the paper worries about).
	InvalidateCycles uint64
}

// DefaultConfig mirrors a contemporary server part (per-core 32 KiB L1D,
// 256 KiB L2; 8 MiB shared LLC).
func DefaultConfig() Config {
	return Config{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		LLCSize: 8 << 20, LLCWays: 16,
		L1HitCycles:  4,
		L2HitCycles:  12,
		LLCHitCycles: 40,
		MemCycles:    200,
		// Cortex-A72-class cluster-local cache-to-cache transfer (the
		// paper's §4.2 machine; its weak memory model keeps cross-core
		// handoff cheap).
		DirtyTransferCycles: 40,
		InvalidateCycles:    20,
	}
}

// CoreStats are the per-core PMU-visible cache counters.
type CoreStats struct {
	Loads          uint64
	Stores         uint64
	L1Misses       uint64
	L2Misses       uint64
	LLCLoadMisses  uint64 // demand loads missing the shared LLC
	LLCStoreMisses uint64 // demand stores (RFOs) missing the shared LLC
	Invalidations  uint64 // remote copies this core's writes killed
	DirtyTransfers uint64 // lines sourced from a remote modified copy
}

// ClassStats attribute a core's demand traffic and misses to one
// address class (region.Class). They are observation-only: the summed
// per-class values equal the CoreStats fields, and recording them has
// no effect on cycles or replacement state.
type ClassStats struct {
	Loads          uint64
	Stores         uint64
	L1Misses       uint64
	LLCLoadMisses  uint64
	LLCStoreMisses uint64
}

type coreCaches struct {
	l1 *cacheArray
	l2 *cacheArray // nil when disabled
	// mru points at the L1 line this core touched last. It may go stale
	// (evicted, reused for another tag, invalidated by a remote core);
	// every consumer revalidates tag and state before trusting it.
	mru *line
}

// System is the full hierarchy shared by all cores of a machine.
type System struct {
	cfg       Config
	cores     []*coreCaches
	llc       *cacheArray
	stats     []CoreStats
	class     []ClassStats // region.NumClasses entries per core
	memCycles []uint64     // per-core DRAM latency (near-memory cores are lower)
}

// NewSystem builds a hierarchy for ncores cores.
func NewSystem(cfg Config, ncores int) *System {
	if ncores <= 0 || ncores > 64 {
		panic("cache: core count must be 1..64")
	}
	s := &System{
		cfg:   cfg,
		llc:   newArray(cfg.LLCSize, cfg.LLCWays),
		stats: make([]CoreStats, ncores),
		class: make([]ClassStats, ncores*region.NumClasses),
	}
	for i := 0; i < ncores; i++ {
		cc := &coreCaches{l1: newArray(cfg.L1Size, cfg.L1Ways)}
		if cfg.L2Size > 0 {
			cc.l2 = newArray(cfg.L2Size, cfg.L2Ways)
		}
		s.cores = append(s.cores, cc)
		s.memCycles = append(s.memCycles, cfg.MemCycles)
	}
	return s
}

// NewSystemHetero builds a hierarchy where each core may have its own
// private-cache geometry and DRAM latency (used for the near-memory
// offload core ablation, paper §3.2). perCore[i] overrides the private
// levels and MemCycles of core i; the shared LLC always comes from base.
func NewSystemHetero(base Config, perCore []Config) *System {
	s := &System{
		cfg:   base,
		llc:   newArray(base.LLCSize, base.LLCWays),
		stats: make([]CoreStats, len(perCore)),
		class: make([]ClassStats, len(perCore)*region.NumClasses),
	}
	for _, cfg := range perCore {
		cc := &coreCaches{l1: newArray(cfg.L1Size, cfg.L1Ways)}
		if cfg.L2Size > 0 {
			cc.l2 = newArray(cfg.L2Size, cfg.L2Ways)
		}
		s.cores = append(s.cores, cc)
		mc := cfg.MemCycles
		if mc == 0 {
			mc = base.MemCycles
		}
		s.memCycles = append(s.memCycles, mc)
	}
	return s
}

// Stats returns a copy of core c's counters.
func (s *System) Stats(c int) CoreStats { return s.stats[c] }

// ClassStats returns a copy of core c's per-class attribution counters,
// indexed by region.Class.
func (s *System) ClassStats(c int) [region.NumClasses]ClassStats {
	var out [region.NumClasses]ClassStats
	copy(out[:], s.class[c*region.NumClasses:])
	return out
}

func (s *System) classStat(c int, cls region.Class) *ClassStats {
	return &s.class[c*region.NumClasses+int(cls)]
}

// backInvalidate removes a line from every sharer's private caches
// (inclusive-LLC back-invalidation); it reports whether any private copy
// was Modified.
func (s *System) backInvalidate(le *line) bool {
	anyDirty := false
	for c := 0; le.sharers != 0 && c < len(s.cores); c++ {
		bit := uint64(1) << uint(c)
		if le.sharers&bit == 0 {
			continue
		}
		cc := s.cores[c]
		_, m1 := cc.l1.invalidate(le.tag)
		var m2 bool
		if cc.l2 != nil {
			_, m2 = cc.l2.invalidate(le.tag)
		}
		anyDirty = anyDirty || m1 || m2
		le.sharers &^= bit
	}
	return anyDirty
}

// fillPrivate installs tag into core c's L1 (and L2 when present) with
// the given MESI state, handling inclusive evictions. It returns extra
// cycles charged for evictions that had to write back.
//
// Callers always know whether L2 already holds the line (they probed it
// on the way down) and that L1 does not (an L1 hit never reaches here),
// so the line is passed in rather than re-found: l2line is core c's L2
// copy of tag, or nil when L2 missed or is disabled.
func (s *System) fillPrivate(c int, tag uint64, state byte, l2line *line) uint64 {
	cc := s.cores[c]
	var extra uint64
	if cc.l2 != nil {
		if l2line == nil {
			vi := cc.l2.victim(tag)
			if v := &cc.l2.lines[vi]; v.valid {
				extra += s.evictPrivate(c, v)
			}
			cc.l2.touch(cc.l2.fill(vi, tag, state))
		} else {
			l2line.state = state
			cc.l2.touch(l2line)
		}
	}
	vi := cc.l1.victim(tag)
	if v := &cc.l1.lines[vi]; v.valid {
		extra += s.evictL1(c, v)
	}
	v := cc.l1.fill(vi, tag, state)
	cc.l1.touch(v)
	cc.mru = v
	return extra
}

// SameLineFastClass attempts the model update for an access the caller
// believes lands on the line core c touched last. It succeeds only when
// the line is still L1-resident under the same tag and in a state that
// requires no coherence action (any state for a read; Modified or
// Exclusive for a write). On success it applies the exact side effects
// the full Access path would — demand counter, LRU touch, E->M upgrade —
// and returns (L1HitCycles, true); otherwise it changes nothing and the
// caller must take Access. The access is attributed to cls.
func (s *System) SameLineFastClass(c int, tag uint64, isWrite bool, cls region.Class) (uint64, bool) {
	cc := s.cores[c]
	l := cc.mru
	if l == nil || !l.valid || l.tag != tag {
		return 0, false
	}
	if isWrite {
		switch l.state {
		case Modified:
		case Exclusive:
			l.state = Modified
		default: // Shared needs a directory upgrade: full path.
			return 0, false
		}
		s.stats[c].Stores++
		s.classStat(c, cls).Stores++
	} else {
		s.stats[c].Loads++
		s.classStat(c, cls).Loads++
	}
	cc.l1.touch(l)
	return s.cfg.L1HitCycles, true
}

// SameLineBatchClass retires k back-to-back accesses to one line in a
// single step: the line must be core c's MRU line, L1-resident, and
// (for writes) owned. On success the demand counters advance by k, the LRU
// tick advances by k with the line stamped at the final tick, and an
// Exclusive line upgrades to Modified once — the exact state k
// successive L1-hit accesses would leave. Returns the per-access hit
// cycles. The accesses are attributed to cls.
func (s *System) SameLineBatchClass(c int, tag uint64, isWrite bool, k uint64, cls region.Class) (uint64, bool) {
	cc := s.cores[c]
	l := cc.mru
	if l == nil || !l.valid || l.tag != tag {
		return 0, false
	}
	if isWrite {
		switch l.state {
		case Modified:
		case Exclusive:
			l.state = Modified
		default: // Shared needs a directory upgrade: full path.
			return 0, false
		}
		s.stats[c].Stores += k
		s.classStat(c, cls).Stores += k
	} else {
		s.stats[c].Loads += k
		s.classStat(c, cls).Loads += k
	}
	cc.l1.tick += k
	cc.l1.used[l.idx] = cc.l1.tick
	return s.cfg.L1HitCycles, true
}

// L1HitCycles exposes the configured L1 hit latency (for callers that
// pre-compute how many hits fit inside a scheduling lease).
func (s *System) L1HitCycles() uint64 { return s.cfg.L1HitCycles }

// evictL1 handles an L1 eviction: a Modified line merges into L2 (or the
// LLC when there is no L2). The sharer bit survives while the line is
// still in L2.
func (s *System) evictL1(c int, v *line) uint64 {
	cc := s.cores[c]
	if v.state != Modified {
		if cc.l2 == nil || cc.l2.find(v.tag) == nil {
			s.releaseLine(c, v.tag, false)
		}
		return 0
	}
	if cc.l2 != nil {
		if l2line := cc.l2.find(v.tag); l2line != nil {
			l2line.state = Modified
			return 0
		}
	}
	// No L2 copy: dirty data returns to the LLC.
	s.releaseLine(c, v.tag, true)
	return 0
}

// evictPrivate handles an L2 eviction: inclusive back-invalidation of L1
// and write-back of dirty data into the LLC.
func (s *System) evictPrivate(c int, v *line) uint64 {
	cc := s.cores[c]
	dirty := v.state == Modified
	if present, m := cc.l1.invalidate(v.tag); present && m {
		dirty = true
	}
	s.releaseLine(c, v.tag, dirty)
	return 0
}

// releaseLine records in the directory that core c no longer holds tag
// in any private level: the sharer bit and any ownership claim clear,
// and dirty data (if any) is absorbed into the LLC copy. One LLC probe
// covers what the write-back and the sharer drop each need.
func (s *System) releaseLine(c int, tag uint64, dirty bool) {
	if le := s.llc.find(tag); le != nil {
		if dirty {
			le.dirty = true
		}
		le.sharers &^= uint64(1) << uint(c)
		if le.owner == int8(c) {
			le.owner = -1
		}
	}
}

// upgrade obtains write ownership of a line core c already holds Shared:
// every other sharer is invalidated through the directory.
func (s *System) upgrade(c int, tag uint64) uint64 {
	le := s.llc.find(tag)
	if le == nil {
		// The line escaped the LLC (non-inclusive corner after an LLC
		// eviction raced with the private copy); treat as silent upgrade.
		return 0
	}
	var cycles uint64
	myBit := uint64(1) << uint(c)
	for oc := 0; le.sharers&^myBit != 0 && oc < len(s.cores); oc++ {
		bit := uint64(1) << uint(oc)
		if oc == c || le.sharers&bit == 0 {
			continue
		}
		occ := s.cores[oc]
		p1, m1 := occ.l1.invalidate(tag)
		var p2, m2 bool
		if occ.l2 != nil {
			p2, m2 = occ.l2.invalidate(tag)
		}
		if p1 || p2 {
			cycles += s.cfg.InvalidateCycles
			s.stats[c].Invalidations++
		}
		if m1 || m2 {
			le.dirty = true
		}
		le.sharers &^= bit
	}
	le.owner = int8(c)
	le.sharers |= myBit
	return cycles
}

// Access performs one demand access by core c to physical address paddr
// and returns the cycles it cost. isWrite selects an RFO; isAtomic marks
// the access as a locked RMW (same coherence behaviour, the extra
// latency is charged by the caller).
func (s *System) Access(c int, paddr uint64, isWrite bool) uint64 {
	return s.AccessClass(c, paddr, isWrite, region.User)
}

// AccessClass is Access with the demand attributed to address class cls.
// The hierarchy walk, replacement decisions, and returned cycles are
// identical to Access; only the per-class attribution counters differ.
func (s *System) AccessClass(c int, paddr uint64, isWrite bool, cls region.Class) uint64 {
	tag := paddr >> LineShift
	st := &s.stats[c]
	ct := s.classStat(c, cls)
	if isWrite {
		st.Stores++
		ct.Stores++
	} else {
		st.Loads++
		ct.Loads++
	}
	cc := s.cores[c]

	// L1 fast path.
	l := cc.l1.findMRU(tag)
	if l == nil {
		l = cc.l1.find(tag)
	}
	if l != nil {
		cc.mru = l
		cc.l1.touch(l)
		if !isWrite {
			return s.cfg.L1HitCycles
		}
		switch l.state {
		case Modified:
			return s.cfg.L1HitCycles
		case Exclusive:
			l.state = Modified
			return s.cfg.L1HitCycles
		default: // Shared: upgrade through the directory
			cyc := s.upgrade(c, tag)
			l.state = Modified
			if l2 := cc.l2; l2 != nil {
				if l2line := l2.find(tag); l2line != nil {
					l2line.state = Modified
				}
			}
			return s.cfg.L1HitCycles + cyc
		}
	}
	st.L1Misses++
	ct.L1Misses++

	// L2.
	if cc.l2 != nil {
		if l := cc.l2.find(tag); l != nil {
			cc.l2.touch(l)
			state := l.state
			var cyc uint64
			if isWrite {
				if state == Shared {
					cyc = s.upgrade(c, tag)
				}
				state = Modified
				l.state = Modified
			}
			cyc += s.fillPrivate(c, tag, state, l)
			return s.cfg.L2HitCycles + cyc
		}
		st.L2Misses++
	} else {
		st.L2Misses++
	}

	// Shared LLC.
	if le := s.llc.find(tag); le != nil {
		s.llc.touch(le)
		cycles := s.cfg.LLCHitCycles
		myBit := uint64(1) << uint(c)
		if le.owner >= 0 && le.owner != int8(c) {
			// Another core holds the line Modified: cache-to-cache.
			cycles += s.cfg.DirtyTransferCycles
			st.DirtyTransfers++
			oc := int(le.owner)
			occ := s.cores[oc]
			if isWrite {
				p1, _ := occ.l1.invalidate(tag)
				var p2 bool
				if occ.l2 != nil {
					p2, _ = occ.l2.invalidate(tag)
				}
				if p1 || p2 {
					st.Invalidations++
				}
				le.sharers &^= uint64(1) << uint(oc)
			} else {
				// Downgrade the owner to Shared.
				if l := occ.l1.find(tag); l != nil {
					l.state = Shared
				}
				if occ.l2 != nil {
					if l := occ.l2.find(tag); l != nil {
						l.state = Shared
					}
				}
			}
			le.dirty = true
			le.owner = -1
		}
		var state byte
		if isWrite {
			cycles += s.invalidateOthers(c, le)
			le.owner = int8(c)
			state = Modified
		} else if le.sharers&^myBit == 0 {
			state = Exclusive
		} else {
			// Our read makes the line Shared everywhere: demote any
			// remote Exclusive copy (snoop piggybacks on the fill).
			for oc := 0; oc < len(s.cores); oc++ {
				if oc == c || le.sharers&(uint64(1)<<uint(oc)) == 0 {
					continue
				}
				occ := s.cores[oc]
				if l := occ.l1.find(tag); l != nil && l.state == Exclusive {
					l.state = Shared
				}
				if occ.l2 != nil {
					if l := occ.l2.find(tag); l != nil && l.state == Exclusive {
						l.state = Shared
					}
				}
			}
			state = Shared
		}
		le.sharers |= myBit
		cycles += s.fillPrivate(c, tag, state, nil)
		return cycles
	}

	// Miss all the way to memory.
	if isWrite {
		st.LLCStoreMisses++
		ct.LLCStoreMisses++
	} else {
		st.LLCLoadMisses++
		ct.LLCLoadMisses++
	}
	vi := s.llc.victim(tag)
	if v := &s.llc.lines[vi]; v.valid {
		if s.backInvalidate(v) {
			v.dirty = true
		}
		// Dirty victim writes back to memory; the latency overlaps the
		// fill in modern parts, so no extra stall is charged.
	}
	v := s.llc.fill(vi, tag, 0)
	v.owner = -1
	s.llc.touch(v)
	state := Exclusive
	if isWrite {
		state = Modified
		v.owner = int8(c)
	}
	v.sharers = uint64(1) << uint(c)
	cycles := s.memCycles[c] + s.fillPrivate(c, tag, state, nil)
	return cycles
}

// invalidateOthers kills every remote copy of le on behalf of writer c.
func (s *System) invalidateOthers(c int, le *line) uint64 {
	var cycles uint64
	myBit := uint64(1) << uint(c)
	st := &s.stats[c]
	for oc := 0; le.sharers&^myBit != 0 && oc < len(s.cores); oc++ {
		bit := uint64(1) << uint(oc)
		if oc == c || le.sharers&bit == 0 {
			continue
		}
		occ := s.cores[oc]
		p1, m1 := occ.l1.invalidate(le.tag)
		var p2, m2 bool
		if occ.l2 != nil {
			p2, m2 = occ.l2.invalidate(le.tag)
		}
		if p1 || p2 {
			cycles += s.cfg.InvalidateCycles
			st.Invalidations++
		}
		if m1 || m2 {
			le.dirty = true
		}
		le.sharers &^= bit
	}
	return cycles
}

// Contains reports whether core c's private caches currently hold the
// line containing paddr (test hook).
func (s *System) Contains(c int, paddr uint64) bool {
	tag := paddr >> LineShift
	cc := s.cores[c]
	if cc.l1.find(tag) != nil {
		return true
	}
	return cc.l2 != nil && cc.l2.find(tag) != nil
}

// ProbeL1 returns the dense way index of the L1 line holding tag in core
// c's L1, or -1. Pure lookup: unlike find, it updates neither the set's
// MRU hint nor any LRU state, so callers can interrogate residency
// without perturbing the model (the time-warp replay path depends on
// this).
func (s *System) ProbeL1(c int, tag uint64) int {
	l1 := s.cores[c].l1
	base := l1.setBase(tag)
	want := tag + 1
	for i, tg := range l1.tags[base : base+l1.ways] {
		if tg == want {
			return base + i
		}
	}
	return -1
}

// L1Holds reports whether core c's L1 still holds tag at the dense way
// index idx that ProbeL1 returned for it. Pure lookup, O(1): a parked
// wait round re-checks its watched lines this way before every lease.
func (s *System) L1Holds(c, idx int, tag uint64) bool {
	return s.cores[c].l1.tags[idx] == tag+1
}

// L1Drops returns how many times a way of core c's L1 has been dropped
// or refilled. While it stands still every L1Holds answer stands still
// too, so a parked wait round re-checks its watched lines only when it
// moved.
func (s *System) L1Drops(c int) uint64 { return s.cores[c].l1.changes }

// ReplayL1Loads applies the exact model-state delta of k repetitions of
// a load-only round that hit core c's L1 at the dense way indexes idxs
// (in issue order; duplicates allowed), access i attributed to cls[i].
//
// The caller must have established — by running the round concretely —
// that every access is an L1 load hit, and core c must have made no
// other access since. Other cores may have dropped some of the ways in
// the meantime: a dropped way's stamp is never read before a refill
// resets it, so the time warp can charge a parked thread's rounds late.
// Under those conditions each concrete access performs exactly one demand
// count and one LRU touch (tick advance + way stamp), so k rounds leave:
// the demand counters advanced by k per access, the LRU tick advanced by
// k*len(idxs), and each way stamped where its last occurrence in the
// final round would have stamped it. MRU hints are already at their
// fixed point after the concrete round (identical rounds re-establish
// the same hints) and are left untouched.
func (s *System) ReplayL1Loads(c int, idxs []int, cls []region.Class, k uint64) {
	a := uint64(len(idxs))
	if a == 0 || k == 0 {
		return
	}
	s.stats[c].Loads += k * a
	for _, cl := range cls {
		s.classStat(c, cl).Loads += k
	}
	l1 := s.cores[c].l1
	l1.tick += k * a
	for i, idx := range idxs {
		l1.used[idx] = l1.tick - (a - 1 - uint64(i))
	}
}
