// Package tlb models a two-level data TLB with LRU replacement.
//
// The paper's Table 1 shows dTLB-load misses varying by more than 10x
// between allocators and attributes "100s of cycles" to each miss; the
// model therefore distinguishes L1 dTLB misses that hit the second-level
// TLB (cheap) from true misses that walk the page table (expensive), and
// only the latter are reported as dTLB misses, matching what perf's
// dTLB-load-misses event counts.
package tlb

import "nextgenmalloc/internal/region"

// Stats holds per-TLB hit/miss counters, split by access type the way
// hardware PMUs split them.
type Stats struct {
	LoadHits    uint64
	LoadMisses  uint64 // page walks triggered by loads
	StoreHits   uint64
	StoreMisses uint64 // page walks triggered by stores
	STLBHits    uint64 // L1 misses that the second level absorbed
}

// ClassStats attribute a TLB's page walks to one address class
// (region.Class). Hits are not broken down: only walks carry the
// pollution cost the paper's Table 1 reports.
type ClassStats struct {
	LoadMisses  uint64
	StoreMisses uint64
}

// level is one set-associative translation array with LRU replacement.
// Entries live in dense parallel slices (vpns stores vpn+1; 0 marks an
// invalid way) so a way scan touches 8 bytes per way — the same
// host-side layout internal/cache uses for its tag arrays.
type level struct {
	sets    int
	ways    int
	setMask uint64   // sets-1 when sets is a power of two, else 0
	vpns    []uint64 // vpn+1 per way, 0 when invalid
	used    []uint64 // LRU timestamp per way
	tick    uint64
}

func newLevel(totalEntries, ways int) *level {
	if totalEntries%ways != 0 {
		panic("tlb: entries must be a multiple of ways")
	}
	sets := totalEntries / ways
	l := &level{
		sets: sets,
		ways: ways,
		vpns: make([]uint64, totalEntries),
		used: make([]uint64, totalEntries),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	return l
}

// setIndex maps a vpn to its set. The low bit of vpn is the page-size
// tag, so the index uses the bits above it. Power-of-two geometries
// (every shipped config) take the mask path instead of a hardware
// divide; both compute the same index.
func (l *level) setIndex(vpn uint64) int {
	if l.setMask != 0 || l.sets == 1 {
		return int(vpn >> 1 & l.setMask)
	}
	return int(vpn>>1) % l.sets
}

// lookup probes the level; on hit it refreshes LRU state and returns the
// way index, or -1 on miss.
func (l *level) lookup(vpn uint64) int {
	l.tick++
	base := l.setIndex(vpn) * l.ways
	want := vpn + 1
	for i, v := range l.vpns[base : base+l.ways] {
		if v == want {
			l.used[base+i] = l.tick
			return base + i
		}
	}
	return -1
}

// insert fills vpn into the level, evicting the LRU way.
func (l *level) insert(vpn uint64) {
	l.tick++
	base := l.setIndex(vpn) * l.ways
	vpns := l.vpns[base : base+l.ways]
	used := l.used[base : base+l.ways]
	victim := 0
	for i, v := range vpns {
		if v == 0 {
			victim = i
			break
		}
		if used[i] < used[victim] {
			victim = i
		}
	}
	vpns[victim] = vpn + 1
	used[victim] = l.tick
}

// flush invalidates every entry (used by Invalidate).
func (l *level) flush() {
	for i := range l.vpns {
		l.vpns[i] = 0
	}
}

// Config sets the geometry and costs of the two levels.
type Config struct {
	L1Entries int
	L1Ways    int
	L2Entries int
	L2Ways    int
	// STLBHitCycles is the penalty for an L1 miss that the STLB absorbs.
	STLBHitCycles uint64
	// WalkCycles is the page-table walk penalty for a full miss (the
	// paper cites "100s of cycles").
	WalkCycles uint64
}

// DefaultConfig mirrors a Skylake/Neoverse-class dTLB.
func DefaultConfig() Config {
	return Config{
		L1Entries:     64,
		L1Ways:        4,
		L2Entries:     1536,
		L2Ways:        12,
		STLBHitCycles: 9,
		WalkCycles:    120,
	}
}

// TLB is a private per-core data TLB.
type TLB struct {
	cfg   Config
	l1    *level
	stlb  *level
	stats Stats
	class [region.NumClasses]ClassStats
	// mru is the L1 way index that hit most recently (-1 when unknown).
	// Same-page access runs (the common case: word-by-word walks of an
	// object) take an O(1) path with side effects identical to a full
	// set probe.
	mru int
}

// New builds a TLB from cfg.
func New(cfg Config) *TLB {
	return &TLB{
		cfg:  cfg,
		l1:   newLevel(cfg.L1Entries, cfg.L1Ways),
		stlb: newLevel(cfg.L2Entries, cfg.L2Ways),
		mru:  -1,
	}
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ClassStats returns a copy of the per-class walk counters, indexed by
// region.Class.
func (t *TLB) ClassStats() [region.NumClasses]ClassStats { return t.class }

// Access translates the page containing vaddr and returns the extra
// cycles charged for translation (0 on an L1 hit). isStore selects which
// PMU counter a walk lands in. pageShift is the mapping's granularity
// (12 for 4 KiB pages, 21 for 2 MiB pages); entries of different
// granularities never alias because the size is folded into the tag.
func (t *TLB) Access(vaddr uint64, isStore bool, pageShift uint) uint64 {
	return t.AccessClass(vaddr, isStore, pageShift, region.User)
}

// AccessClass is Access with any page walk attributed to address class
// cls. Translation behaviour and cycles are identical to Access.
func (t *TLB) AccessClass(vaddr uint64, isStore bool, pageShift uint, cls region.Class) uint64 {
	vpn := vaddr>>pageShift<<1 | uint64(pageShift>>4&1)
	// MRU fast path: a repeat hit on the last-hit L1 entry performs the
	// exact side effects of a full probe that hits (tick advance + LRU
	// refresh + hit counter), just without the way scan.
	if i := t.mru; i >= 0 && t.l1.vpns[i] == vpn+1 {
		t.l1.tick++
		t.l1.used[i] = t.l1.tick
		if isStore {
			t.stats.StoreHits++
		} else {
			t.stats.LoadHits++
		}
		return 0
	}
	if i := t.l1.lookup(vpn); i >= 0 {
		t.mru = i
		if isStore {
			t.stats.StoreHits++
		} else {
			t.stats.LoadHits++
		}
		return 0
	}
	if t.stlb.lookup(vpn) >= 0 {
		t.stats.STLBHits++
		t.l1.insert(vpn)
		if isStore {
			t.stats.StoreHits++
		} else {
			t.stats.LoadHits++
		}
		return t.cfg.STLBHitCycles
	}
	if isStore {
		t.stats.StoreMisses++
		t.class[cls].StoreMisses++
	} else {
		t.stats.LoadMisses++
		t.class[cls].LoadMisses++
	}
	t.stlb.insert(vpn)
	t.l1.insert(vpn)
	return t.cfg.WalkCycles
}

// HitMRU attempts the MRU fast path alone: if vaddr's page is the L1's
// most recently hit entry it applies the exact side effects of an L1 hit
// (tick advance, LRU refresh, hit counter) and returns true; otherwise
// it changes nothing and the caller must call Access. Small enough to
// inline at call sites that probe the same page repeatedly.
func (t *TLB) HitMRU(vaddr uint64, isStore bool, pageShift uint) bool {
	vpn := vaddr>>pageShift<<1 | uint64(pageShift>>4&1)
	i := t.mru
	if i < 0 || t.l1.vpns[i] != vpn+1 {
		return false
	}
	t.l1.tick++
	t.l1.used[i] = t.l1.tick
	if isStore {
		t.stats.StoreHits++
	} else {
		t.stats.LoadHits++
	}
	return true
}

// PageResidentMRU reports whether vaddr's page is the L1's most recently
// hit entry. Pure check: no counter, tick, or LRU side effects.
func (t *TLB) PageResidentMRU(vaddr uint64, pageShift uint) bool {
	vpn := vaddr>>pageShift<<1 | uint64(pageShift>>4&1)
	i := t.mru
	return i >= 0 && t.l1.vpns[i] == vpn+1
}

// AccessBatchMRU charges k back-to-back accesses to the MRU page. The
// caller must have verified PageResidentMRU for every one of them (no
// other translation may intervene). The model state afterwards — tick,
// LRU stamp, hit counters — is exactly what k Access calls would leave.
func (t *TLB) AccessBatchMRU(isStore bool, k uint64) {
	t.l1.tick += k
	t.l1.used[t.mru] = t.l1.tick
	if isStore {
		t.stats.StoreHits += k
	} else {
		t.stats.LoadHits += k
	}
}

// ProbeL1Way returns the dense way index of the L1 entry translating
// vaddr's page, or -1. Pure lookup: no tick, LRU, MRU, or counter side
// effects (the time-warp replay path depends on this).
func (t *TLB) ProbeL1Way(vaddr uint64, pageShift uint) int {
	vpn := vaddr>>pageShift<<1 | uint64(pageShift>>4&1)
	l1 := t.l1
	base := l1.setIndex(vpn) * l1.ways
	want := vpn + 1
	for i, v := range l1.vpns[base : base+l1.ways] {
		if v == want {
			return base + i
		}
	}
	return -1
}

// L1Holds reports whether the L1 entry at the dense way index way (as
// ProbeL1Way returned it) still translates vaddr's page. Pure lookup,
// O(1).
func (t *TLB) L1Holds(way int, vaddr uint64, pageShift uint) bool {
	return t.l1.vpns[way] == vaddr>>pageShift<<1|uint64(pageShift>>4&1)+1
}

// ReplayL1LoadHits applies the exact model-state delta of k repetitions
// of a load-only round whose translations all hit the L1 at the dense
// way indexes ways (in issue order; duplicates allowed).
//
// The caller must have established — by running the round concretely
// under a scheduler lease — that every translation is an L1 load hit.
// Each concrete hit (MRU fast path or full probe) performs exactly one
// tick advance, one way stamp, and one LoadHits count, so k rounds
// leave: LoadHits advanced by k*len(ways), the tick advanced by
// k*len(ways), and each way stamped where its last occurrence in the
// final round would have stamped it. The MRU hint is already at its
// fixed point after the concrete round and is left untouched.
func (t *TLB) ReplayL1LoadHits(ways []int, k uint64) {
	a := uint64(len(ways))
	if a == 0 || k == 0 {
		return
	}
	t.stats.LoadHits += k * a
	t.l1.tick += k * a
	for i, w := range ways {
		t.l1.used[w] = t.l1.tick - (a - 1 - uint64(i))
	}
}

// Invalidate flushes both levels (e.g. after munmap).
func (t *TLB) Invalidate() {
	t.l1.flush()
	t.stlb.flush()
	t.mru = -1
}
