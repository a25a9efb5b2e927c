package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"nextgenmalloc/internal/fault"
)

// KindSyntax is the grammar of a kind spec, one NextGen variant named by
// the paper's design coordinates (offload §3.1, layout §3.1.2, prealloc
// §3.3.2, async free) and the server's service discipline (ring-service
// order, fleet partition): a base, nextgen (offloaded) or nextgen-inline,
// then keys, each setting only its own Config fields. Named variants
// (nextgen-prealloc, say) are the harness's rows, each a base and keys.
const KindSyntax = "nextgen[-inline][:key=value,...] with keys layout=segregated|aggregated|compact, " +
	"prealloc=off|static|adaptive, free=async|sync, slots=N (a power of two in [4, 4096]), " +
	"sched=fixed-scan|round-robin|doorbell-priority|batch-drain, partition=client|class"

// PreallocPolicy selects predictive preallocation (§3.3.2 / the MMT
// discussion): whether the server hands each malloc response extra
// blocks of the same class for the client to consume locally, and how
// many (stashDepth).
type PreallocPolicy int

const (
	// PreallocOff stocks no stash (the §4.2 prototype).
	PreallocOff PreallocPolicy = iota
	// PreallocStatic fills every requested class's stash to staticDepth.
	PreallocStatic
	// PreallocAdaptive sizes each class's stash from its rank in the
	// client's recent-allocation list (noteHot), so hot classes get a
	// deep stash and cold classes none.
	PreallocAdaptive
)

// preallocNames are the policies' kind-spec spellings.
var preallocNames = [...]string{PreallocOff: "off", PreallocStatic: "static", PreallocAdaptive: "adaptive"}

// String reports the policy's kind-spec spelling.
func (p PreallocPolicy) String() string {
	if p >= 0 && int(p) < len(preallocNames) {
		return preallocNames[p]
	}
	return fmt.Sprintf("prealloc(%d)", int(p))
}

// kindKeys are the spec's keys in the order keyValues reads them back.
var kindKeys = [...]string{"layout", "prealloc", "free", "slots", "sched", "partition"}

// setKey sets exactly the Config fields key k owns from value v.
func setKey(c *Config, k, v string) (err error) {
	switch k {
	case "layout":
		c.Layout, err = ParseLayout(v)
		return err
	case "prealloc":
		p := slices.Index(preallocNames[:], v)
		if p < 0 {
			return fmt.Errorf("unknown prealloc policy %q (want off, static, or adaptive)", v)
		}
		c.Prealloc = PreallocPolicy(p)
	case "free":
		if v != "async" && v != "sync" {
			return fmt.Errorf("unknown free policy %q (want async or sync)", v)
		}
		c.AsyncFree = v == "async"
	case "slots":
		n, err := strconv.Atoi(v)
		if err != nil || n < 4 || n > 4096 || n&(n-1) != 0 {
			return fmt.Errorf("slots=%s: want a power of two in [4, 4096]", v)
		}
		c.RingSlots = n
	case "sched":
		c.Sched, err = ParseSched(v)
		return err
	case "partition":
		c.Partition, err = ParsePartition(v)
		return err
	default:
		return fmt.Errorf("unknown key %q (want layout, prealloc, free, slots, sched, or partition)", k)
	}
	return nil
}

// keyValues reads c back as the values of kindKeys.
func keyValues(c Config) [len(kindKeys)]string {
	free := "sync"
	if c.AsyncFree {
		free = "async"
	}
	return [...]string{c.Layout.String(), c.Prealloc.String(), free, strconv.Itoa(c.RingSlots), c.Sched.String(), c.Partition.String()}
}

// ParseKind resolves a kind spec (KindSyntax) to its Config:
// DefaultConfig with the base's Offload, then the spec's keys in order.
func ParseKind(spec string) (Config, error) {
	name, keys, keyed := strings.Cut(spec, ":")
	cfg := DefaultConfig()
	switch name {
	case "nextgen":
	case "nextgen-inline":
		cfg.Offload = false
	default:
		return Config{}, fmt.Errorf("unknown allocator %q (want %s)", name, KindSyntax)
	}
	if keyed {
		return cfg, ApplyKeys(&cfg, spec, keys)
	}
	return cfg, nil
}

// ApplyKeys sets each key=value pair of keys on cfg, in order, through
// the one key=value walker (a key repeated within keys is an error);
// spec names the allocator in errors. The harness applies a caller's
// keys with it after a named variant's own.
func ApplyKeys(cfg *Config, spec, keys string) error {
	prefix := fmt.Sprintf("allocator %q", spec)
	return fault.WalkKV(prefix, keys, func(k, v string) error {
		if v == "" {
			return fmt.Errorf("%s: key %q has no value", prefix, k)
		}
		return setKey(cfg, k, v)
	})
}

// Name spells c as its canonical kind spec: the base, then each key
// whose value differs from the base's.
func (c Config) Name() string {
	spec := "nextgen-inline"
	if c.Offload {
		spec = "nextgen"
	}
	base, _ := ParseKind(spec)
	have, sep := keyValues(base), ":"
	for i, v := range keyValues(c) {
		if v != have[i] {
			spec, sep = spec+sep+kindKeys[i]+"="+v, ","
		}
	}
	return spec
}
