package core

import (
	"fmt"
	"strconv"
	"strings"

	"nextgenmalloc/internal/fault"
)

// KindSyntax is the grammar of a kind spec, one NextGen variant named by
// the paper's design coordinates (offload §3.1, layout §3.1.2, prealloc
// §3.3.2, async free), each key setting only its own Config fields. An
// alias in kindTable stands for a base and keys; keys after it apply
// after its own.
const KindSyntax = "nextgen[-inline][:key=value,...] with keys layout=segregated|aggregated|compact, " +
	"prealloc=off|static|adaptive, free=async|sync, slots=N (a power of two in [4, 4096])"

// kindTable lists the NextGen kind names in golden-file order: the two
// bases and the aliases, each an Offload and the keys it stands for. A
// base precedes the aliases sharing its Offload, so kindOf keys a base.
var kindTable = []struct {
	name    string
	offload bool
	keys    string
}{
	{"nextgen", true, ""},
	{"nextgen-prealloc", true, "prealloc=static"},
	{"nextgen-sync", true, "free=sync"},
	{"nextgen-inline", false, ""},
	{"nextgen-inline-agg", false, "layout=aggregated"},
	{"nextgen-adaptive", true, "prealloc=adaptive"},
	{"nextgen-compact", true, "layout=compact"},
	{"nextgen-inline-compact", false, "layout=compact"},
}

// kindKeys are the spec's keys in the order keyValues reads them back.
var kindKeys = [...]string{"layout", "prealloc", "free", "slots"}

// setKey sets exactly the Config fields key k owns from value v.
func setKey(c *Config, k, v string) (err error) {
	switch k {
	case "layout":
		c.Layout, err = ParseLayout(v)
		return err
	case "prealloc":
		switch v {
		case "off":
			c.Prealloc, c.AdaptivePrealloc = 0, false
		case "static":
			c.Prealloc, c.AdaptivePrealloc = 12, false
		case "adaptive":
			c.AdaptivePrealloc = true // a static depth stays, ignored
		default:
			return fmt.Errorf("unknown prealloc policy %q (want off, static, or adaptive)", v)
		}
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
	default:
		return fmt.Errorf("unknown key %q (want layout, prealloc, free, or slots)", k)
	}
	return nil
}

// keyValues reads c back as the values of kindKeys (any static depth
// reads as static).
func keyValues(c Config) [4]string {
	prealloc, free := "off", "sync"
	if c.AdaptivePrealloc {
		prealloc = "adaptive"
	} else if c.Prealloc > 0 {
		prealloc = "static"
	}
	if c.AsyncFree {
		free = "async"
	}
	return [4]string{c.Layout.String(), prealloc, free, strconv.Itoa(c.RingSlots)}
}

// ParseKind resolves a kind spec (KindSyntax, or an alias and keys) to
// its Config: DefaultConfig with the base's Offload, then the alias's
// keys, then the spec's, in order.
func ParseKind(spec string) (Config, error) {
	name, keys, keyed := strings.Cut(spec, ":")
	for _, k := range kindTable {
		if k.name == name {
			cfg := DefaultConfig()
			cfg.Offload = k.offload
			if k.keys != "" {
				applyKeys(&cfg, name, k.keys) // the table's own keys are valid
			}
			if keyed {
				return cfg, applyKeys(&cfg, spec, keys)
			}
			return cfg, nil
		}
	}
	return Config{}, fmt.Errorf("unknown allocator %q (want %s, or an alias)", name, KindSyntax)
}

// applyKeys sets each key=value pair of keys on cfg, in order, through
// the one key=value walker (a repeated key is an error).
func applyKeys(cfg *Config, spec, keys string) error {
	prefix := fmt.Sprintf("allocator %q", spec)
	return fault.WalkKV(prefix, keys, func(k, v string) error {
		if v == "" {
			return fmt.Errorf("%s: key %q has no value", prefix, k)
		}
		return setKey(cfg, k, v)
	})
}

// kindOf spells cfg through kindTable, preferring in turn: the row
// whose config it is; the first row that the keys whose values differ
// from its own turn into cfg; for a config no spec makes (a hand-set
// Prealloc depth, say), the first row whose keys read the same; then
// the first row and its differing keys.
func kindOf(cfg Config) string {
	cfg.Sched, cfg.Latency, cfg.Resilience, cfg.Faults = 0, nil, Resilience{}, nil // no spec sets them
	want, best, rank := keyValues(cfg), "", 4
	for _, k := range kindTable {
		c, _ := ParseKind(k.name)
		spec, sep, r := k.name, ":", 0
		for i, v := range keyValues(c) {
			if v != want[i] {
				spec, sep, r = spec+sep+kindKeys[i]+"="+want[i], ",", 1
				setKey(&c, kindKeys[i], want[i])
			}
		}
		if c != cfg {
			r += 2
		}
		if c.Offload == cfg.Offload && r < rank {
			best, rank = spec, r
		}
	}
	return best
}
