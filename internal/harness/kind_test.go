package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
)

// tunedConfig is the part of a core.Config the kind and the -prealloc and
// -layout flags set; the rest was zero or default (RingSlots 64, Sched
// fixed-scan, no Latency, Resilience or Faults). The recorded build
// spelled prealloc as a depth and an adaptive flag; the adaptive flag
// overrode the depth, so each cell reads as one policy.
type tunedConfig struct {
	offload   bool
	layout    core.Layout
	prealloc  core.PreallocPolicy
	asyncFree bool
}

// tunedConfigs is the config the harness resolved for every NextGen kind
// in Kinds under each -prealloc and -layout value, keyed by (kind,
// -prealloc, -layout), recorded from the build that composed
// Options.Tune closures instead (the kindTable rows' tune, then
// Env.Tune from experiments.ParseTransport and ParseLayout). Classic
// kinds had no NextGen config.
var tunedConfigs = map[[3]string]tunedConfig{
	{"nextgen", "", ""}:                                  {true, core.Segregated, core.PreallocOff, true},
	{"nextgen", "", "segregated"}:                        {true, core.Segregated, core.PreallocOff, true},
	{"nextgen", "", "aggregated"}:                        {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen", "", "compact"}:                           {true, core.Compact, core.PreallocOff, true},
	{"nextgen", "off", ""}:                               {true, core.Segregated, core.PreallocOff, true},
	{"nextgen", "off", "segregated"}:                     {true, core.Segregated, core.PreallocOff, true},
	{"nextgen", "off", "aggregated"}:                     {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen", "off", "compact"}:                        {true, core.Compact, core.PreallocOff, true},
	{"nextgen", "static", ""}:                            {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen", "static", "segregated"}:                  {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen", "static", "aggregated"}:                  {true, core.Aggregated, core.PreallocStatic, true},
	{"nextgen", "static", "compact"}:                     {true, core.Compact, core.PreallocStatic, true},
	{"nextgen", "adaptive", ""}:                          {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen", "adaptive", "segregated"}:                {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen", "adaptive", "aggregated"}:                {true, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen", "adaptive", "compact"}:                   {true, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-prealloc", "", ""}:                         {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-prealloc", "", "segregated"}:               {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-prealloc", "", "aggregated"}:               {true, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-prealloc", "", "compact"}:                  {true, core.Compact, core.PreallocStatic, true},
	{"nextgen-prealloc", "off", ""}:                      {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-prealloc", "off", "segregated"}:            {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-prealloc", "off", "aggregated"}:            {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen-prealloc", "off", "compact"}:               {true, core.Compact, core.PreallocOff, true},
	{"nextgen-prealloc", "static", ""}:                   {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-prealloc", "static", "segregated"}:         {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-prealloc", "static", "aggregated"}:         {true, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-prealloc", "static", "compact"}:            {true, core.Compact, core.PreallocStatic, true},
	{"nextgen-prealloc", "adaptive", ""}:                 {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-prealloc", "adaptive", "segregated"}:       {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-prealloc", "adaptive", "aggregated"}:       {true, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-prealloc", "adaptive", "compact"}:          {true, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-sync", "", ""}:                             {true, core.Segregated, core.PreallocOff, false},
	{"nextgen-sync", "", "segregated"}:                   {true, core.Segregated, core.PreallocOff, false},
	{"nextgen-sync", "", "aggregated"}:                   {true, core.Aggregated, core.PreallocOff, false},
	{"nextgen-sync", "", "compact"}:                      {true, core.Compact, core.PreallocOff, false},
	{"nextgen-sync", "off", ""}:                          {true, core.Segregated, core.PreallocOff, false},
	{"nextgen-sync", "off", "segregated"}:                {true, core.Segregated, core.PreallocOff, false},
	{"nextgen-sync", "off", "aggregated"}:                {true, core.Aggregated, core.PreallocOff, false},
	{"nextgen-sync", "off", "compact"}:                   {true, core.Compact, core.PreallocOff, false},
	{"nextgen-sync", "static", ""}:                       {true, core.Segregated, core.PreallocStatic, false},
	{"nextgen-sync", "static", "segregated"}:             {true, core.Segregated, core.PreallocStatic, false},
	{"nextgen-sync", "static", "aggregated"}:             {true, core.Aggregated, core.PreallocStatic, false},
	{"nextgen-sync", "static", "compact"}:                {true, core.Compact, core.PreallocStatic, false},
	{"nextgen-sync", "adaptive", ""}:                     {true, core.Segregated, core.PreallocAdaptive, false},
	{"nextgen-sync", "adaptive", "segregated"}:           {true, core.Segregated, core.PreallocAdaptive, false},
	{"nextgen-sync", "adaptive", "aggregated"}:           {true, core.Aggregated, core.PreallocAdaptive, false},
	{"nextgen-sync", "adaptive", "compact"}:              {true, core.Compact, core.PreallocAdaptive, false},
	{"nextgen-inline", "", ""}:                           {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline", "", "segregated"}:                 {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline", "", "aggregated"}:                 {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline", "", "compact"}:                    {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline", "off", ""}:                        {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline", "off", "segregated"}:              {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline", "off", "aggregated"}:              {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline", "off", "compact"}:                 {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline", "static", ""}:                     {false, core.Segregated, core.PreallocStatic, true},
	{"nextgen-inline", "static", "segregated"}:           {false, core.Segregated, core.PreallocStatic, true},
	{"nextgen-inline", "static", "aggregated"}:           {false, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-inline", "static", "compact"}:              {false, core.Compact, core.PreallocStatic, true},
	{"nextgen-inline", "adaptive", ""}:                   {false, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-inline", "adaptive", "segregated"}:         {false, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-inline", "adaptive", "aggregated"}:         {false, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-inline", "adaptive", "compact"}:            {false, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-inline-agg", "", ""}:                       {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline-agg", "", "segregated"}:             {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline-agg", "", "aggregated"}:             {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline-agg", "", "compact"}:                {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline-agg", "off", ""}:                    {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline-agg", "off", "segregated"}:          {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline-agg", "off", "aggregated"}:          {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline-agg", "off", "compact"}:             {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline-agg", "static", ""}:                 {false, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-inline-agg", "static", "segregated"}:       {false, core.Segregated, core.PreallocStatic, true},
	{"nextgen-inline-agg", "static", "aggregated"}:       {false, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-inline-agg", "static", "compact"}:          {false, core.Compact, core.PreallocStatic, true},
	{"nextgen-inline-agg", "adaptive", ""}:               {false, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-inline-agg", "adaptive", "segregated"}:     {false, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-inline-agg", "adaptive", "aggregated"}:     {false, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-inline-agg", "adaptive", "compact"}:        {false, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-nearmem", "", ""}:                          {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-nearmem", "", "segregated"}:                {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-nearmem", "", "aggregated"}:                {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen-nearmem", "", "compact"}:                   {true, core.Compact, core.PreallocOff, true},
	{"nextgen-nearmem", "off", ""}:                       {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-nearmem", "off", "segregated"}:             {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-nearmem", "off", "aggregated"}:             {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen-nearmem", "off", "compact"}:                {true, core.Compact, core.PreallocOff, true},
	{"nextgen-nearmem", "static", ""}:                    {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-nearmem", "static", "segregated"}:          {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-nearmem", "static", "aggregated"}:          {true, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-nearmem", "static", "compact"}:             {true, core.Compact, core.PreallocStatic, true},
	{"nextgen-nearmem", "adaptive", ""}:                  {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-nearmem", "adaptive", "segregated"}:        {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-nearmem", "adaptive", "aggregated"}:        {true, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-nearmem", "adaptive", "compact"}:           {true, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "", ""}:                         {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "", "segregated"}:               {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "", "aggregated"}:               {true, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "", "compact"}:                  {true, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "off", ""}:                      {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-adaptive", "off", "segregated"}:            {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-adaptive", "off", "aggregated"}:            {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen-adaptive", "off", "compact"}:               {true, core.Compact, core.PreallocOff, true},
	{"nextgen-adaptive", "static", ""}:                   {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-adaptive", "static", "segregated"}:         {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-adaptive", "static", "aggregated"}:         {true, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-adaptive", "static", "compact"}:            {true, core.Compact, core.PreallocStatic, true},
	{"nextgen-adaptive", "adaptive", ""}:                 {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "adaptive", "segregated"}:       {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "adaptive", "aggregated"}:       {true, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-adaptive", "adaptive", "compact"}:          {true, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-compact", "", ""}:                          {true, core.Compact, core.PreallocOff, true},
	{"nextgen-compact", "", "segregated"}:                {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-compact", "", "aggregated"}:                {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen-compact", "", "compact"}:                   {true, core.Compact, core.PreallocOff, true},
	{"nextgen-compact", "off", ""}:                       {true, core.Compact, core.PreallocOff, true},
	{"nextgen-compact", "off", "segregated"}:             {true, core.Segregated, core.PreallocOff, true},
	{"nextgen-compact", "off", "aggregated"}:             {true, core.Aggregated, core.PreallocOff, true},
	{"nextgen-compact", "off", "compact"}:                {true, core.Compact, core.PreallocOff, true},
	{"nextgen-compact", "static", ""}:                    {true, core.Compact, core.PreallocStatic, true},
	{"nextgen-compact", "static", "segregated"}:          {true, core.Segregated, core.PreallocStatic, true},
	{"nextgen-compact", "static", "aggregated"}:          {true, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-compact", "static", "compact"}:             {true, core.Compact, core.PreallocStatic, true},
	{"nextgen-compact", "adaptive", ""}:                  {true, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-compact", "adaptive", "segregated"}:        {true, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-compact", "adaptive", "aggregated"}:        {true, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-compact", "adaptive", "compact"}:           {true, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-inline-compact", "", ""}:                   {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline-compact", "", "segregated"}:         {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline-compact", "", "aggregated"}:         {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline-compact", "", "compact"}:            {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline-compact", "off", ""}:                {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline-compact", "off", "segregated"}:      {false, core.Segregated, core.PreallocOff, true},
	{"nextgen-inline-compact", "off", "aggregated"}:      {false, core.Aggregated, core.PreallocOff, true},
	{"nextgen-inline-compact", "off", "compact"}:         {false, core.Compact, core.PreallocOff, true},
	{"nextgen-inline-compact", "static", ""}:             {false, core.Compact, core.PreallocStatic, true},
	{"nextgen-inline-compact", "static", "segregated"}:   {false, core.Segregated, core.PreallocStatic, true},
	{"nextgen-inline-compact", "static", "aggregated"}:   {false, core.Aggregated, core.PreallocStatic, true},
	{"nextgen-inline-compact", "static", "compact"}:      {false, core.Compact, core.PreallocStatic, true},
	{"nextgen-inline-compact", "adaptive", ""}:           {false, core.Compact, core.PreallocAdaptive, true},
	{"nextgen-inline-compact", "adaptive", "segregated"}: {false, core.Segregated, core.PreallocAdaptive, true},
	{"nextgen-inline-compact", "adaptive", "aggregated"}: {false, core.Aggregated, core.PreallocAdaptive, true},
	{"nextgen-inline-compact", "adaptive", "compact"}:    {false, core.Compact, core.PreallocAdaptive, true},
}

// TestKindSpecMatchesTuneConfigs: every kind in Kinds, crossed with
// -prealloc in {"", off, static, adaptive} and -layout in {"",
// segregated, aggregated, compact} folded in as spec keys (WithKeys),
// resolves to exactly the Config the tune closures built; a classic
// kind takes no keys and stays classic.
func TestKindSpecMatchesTuneConfigs(t *testing.T) {
	n := 0
	for _, kind := range Kinds {
		for _, prealloc := range []string{"", "off", "static", "adaptive"} {
			for _, layout := range []string{"", "segregated", "aggregated", "compact"} {
				var keys []string
				if prealloc != "" {
					keys = append(keys, "prealloc="+prealloc)
				}
				if layout != "" {
					keys = append(keys, "layout="+layout)
				}
				spec := WithKeys(kind, strings.Join(keys, ","))
				row, cfg, err := parseKind(spec)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				p, ok := tunedConfigs[[3]string{kind, prealloc, layout}]
				if !ok {
					if row.classic == nil || spec != kind {
						t.Errorf("%s: classic kind resolved as %q (classic %v)", kind, spec, row.classic != nil)
					}
					continue
				}
				n++
				want := core.Config{Offload: p.offload, Layout: p.layout, Prealloc: p.prealloc,
					AsyncFree: p.asyncFree, RingSlots: 64}
				if row.classic != nil || !reflect.DeepEqual(cfg, want) {
					t.Errorf("%s: resolved %+v, want %+v", spec, cfg, want)
				}
			}
		}
	}
	if n != len(tunedConfigs) {
		t.Errorf("checked %d NextGen cells, the table records %d", n, len(tunedConfigs))
	}
}

// TestAliasNames: each named NextGen variant is its row's base and keys,
// so its Config spells that canonical spec back, and keys after a name
// apply after the row's own.
func TestAliasNames(t *testing.T) {
	for spec, want := range map[string]string{
		"nextgen":                              "nextgen",
		"nextgen-prealloc":                     "nextgen:prealloc=static",
		"nextgen-sync":                         "nextgen:free=sync",
		"nextgen-inline":                       "nextgen-inline",
		"nextgen-inline-agg":                   "nextgen-inline:layout=aggregated",
		"nextgen-nearmem":                      "nextgen",
		"nextgen-adaptive":                     "nextgen:prealloc=adaptive",
		"nextgen-compact":                      "nextgen:layout=compact",
		"nextgen-inline-compact":               "nextgen-inline:layout=compact",
		"nextgen-prealloc:prealloc=adaptive":   "nextgen:prealloc=adaptive",
		"nextgen-inline-agg:layout=segregated": "nextgen-inline",
		"nextgen-sync:free=async":              "nextgen",
		"nextgen-compact:prealloc=static":      "nextgen:layout=compact,prealloc=static",
	} {
		cfg, err := KindConfig(spec)
		if err != nil {
			t.Fatalf("KindConfig(%q): %v", spec, err)
		}
		if got := cfg.Name(); got != want {
			t.Errorf("KindConfig(%q).Name() = %q, want %q", spec, got, want)
		}
	}
	for _, row := range kindTable {
		if row.classic != nil {
			continue
		}
		if cfg, _ := KindConfig(row.name); cfg.Name() != row.spec {
			t.Errorf("%s resolves to %q, its row says %q", row.name, cfg.Name(), row.spec)
		}
	}
}

// TestOneConfigPerBehaviour: every prealloc policy is one Config, so an
// alias retuned to another row's policy is that row's Config, and every
// Config a kind resolves to spells a Name that resolves back to it.
func TestOneConfigPerBehaviour(t *testing.T) {
	a, errA := KindConfig("nextgen-prealloc:prealloc=adaptive")
	b, errB := KindConfig("nextgen-adaptive")
	if errA != nil || errB != nil || a != b {
		t.Errorf("nextgen-prealloc:prealloc=adaptive = %+v (%v), nextgen-adaptive = %+v (%v)", a, errA, b, errB)
	}
	for _, kind := range Kinds {
		if row, _, _ := parseKind(kind); row.classic != nil {
			continue
		}
		for _, keys := range []string{"", "prealloc=off", "prealloc=static", "prealloc=adaptive", "layout=compact", "sched=round-robin"} {
			spec := WithKeys(kind, keys)
			cfg, err := KindConfig(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			if back, err := KindConfig(cfg.Name()); err != nil || back != cfg {
				t.Errorf("%s = %+v, but its Name %q resolves to %+v, %v", spec, cfg, cfg.Name(), back, err)
			}
		}
	}
}

// TestKindNamesDeclaredOnce: kindTable is the one list of allocator
// names. Every name in Kinds but the two bases (which rows also use as
// specs) is a string literal nowhere in internal/core's non-test code
// and exactly once in this package's.
func TestKindNamesDeclaredOnce(t *testing.T) {
	literals := func(glob string) map[string]int {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v (%d files)", glob, err, len(files))
		}
		n := map[string]int{}
		fset := token.NewFileSet()
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(nd ast.Node) bool {
				if lit, ok := nd.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						n[v]++
					}
				}
				return true
			})
		}
		return n
	}
	inCore, inHarness := literals("../core/*.go"), literals("*.go")
	for _, name := range Kinds {
		if name == "nextgen" || name == "nextgen-inline" {
			continue
		}
		if inCore[name] != 0 {
			t.Errorf("%q is a string literal in internal/core %d times, want none", name, inCore[name])
		}
		if inHarness[name] != 1 {
			t.Errorf("%q is a string literal in internal/harness %d times, want once", name, inHarness[name])
		}
	}
}

// FuzzKindConfig: any input is an error, a classic kind (no NextGen
// Config), or a Config whose Name resolves back to that same Config.
func FuzzKindConfig(f *testing.F) {
	for _, kind := range Kinds {
		f.Add(kind)
		f.Add(WithKeys(kind, "prealloc=adaptive,layout=aggregated"))
	}
	for _, s := range []string{
		"nextgen-prealloc:prealloc=adaptive", "nextgen-sync:free=async", "nextgen-adaptive:partition=class,sched=fixed-scan",
		"nextgen-inline-agg:layout=compact,layout=segregated", "nextgen-nearmem:slots=4096", "mimalloc:layout=compact",
		"nextgen-compact:", "nextgen-turbo", "nextgen:prealloc=static,prealloc=off",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		row, cfg, err := parseKind(spec)
		if err != nil || row.classic != nil {
			return
		}
		if back, err := KindConfig(cfg.Name()); err != nil || back != cfg {
			t.Fatalf("KindConfig(%q) = %+v, but its Name %q resolves to %+v, %v", spec, cfg, cfg.Name(), back, err)
		}
	})
}
