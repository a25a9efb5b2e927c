package harness

import (
	"reflect"
	"strings"
	"testing"

	"nextgenmalloc/internal/core"
)

// tunedConfig is the part of a core.Config the kind and the -prealloc and
// -layout flags set; the rest was zero or default (RingSlots 64, Sched
// fixed-scan, no Latency, Resilience or Faults).
type tunedConfig struct {
	offload             bool
	layout              core.Layout
	prealloc            int
	asyncFree, adaptive bool
}

// tunedConfigs is the config the harness resolved for every NextGen kind
// in Kinds under each -prealloc and -layout value, keyed by (kind,
// -prealloc, -layout), recorded from the build that composed
// Options.Tune closures instead (the kindTable rows' tune, then
// Env.Tune from experiments.ParseTransport and ParseLayout). Classic
// kinds had no NextGen config.
var tunedConfigs = map[[3]string]tunedConfig{
	{"nextgen", "", ""}:                                  {true, core.Segregated, 0, true, false},
	{"nextgen", "", "segregated"}:                        {true, core.Segregated, 0, true, false},
	{"nextgen", "", "aggregated"}:                        {true, core.Aggregated, 0, true, false},
	{"nextgen", "", "compact"}:                           {true, core.Compact, 0, true, false},
	{"nextgen", "off", ""}:                               {true, core.Segregated, 0, true, false},
	{"nextgen", "off", "segregated"}:                     {true, core.Segregated, 0, true, false},
	{"nextgen", "off", "aggregated"}:                     {true, core.Aggregated, 0, true, false},
	{"nextgen", "off", "compact"}:                        {true, core.Compact, 0, true, false},
	{"nextgen", "static", ""}:                            {true, core.Segregated, 12, true, false},
	{"nextgen", "static", "segregated"}:                  {true, core.Segregated, 12, true, false},
	{"nextgen", "static", "aggregated"}:                  {true, core.Aggregated, 12, true, false},
	{"nextgen", "static", "compact"}:                     {true, core.Compact, 12, true, false},
	{"nextgen", "adaptive", ""}:                          {true, core.Segregated, 0, true, true},
	{"nextgen", "adaptive", "segregated"}:                {true, core.Segregated, 0, true, true},
	{"nextgen", "adaptive", "aggregated"}:                {true, core.Aggregated, 0, true, true},
	{"nextgen", "adaptive", "compact"}:                   {true, core.Compact, 0, true, true},
	{"nextgen-prealloc", "", ""}:                         {true, core.Segregated, 12, true, false},
	{"nextgen-prealloc", "", "segregated"}:               {true, core.Segregated, 12, true, false},
	{"nextgen-prealloc", "", "aggregated"}:               {true, core.Aggregated, 12, true, false},
	{"nextgen-prealloc", "", "compact"}:                  {true, core.Compact, 12, true, false},
	{"nextgen-prealloc", "off", ""}:                      {true, core.Segregated, 0, true, false},
	{"nextgen-prealloc", "off", "segregated"}:            {true, core.Segregated, 0, true, false},
	{"nextgen-prealloc", "off", "aggregated"}:            {true, core.Aggregated, 0, true, false},
	{"nextgen-prealloc", "off", "compact"}:               {true, core.Compact, 0, true, false},
	{"nextgen-prealloc", "static", ""}:                   {true, core.Segregated, 12, true, false},
	{"nextgen-prealloc", "static", "segregated"}:         {true, core.Segregated, 12, true, false},
	{"nextgen-prealloc", "static", "aggregated"}:         {true, core.Aggregated, 12, true, false},
	{"nextgen-prealloc", "static", "compact"}:            {true, core.Compact, 12, true, false},
	{"nextgen-prealloc", "adaptive", ""}:                 {true, core.Segregated, 12, true, true},
	{"nextgen-prealloc", "adaptive", "segregated"}:       {true, core.Segregated, 12, true, true},
	{"nextgen-prealloc", "adaptive", "aggregated"}:       {true, core.Aggregated, 12, true, true},
	{"nextgen-prealloc", "adaptive", "compact"}:          {true, core.Compact, 12, true, true},
	{"nextgen-sync", "", ""}:                             {true, core.Segregated, 0, false, false},
	{"nextgen-sync", "", "segregated"}:                   {true, core.Segregated, 0, false, false},
	{"nextgen-sync", "", "aggregated"}:                   {true, core.Aggregated, 0, false, false},
	{"nextgen-sync", "", "compact"}:                      {true, core.Compact, 0, false, false},
	{"nextgen-sync", "off", ""}:                          {true, core.Segregated, 0, false, false},
	{"nextgen-sync", "off", "segregated"}:                {true, core.Segregated, 0, false, false},
	{"nextgen-sync", "off", "aggregated"}:                {true, core.Aggregated, 0, false, false},
	{"nextgen-sync", "off", "compact"}:                   {true, core.Compact, 0, false, false},
	{"nextgen-sync", "static", ""}:                       {true, core.Segregated, 12, false, false},
	{"nextgen-sync", "static", "segregated"}:             {true, core.Segregated, 12, false, false},
	{"nextgen-sync", "static", "aggregated"}:             {true, core.Aggregated, 12, false, false},
	{"nextgen-sync", "static", "compact"}:                {true, core.Compact, 12, false, false},
	{"nextgen-sync", "adaptive", ""}:                     {true, core.Segregated, 0, false, true},
	{"nextgen-sync", "adaptive", "segregated"}:           {true, core.Segregated, 0, false, true},
	{"nextgen-sync", "adaptive", "aggregated"}:           {true, core.Aggregated, 0, false, true},
	{"nextgen-sync", "adaptive", "compact"}:              {true, core.Compact, 0, false, true},
	{"nextgen-inline", "", ""}:                           {false, core.Segregated, 0, true, false},
	{"nextgen-inline", "", "segregated"}:                 {false, core.Segregated, 0, true, false},
	{"nextgen-inline", "", "aggregated"}:                 {false, core.Aggregated, 0, true, false},
	{"nextgen-inline", "", "compact"}:                    {false, core.Compact, 0, true, false},
	{"nextgen-inline", "off", ""}:                        {false, core.Segregated, 0, true, false},
	{"nextgen-inline", "off", "segregated"}:              {false, core.Segregated, 0, true, false},
	{"nextgen-inline", "off", "aggregated"}:              {false, core.Aggregated, 0, true, false},
	{"nextgen-inline", "off", "compact"}:                 {false, core.Compact, 0, true, false},
	{"nextgen-inline", "static", ""}:                     {false, core.Segregated, 12, true, false},
	{"nextgen-inline", "static", "segregated"}:           {false, core.Segregated, 12, true, false},
	{"nextgen-inline", "static", "aggregated"}:           {false, core.Aggregated, 12, true, false},
	{"nextgen-inline", "static", "compact"}:              {false, core.Compact, 12, true, false},
	{"nextgen-inline", "adaptive", ""}:                   {false, core.Segregated, 0, true, true},
	{"nextgen-inline", "adaptive", "segregated"}:         {false, core.Segregated, 0, true, true},
	{"nextgen-inline", "adaptive", "aggregated"}:         {false, core.Aggregated, 0, true, true},
	{"nextgen-inline", "adaptive", "compact"}:            {false, core.Compact, 0, true, true},
	{"nextgen-inline-agg", "", ""}:                       {false, core.Aggregated, 0, true, false},
	{"nextgen-inline-agg", "", "segregated"}:             {false, core.Segregated, 0, true, false},
	{"nextgen-inline-agg", "", "aggregated"}:             {false, core.Aggregated, 0, true, false},
	{"nextgen-inline-agg", "", "compact"}:                {false, core.Compact, 0, true, false},
	{"nextgen-inline-agg", "off", ""}:                    {false, core.Aggregated, 0, true, false},
	{"nextgen-inline-agg", "off", "segregated"}:          {false, core.Segregated, 0, true, false},
	{"nextgen-inline-agg", "off", "aggregated"}:          {false, core.Aggregated, 0, true, false},
	{"nextgen-inline-agg", "off", "compact"}:             {false, core.Compact, 0, true, false},
	{"nextgen-inline-agg", "static", ""}:                 {false, core.Aggregated, 12, true, false},
	{"nextgen-inline-agg", "static", "segregated"}:       {false, core.Segregated, 12, true, false},
	{"nextgen-inline-agg", "static", "aggregated"}:       {false, core.Aggregated, 12, true, false},
	{"nextgen-inline-agg", "static", "compact"}:          {false, core.Compact, 12, true, false},
	{"nextgen-inline-agg", "adaptive", ""}:               {false, core.Aggregated, 0, true, true},
	{"nextgen-inline-agg", "adaptive", "segregated"}:     {false, core.Segregated, 0, true, true},
	{"nextgen-inline-agg", "adaptive", "aggregated"}:     {false, core.Aggregated, 0, true, true},
	{"nextgen-inline-agg", "adaptive", "compact"}:        {false, core.Compact, 0, true, true},
	{"nextgen-nearmem", "", ""}:                          {true, core.Segregated, 0, true, false},
	{"nextgen-nearmem", "", "segregated"}:                {true, core.Segregated, 0, true, false},
	{"nextgen-nearmem", "", "aggregated"}:                {true, core.Aggregated, 0, true, false},
	{"nextgen-nearmem", "", "compact"}:                   {true, core.Compact, 0, true, false},
	{"nextgen-nearmem", "off", ""}:                       {true, core.Segregated, 0, true, false},
	{"nextgen-nearmem", "off", "segregated"}:             {true, core.Segregated, 0, true, false},
	{"nextgen-nearmem", "off", "aggregated"}:             {true, core.Aggregated, 0, true, false},
	{"nextgen-nearmem", "off", "compact"}:                {true, core.Compact, 0, true, false},
	{"nextgen-nearmem", "static", ""}:                    {true, core.Segregated, 12, true, false},
	{"nextgen-nearmem", "static", "segregated"}:          {true, core.Segregated, 12, true, false},
	{"nextgen-nearmem", "static", "aggregated"}:          {true, core.Aggregated, 12, true, false},
	{"nextgen-nearmem", "static", "compact"}:             {true, core.Compact, 12, true, false},
	{"nextgen-nearmem", "adaptive", ""}:                  {true, core.Segregated, 0, true, true},
	{"nextgen-nearmem", "adaptive", "segregated"}:        {true, core.Segregated, 0, true, true},
	{"nextgen-nearmem", "adaptive", "aggregated"}:        {true, core.Aggregated, 0, true, true},
	{"nextgen-nearmem", "adaptive", "compact"}:           {true, core.Compact, 0, true, true},
	{"nextgen-adaptive", "", ""}:                         {true, core.Segregated, 0, true, true},
	{"nextgen-adaptive", "", "segregated"}:               {true, core.Segregated, 0, true, true},
	{"nextgen-adaptive", "", "aggregated"}:               {true, core.Aggregated, 0, true, true},
	{"nextgen-adaptive", "", "compact"}:                  {true, core.Compact, 0, true, true},
	{"nextgen-adaptive", "off", ""}:                      {true, core.Segregated, 0, true, false},
	{"nextgen-adaptive", "off", "segregated"}:            {true, core.Segregated, 0, true, false},
	{"nextgen-adaptive", "off", "aggregated"}:            {true, core.Aggregated, 0, true, false},
	{"nextgen-adaptive", "off", "compact"}:               {true, core.Compact, 0, true, false},
	{"nextgen-adaptive", "static", ""}:                   {true, core.Segregated, 12, true, false},
	{"nextgen-adaptive", "static", "segregated"}:         {true, core.Segregated, 12, true, false},
	{"nextgen-adaptive", "static", "aggregated"}:         {true, core.Aggregated, 12, true, false},
	{"nextgen-adaptive", "static", "compact"}:            {true, core.Compact, 12, true, false},
	{"nextgen-adaptive", "adaptive", ""}:                 {true, core.Segregated, 0, true, true},
	{"nextgen-adaptive", "adaptive", "segregated"}:       {true, core.Segregated, 0, true, true},
	{"nextgen-adaptive", "adaptive", "aggregated"}:       {true, core.Aggregated, 0, true, true},
	{"nextgen-adaptive", "adaptive", "compact"}:          {true, core.Compact, 0, true, true},
	{"nextgen-compact", "", ""}:                          {true, core.Compact, 0, true, false},
	{"nextgen-compact", "", "segregated"}:                {true, core.Segregated, 0, true, false},
	{"nextgen-compact", "", "aggregated"}:                {true, core.Aggregated, 0, true, false},
	{"nextgen-compact", "", "compact"}:                   {true, core.Compact, 0, true, false},
	{"nextgen-compact", "off", ""}:                       {true, core.Compact, 0, true, false},
	{"nextgen-compact", "off", "segregated"}:             {true, core.Segregated, 0, true, false},
	{"nextgen-compact", "off", "aggregated"}:             {true, core.Aggregated, 0, true, false},
	{"nextgen-compact", "off", "compact"}:                {true, core.Compact, 0, true, false},
	{"nextgen-compact", "static", ""}:                    {true, core.Compact, 12, true, false},
	{"nextgen-compact", "static", "segregated"}:          {true, core.Segregated, 12, true, false},
	{"nextgen-compact", "static", "aggregated"}:          {true, core.Aggregated, 12, true, false},
	{"nextgen-compact", "static", "compact"}:             {true, core.Compact, 12, true, false},
	{"nextgen-compact", "adaptive", ""}:                  {true, core.Compact, 0, true, true},
	{"nextgen-compact", "adaptive", "segregated"}:        {true, core.Segregated, 0, true, true},
	{"nextgen-compact", "adaptive", "aggregated"}:        {true, core.Aggregated, 0, true, true},
	{"nextgen-compact", "adaptive", "compact"}:           {true, core.Compact, 0, true, true},
	{"nextgen-inline-compact", "", ""}:                   {false, core.Compact, 0, true, false},
	{"nextgen-inline-compact", "", "segregated"}:         {false, core.Segregated, 0, true, false},
	{"nextgen-inline-compact", "", "aggregated"}:         {false, core.Aggregated, 0, true, false},
	{"nextgen-inline-compact", "", "compact"}:            {false, core.Compact, 0, true, false},
	{"nextgen-inline-compact", "off", ""}:                {false, core.Compact, 0, true, false},
	{"nextgen-inline-compact", "off", "segregated"}:      {false, core.Segregated, 0, true, false},
	{"nextgen-inline-compact", "off", "aggregated"}:      {false, core.Aggregated, 0, true, false},
	{"nextgen-inline-compact", "off", "compact"}:         {false, core.Compact, 0, true, false},
	{"nextgen-inline-compact", "static", ""}:             {false, core.Compact, 12, true, false},
	{"nextgen-inline-compact", "static", "segregated"}:   {false, core.Segregated, 12, true, false},
	{"nextgen-inline-compact", "static", "aggregated"}:   {false, core.Aggregated, 12, true, false},
	{"nextgen-inline-compact", "static", "compact"}:      {false, core.Compact, 12, true, false},
	{"nextgen-inline-compact", "adaptive", ""}:           {false, core.Compact, 0, true, true},
	{"nextgen-inline-compact", "adaptive", "segregated"}: {false, core.Segregated, 0, true, true},
	{"nextgen-inline-compact", "adaptive", "aggregated"}: {false, core.Aggregated, 0, true, true},
	{"nextgen-inline-compact", "adaptive", "compact"}:    {false, core.Compact, 0, true, true},
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
					AsyncFree: p.asyncFree, RingSlots: 64, AdaptivePrealloc: p.adaptive}
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
