// Package incr is the function-granular incremental-analysis subsystem:
// a reuse tier between the serving layer's whole-request result cache and
// full recomputation.
//
// The analysis is compositional: Pass 1 (array-property analysis) is
// strictly intraprocedural, and Pass 2 (per-nest dependence planning)
// reads only the merged property database plus the function's own
// normalized body. That makes per-function results content-addressable:
//
//   - A Pass-1 unit is keyed by the SHA-256 of the function's
//     canonicalized source (the parser-independent cminus print), its
//     loop-label sequence (labels are positional across the translation
//     unit, so a label shift in an earlier function must miss), the
//     canonicalized analysis options, the globals, and the digests of
//     every transitively reachable callee — so an edit to an inlined or
//     property-propagating callee invalidates every transitive caller.
//   - A Pass-2 unit layers the digest of the merged property database on
//     top of the Pass-1 key, because dependence decisions consume facts
//     that other functions may have contributed.
//
// On re-analysis of an edited source, every clean function's Pass-1
// summary and nest plans replay from the store and only dirty functions
// recompute; the driver then merges in the same deterministic order a
// cold run uses (sorted function names for properties, source order for
// nests), so the incremental result is byte-identical to a cold run.
package incr

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/lru"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// DefaultEntries is the unit-store bound when the caller passes 0.
const DefaultEntries = 4096

// Store is a bounded, concurrency-safe LRU of content-addressed
// per-function analysis units. One store is shared by every analysis the
// owner runs (a daemon process, a CLI batch), so identical functions
// reuse across requests, sessions and sources. It implements
// parallelize.FuncCache.
type Store struct {
	units *lru.Cache[string, any]
	max   int

	// mu guards the reuse counters: the totals, and per function name
	// for the first max names seen, so the table stays bounded however
	// many distinct functions a long-lived daemon analyzes.
	mu      sync.Mutex
	total   FuncStat
	perFunc map[string]*FuncStat
}

var _ parallelize.FuncCache = (*Store)(nil)

// NewStore returns a unit store bounded to maxEntries cached units
// (Pass-1 analyses and Pass-2 plan sets count separately). maxEntries
// <= 0 selects DefaultEntries.
func NewStore(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	return &Store{
		units:   lru.New(lru.Config[string, any]{MaxEntries: maxEntries}),
		max:     maxEntries,
		perFunc: map[string]*FuncStat{},
	}
}

// count records one lookup for function fn.
func (s *Store) count(fn string, plan, hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total.add(plan, hit)
	c := s.perFunc[fn]
	if c == nil {
		if len(s.perFunc) >= s.max {
			return
		}
		c = &FuncStat{Name: fn}
		s.perFunc[fn] = c
	}
	c.add(plan, hit)
}

// GetAnalysis returns the cached Pass-1 analysis for a unit key. The
// returned analysis is shared and must be treated as immutable.
func (s *Store) GetAnalysis(key, fn string) (*phase2.FuncAnalysis, bool) {
	v, ok := s.units.Get(key)
	s.count(fn, false, ok)
	if !ok {
		return nil, false
	}
	return v.(*phase2.FuncAnalysis), true
}

// PutAnalysis stores a Pass-1 analysis under its unit key.
func (s *Store) PutAnalysis(key, fn string, fa *phase2.FuncAnalysis) {
	s.units.Put(key, fa)
}

// GetPlans returns the cached Pass-2 loop plans for a plan key.
func (s *Store) GetPlans(key, fn string) ([]*parallelize.LoopPlan, bool) {
	v, ok := s.units.Get(key)
	s.count(fn, true, ok)
	if !ok {
		return nil, false
	}
	return v.([]*parallelize.LoopPlan), true
}

// PutPlans stores a function's Pass-2 loop plans under their plan key.
func (s *Store) PutPlans(key, fn string, plans []*parallelize.LoopPlan) {
	s.units.Put(key, plans)
}

// Len returns the number of cached units.
func (s *Store) Len() int { return s.units.Len() }

// LRUStats returns the unit cache's counters; its hits and misses are
// the Pass-1 and Pass-2 lookups together.
func (s *Store) LRUStats() lru.Stats { return s.units.Stats() }

// Stats is a snapshot of the store counters.
type Stats struct {
	Units      int   `json:"units"`
	MaxUnits   int   `json:"max_units"`
	FuncHits   int64 `json:"func_hits"`
	FuncMisses int64 `json:"func_misses"`
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	Evictions  int64 `json:"evictions"`
}

// Stats returns a snapshot of the cumulative reuse counters.
func (s *Store) Stats() Stats {
	us := s.units.Stats()
	s.mu.Lock()
	t := s.total
	s.mu.Unlock()
	return Stats{
		Units:      us.Entries,
		MaxUnits:   s.max,
		FuncHits:   t.AnalysisHits,
		FuncMisses: t.AnalysisMisses,
		PlanHits:   t.PlanHits,
		PlanMisses: t.PlanMisses,
		Evictions:  us.Evictions,
	}
}

// FuncStat is one function's cumulative reuse counters.
type FuncStat struct {
	Name                         string
	AnalysisHits, AnalysisMisses int64
	PlanHits, PlanMisses         int64
}

func (c *FuncStat) add(plan, hit bool) {
	switch {
	case plan && hit:
		c.PlanHits++
	case plan:
		c.PlanMisses++
	case hit:
		c.AnalysisHits++
	default:
		c.AnalysisMisses++
	}
}

// FuncStats returns the per-function reuse counters sorted by name. It
// covers the first names seen, up to the store's entry bound.
func (s *Store) FuncStats() []FuncStat {
	s.mu.Lock()
	out := make([]FuncStat, 0, len(s.perFunc))
	for _, c := range s.perFunc {
		out = append(out, *c)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StatsTable renders the per-function reuse counters as the fixed-width
// table `subsubcc -incr-stats` prints (golden-tested, so keep the format
// stable).
func (s *Store) StatsTable() string {
	var b strings.Builder
	b.WriteString("incremental reuse (per-function units):\n")
	fmt.Fprintf(&b, "  %-24s %14s %14s\n", "function", "analysis h/m", "plan h/m")
	for _, fs := range s.FuncStats() {
		fmt.Fprintf(&b, "  %-24s %14s %14s\n", fs.Name,
			fmt.Sprintf("%d/%d", fs.AnalysisHits, fs.AnalysisMisses),
			fmt.Sprintf("%d/%d", fs.PlanHits, fs.PlanMisses))
	}
	st := s.Stats()
	fmt.Fprintf(&b, "totals: analysis %d/%d, plans %d/%d, units %d, evictions %d\n",
		st.FuncHits, st.FuncMisses, st.PlanHits, st.PlanMisses, st.Units, st.Evictions)
	return b.String()
}
