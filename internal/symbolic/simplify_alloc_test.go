package symbolic

import (
	"fmt"
	"testing"
)

// TestSimplifyAllocs pins the allocation cost of the hot canonicalization
// paths: min/max dedup+ordering and product distribution. Keys are
// rendered once per element (min/max) or once per atom (linear sums),
// never per comparison or per add. The cache is disabled so the work
// (not a lookup) is measured.
func TestSimplifyAllocs(t *testing.T) {
	prev := SetCacheEnabled(false)
	defer SetCacheEnabled(prev)

	// min over many distinct offset expressions: exercises dedup + sort.
	var minArgs []Expr
	for i := 24; i > 0; i-- {
		minArgs = append(minArgs, AddExpr(NewSym(fmt.Sprintf("s%02d", i)), NewSym(fmt.Sprintf("t%02d", i))))
	}
	minExpr := Min{Args: minArgs}

	// Product of sums of two-atom products over λ atoms (renders that
	// allocate, like the iteration markers and array refs the analysis
	// manipulates): distribution merges sorted multi-atom terms for
	// every term pair.
	sum := func(prefix string, n int) Expr {
		terms := make([]Expr, n)
		for i := 0; i < n; i++ {
			terms[i] = Mul{Factors: []Expr{NewLambda(fmt.Sprintf("%s%da", prefix, i)), NewLambda(fmt.Sprintf("%s%db", prefix, i))}}
		}
		return Add{Terms: terms}
	}
	prod := Mul{Factors: []Expr{sum("l", 6), sum("r", 6)}}

	avg := testing.AllocsPerRun(100, func() {
		Simplify(minExpr)
		Simplify(prod)
	})
	t.Logf("Simplify allocs/run: %.1f", avg)
	// Measured 1597 allocs/run with map-based linear sums and 498 with
	// sorted-slice sums whose terms carry their atom renderings. The
	// bound sits just above the latter, so a return to per-add key
	// rendering or per-sum maps trips it.
	const maxAllocs = 550
	if avg > maxAllocs {
		t.Fatalf("Simplify allocates %.1f allocs/run, want <= %d", avg, maxAllocs)
	}
}

// TestMemoHitZeroAlloc pins the memo-cache hit path: once an expression
// is cached, Simplify, CanonicalString and Equal build its key in a
// pooled buffer and look it up without allocating.
func TestMemoHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	prev := SetCacheEnabled(true)
	defer SetCacheEnabled(prev)

	i := NewSym("i")
	var e Expr = Add{Terms: []Expr{
		Mul{Factors: []Expr{NewInt(2), ArrayRef{Name: "rowptr", Indices: []Expr{AddExpr(i, NewInt(1))}}}},
		NewLambda("j"),
		Min{Args: []Expr{NewSym("n"), Range{Lo: Zero, Hi: NewSym("m")}}},
		NewInt(-3),
	}}
	var f Expr = Add{Terms: []Expr{NewInt(-3), NewLambda("j"), ArrayRef{Name: "rowptr", Indices: []Expr{AddExpr(NewInt(1), i)}}}}
	Simplify(e)
	CanonicalString(e)
	Equal(e, f)

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Simplify", func() { Simplify(e) }},
		{"CanonicalString", func() { CanonicalString(e) }},
		{"Equal", func() { Equal(e, f) }},
	} {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s on a cached expression: %.1f allocs/run, want 0", tc.name, allocs)
		}
	}
}
