package tugen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/symbolic"
)

var levels = []core.Level{core.Classical, core.Base, core.New}

func sources(seed int64, n int) []string {
	g := New(seed)
	var out []string
	for i := 0; i < n; i++ {
		t := g.Next()
		out = append(out, fmt.Sprintf("%s|%d|%v\n%s", t.Name, t.Level, t.Assume(), t.Source()))
		out = append(out, g.Edit(t).Source())
	}
	return out
}

func TestSameSeedSameTUs(t *testing.T) {
	a, b := sources(7, 50), sources(7, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TU %d differs between two generators with seed 7", i)
		}
	}
	c := sources(8, 50)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d of %d TUs identical across seeds 7 and 8", same, len(a))
	}
}

func analyzeOne(t *testing.T, tu *TU) *core.Result {
	t.Helper()
	res, err := core.Analyze(tu.Source(), *tu.CoreSource().Opt)
	if err != nil {
		t.Fatalf("%s: %v\n%s", tu.Name, err, tu.Source())
	}
	return res
}

// TestRenamingPreservesVerdicts checks every kernel at every level, as a
// lone instance, after an edit of each of its editable functions, and
// inside a multi-kernel TU.
func TestRenamingPreservesVerdicts(t *testing.T) {
	g := New(3)
	for _, b := range Kernels() {
		for _, l := range levels {
			tu := g.One(b, l)
			variants := []*TU{tu}
			for _, fn := range EditableFuncs(b) {
				variants = append(variants, tu.WithEdit(0, fn, "_e"))
			}
			for _, v := range variants {
				res := analyzeOne(t, v)
				if got, want := corpus.Achieved(res.Plan, v.KernelFunc(0)), b.Expected[l]; got != want {
					t.Errorf("%s at %s (edits %v): achieved %v, expected %v",
						b.Name, core.LevelName(l), v.Instances[0].Edits, got, want)
				}
			}
		}
	}
	for i := 0; i < 60; i++ {
		tu := g.Next()
		res := analyzeOne(t, tu)
		for k := range tu.Instances {
			if got, want := corpus.Achieved(res.Plan, tu.KernelFunc(k)), tu.Expected(k); got != want {
				t.Errorf("%s instance %d (%s) at %s: achieved %v, expected %v",
					tu.Name, k, tu.Instances[k].Bench.Name, core.LevelName(tu.Level), got, want)
			}
		}
	}
}

// hitRatio analyzes srcs and returns the symbolic memo hit ratio of that
// pass alone (counter deltas, without resetting the cache).
func hitRatio(srcs []core.Source) float64 {
	before := symbolic.ReadCacheStats()
	core.AnalyzeBatch(srcs, core.Options{Workers: 1})
	after := symbolic.ReadCacheStats()
	hits := after.SimplifyHits + after.CompareHits - before.SimplifyHits - before.CompareHits
	misses := after.SimplifyMisses + after.CompareMisses - before.SimplifyMisses - before.CompareMisses
	return float64(hits) / float64(hits+misses)
}

// TestRenamingDefeatsMemoReplay compares one pass over generated TUs with
// a pass that repeats corpus text already analyzed: repeated text replays
// from the memo cache almost entirely, generated TUs do not.
func TestRenamingDefeatsMemoReplay(t *testing.T) {
	g := New(11)
	var gen []core.Source
	for i := 0; i < 40; i++ {
		gen = append(gen, g.Next().CoreSource())
	}
	var plain []core.Source
	for _, b := range Kernels() {
		plain = append(plain, core.Source{Name: b.Name, Src: b.Source,
			Opt: &core.Options{Level: core.New, AssumePositive: b.AssumePositive}})
	}
	symbolic.ResetCache()
	hitRatio(plain)
	hRep := hitRatio(plain)
	symbolic.ResetCache()
	hGen := hitRatio(gen)
	t.Logf("symbolic hit ratio: repeated corpus text %.4f, generated TUs %.4f", hRep, hGen)
	if hRep < 0.999 {
		t.Errorf("repeated corpus text hit ratio %.4f, want ~1", hRep)
	}
	if hGen > 0.9 {
		t.Errorf("generated TUs hit ratio %.4f, want well below the repeated %.4f", hGen, hRep)
	}
}
