package corpus

import (
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// staleCounterSrc fills A_rownnz[0..irownnz-1] with the nonempty rows,
// then scatters through A_rownnz[0..num_rownnz-1]. The analysis proves
// the filled section strictly monotone, so the second loop is chosen
// under the run-time check "-1+num_rownnz <= irownnz_max". irownnz_max
// (the fill's Counter_max) names no variable of the program: the check
// is unbound, and the loop must run serially. Binding it to the live
// counter irownnz (one past the last filled index) would admit
// num_rownnz = irownnz+1 and read the stale, colliding A_rownnz[irownnz].
const staleCounterSrc = `
void f(int num_rows, int num_rownnz, int *A_i, int *A_rownnz, double *y) {
    int i, m, irownnz, adiag;
    irownnz = 0;
    for (i = 0; i < num_rows; i++) {
        adiag = A_i[i+1] - A_i[i];
        if (adiag > 0)
            A_rownnz[irownnz++] = i;
    }
    for (i = 0; i < num_rownnz; i++) {
        m = A_rownnz[i];
        y[m] = y[m] + 1.0;
    }
}
`

// TestScatterStaleCounterCheckFailsClosed: a chosen loop whose run-time
// check names an unbound Counter_max symbol keeps its pragma but takes
// the serial fallback on both interpreter engines — no parallel region,
// one counted fallback, the serial end state, and (under -race, as
// `make property-soundness` runs it) no data race.
func TestScatterStaleCounterCheckFailsClosed(t *testing.T) {
	plan := parallelize.Run(cminus.MustParse(staleCounterSrc), phase2.LevelNew, nil)
	lp := plan.Funcs["f"].Loops["L2"]
	if lp == nil || !lp.Chosen {
		t.Fatalf("L2 not chosen: %+v", lp)
	}
	if got, want := parallelize.PragmaFor(lp.Decision), "if(-1+num_rownnz<=irownnz_max)"; !strings.Contains(got, want) {
		t.Fatalf("pragma %q lacks %q", got, want)
	}
	if lit, ok := lp.Check.(*cminus.IntLit); !ok || lit.Val != 0 {
		t.Fatalf("lowered check = %#v, want the literal 0 (unbound irownnz_max)", lp.Check)
	}
	for _, engine := range interp.Engines() {
		m, err := interp.New(plan.Program())
		if err != nil {
			t.Fatal(err)
		}
		m.Plan, m.Workers, m.Interp = plan, 2, engine
		ai := interp.NewIntArray("A_i", 5)
		copy(ai.Ints, []int64{0, 1, 1, 2, 2})
		rownnz := interp.NewIntArray("A_rownnz", 4)
		y := interp.NewFloatArray("y", 4)
		if err := m.Call("f", int64(4), int64(3), ai, rownnz, y); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if m.Stats.ParallelRegions != 0 || m.Stats.RuntimeFallback != 1 {
			t.Errorf("%s: regions/fallbacks = %d/%d, want 0/1", engine,
				m.Stats.ParallelRegions, m.Stats.RuntimeFallback)
		}
		// Serial semantics: rows 0 and 2 are filled, then the stale
		// A_rownnz[2] = 0 hits row 0 a second time.
		if want := []float64{2, 0, 1, 0}; !equalFloats(y.Flts, want) {
			t.Errorf("%s: y = %v, want %v", engine, y.Flts, want)
		}
	}
}

// TestScatterUnboundMaxNameErrors: a "_max" name is an ordinary
// identifier. Reading one the program never declares is an unbound
// variable on both engines (as in emitted native code), not an alias of
// the like-named counter.
func TestScatterUnboundMaxNameErrors(t *testing.T) {
	prog := cminus.MustParse(`
void g(int *out) {
    int k;
    k = 7;
    out[0] = k_max;
}
`)
	for _, engine := range interp.Engines() {
		m, err := interp.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		m.Interp = engine
		out := interp.NewIntArray("out", 1)
		err = m.Call("g", out)
		if err == nil || !strings.Contains(err.Error(), `unbound variable "k_max"`) {
			t.Errorf("%s: err = %v, out = %v; want unbound variable \"k_max\"", engine, err, out.Ints)
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
