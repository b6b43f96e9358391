package codegen

import (
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// staleCounterSrc's second loop is chosen under the run-time check
// "-1+num_rownnz <= irownnz_max", where irownnz_max (the fill's
// Counter_max) names no variable of the program, so the planner lowers
// the check to 0.
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

// staleCounterWork fills A_rownnz[0..1] = {0, 2} and reads one element
// past the fill. The stale A_rownnz[2] = 3 keeps the read section
// strictly monotone, so the native monotonicity guard passes: only the
// scalar run-time check can send the region to its serial fallback.
func staleCounterWork() *corpus.Work {
	ai := interp.NewIntArray("A_i", 5)
	copy(ai.Ints, []int64{0, 1, 1, 2, 2})
	rownnz := interp.NewIntArray("A_rownnz", 4)
	rownnz.Ints[2] = 3
	y := interp.NewFloatArray("y", 4)
	return &corpus.Work{
		Calls:  []corpus.Call{{Fn: "f", Args: []interp.Arg{int64(4), int64(3), ai, rownnz, y}}},
		Arrays: map[string]*interp.Array{"A_i": ai, "A_rownnz": rownnz, "y": y},
	}
}

// TestCodegenDifferentialStaleCounter: emitted native code evaluates
// the planner's lowered check, so a check with an unbound Counter_max
// name counts one fallback and no parallel region, like the VM, and
// ends in the same state.
func TestCodegenDifferentialStaleCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a native binary")
	}
	plan := parallelize.Run(cminus.MustParse(staleCounterSrc), phase2.LevelNew, nil)
	if !plan.Funcs["f"].ParallelAt("L2") {
		t.Fatal("L2 not chosen")
	}
	pkg, err := EmitPackage(plan, "subsubgen/stale-counter")
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	dir := t.TempDir()
	if err := pkg.WritePackage(dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	bin, err := BuildBinary(dir, true)
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	ref := staleCounterWork()
	m, err := interp.New(plan.Program())
	if err != nil {
		t.Fatal(err)
	}
	m.Plan, m.Workers, m.Interp = plan, 2, "vm"
	if err := ref.Run(m); err != nil {
		t.Fatalf("vm: %v", err)
	}
	if m.Stats.ParallelRegions != 0 || m.Stats.RuntimeFallback != 1 {
		t.Fatalf("vm: regions/fallbacks = %d/%d, want 0/1", m.Stats.ParallelRegions, m.Stats.RuntimeFallback)
	}

	in, err := InputFromWork(staleCounterWork(), 2, nil)
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	res, err := RunBinary(bin, in)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if d := DiffArrays(ref.Arrays, res.Arrays); d != "" {
		t.Errorf("native vs vm: %s", d)
	}
	if res.Parallel != 0 || res.Fallback != 1 {
		t.Errorf("native: regions/fallbacks = %d/%d, want 0/1", res.Parallel, res.Fallback)
	}
}
