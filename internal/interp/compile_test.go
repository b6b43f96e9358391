package interp

import (
	"slices"
	"testing"

	"repro/internal/cminus"
)

func machineFor(t *testing.T, src, engine string) *Machine {
	t.Helper()
	prog, err := cminus.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := New(prog)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	m.Interp = engine
	return m
}

var engines = []string{"vm", "tree"}

// TestArrayParamBindingScoped is the regression test for the array
// binding leak: array arguments used to be bound into the global
// m.Arrays under the parameter name and never removed, so repeated or
// nested calls with different arrays under the same parameter name
// silently aliased the stale binding.
func TestArrayParamBindingScoped(t *testing.T) {
	src := `
void fill(int buf[], int n, int v) {
	int i;
	for (i = 0; i < n; i++) { buf[i] = v; }
}
`
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			m := machineFor(t, src, eng)
			a := NewIntArray("a", 4)
			b := NewIntArray("b", 4)
			if err := m.Call("fill", a, 4, 7); err != nil {
				t.Fatal(err)
			}
			if err := m.Call("fill", b, 4, 9); err != nil {
				t.Fatal(err)
			}
			if _, leaked := m.Arrays["buf"]; leaked {
				t.Fatalf("parameter binding %q leaked into m.Arrays", "buf")
			}
			for i := int64(0); i < 4; i++ {
				av, _ := a.Get([]int64{i})
				bv, _ := b.Get([]int64{i})
				if av.AsInt() != 7 || bv.AsInt() != 9 {
					t.Fatalf("i=%d: a=%d b=%d, want 7/9 (stale alias?)", i, av.AsInt(), bv.AsInt())
				}
			}
		})
	}
}

// TestNestedCallParamScoping: a callee's parameter shadowing a caller's
// array of the same name must not clobber the caller's binding after
// the callee returns.
func TestNestedCallParamScoping(t *testing.T) {
	src := `
void bump(int v[], int n) {
	int i;
	for (i = 0; i < n; i++) { v[i] = v[i] + 100; }
}
void driver(int v[], int w[], int n) {
	int i;
	bump(w, n);
	for (i = 0; i < n; i++) { v[i] = v[i] + 1; }
}
`
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			m := machineFor(t, src, eng)
			v := NewIntArray("v", 3)
			w := NewIntArray("w", 3)
			if err := m.Call("driver", v, w, 3); err != nil {
				t.Fatal(err)
			}
			v0, _ := v.Get([]int64{0})
			w0, _ := w.Get([]int64{0})
			if v0.AsInt() != 1 {
				t.Fatalf("v[0] = %d, want 1 (callee param shadow leaked)", v0.AsInt())
			}
			if w0.AsInt() != 100 {
				t.Fatalf("w[0] = %d, want 100", w0.AsInt())
			}
		})
	}
}

// TestLocalArrayScoped: a local array declaration must not leak into
// m.Arrays after the call finishes.
func TestLocalArrayScoped(t *testing.T) {
	src := `
void f(int out[], int n) {
	int tmp[8];
	int i;
	for (i = 0; i < n; i++) { tmp[i] = i * i; }
	for (i = 0; i < n; i++) { out[i] = tmp[i]; }
}
`
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			m := machineFor(t, src, eng)
			out := NewIntArray("out", 8)
			if err := m.Call("f", out, 8); err != nil {
				t.Fatal(err)
			}
			if _, leaked := m.Arrays["tmp"]; leaked {
				t.Fatal("local array declaration leaked into m.Arrays")
			}
			v, _ := out.Get([]int64{5})
			if v.AsInt() != 25 {
				t.Fatalf("out[5] = %d, want 25", v.AsInt())
			}
		})
	}
}

// TestEngineSelection: the engine list is the VM (default) and the tree
// oracle; the legacy name "compiled" still selects the VM; unknown
// engine names error; every accepted name computes the same result; a
// top-level return is a normal completion.
func TestEngineSelection(t *testing.T) {
	if got := Engines(); !slices.Equal(got, []string{"vm", "tree"}) {
		t.Fatalf("Engines() = %v, want [vm tree]", got)
	}
	src := `
int g;
void f(int n) {
	g = n * 2;
	return;
	g = 0;
}
`
	for _, eng := range []string{"", "vm", "compiled", "tree"} {
		m := machineFor(t, src, eng)
		if err := m.Call("f", 21); err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		if got := m.Globals["g"].AsInt(); got != 42 {
			t.Fatalf("engine %q: g = %d, want 42", eng, got)
		}
	}
	// "compiled" runs the VM itself: its bytecode cache fills, which the
	// tree engine never does.
	m := machineFor(t, src, "compiled")
	if err := m.Precompile(); err != nil {
		t.Fatal(err)
	}
	if m.bc == nil {
		t.Fatal(`engine "compiled" did not compile bytecode`)
	}
	m = machineFor(t, src, "llvm")
	if err := m.Call("f", 1); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestCompiledCallAllocations: after warm-up, a serial call on the
// bytecode VM runs out of pooled frames and typed slots — per-call
// allocations stay at the small constant for boxing the arguments at
// the Call boundary, independent of loop trip counts.
func TestCompiledCallAllocations(t *testing.T) {
	src := `
void kernel(int a[], int n) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < n; i++) {
		acc = acc + a[i];
		a[i] = acc;
	}
}
`
	m := machineFor(t, src, "vm")
	a := NewIntArray("a", 256)
	if err := m.Call("kernel", a, 256); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := m.Call("kernel", a, 256); err != nil {
			t.Fatal(err)
		}
	})
	// Arg boxing (interface conversions) costs a handful of allocations;
	// the 256-iteration loop body must cost none.
	if avg > 8 {
		t.Fatalf("vm Call allocates %.1f allocs/run, want <= 8", avg)
	}
}

// TestCompiledRecursion: the bytecode compiler registers every function
// shell before any body compiles, so self-recursion resolves.
func TestCompiledRecursion(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
void f(int out[]) {
	out[0] = fib(10);
}
`
	for _, eng := range engines {
		m := machineFor(t, src, eng)
		out := NewIntArray("out", 1)
		if err := m.Call("f", out); err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		v, _ := out.Get([]int64{0})
		if v.AsInt() != 55 {
			t.Fatalf("engine %q: fib(10) = %d, want 55", eng, v.AsInt())
		}
	}
}
