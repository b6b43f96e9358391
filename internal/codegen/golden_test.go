package codegen

import (
	"bytes"
	"flag"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenKernels pins a representative slice of the corpus: the paper's
// flagship monotone-guard kernel, a plain affine kernel, and a scatter
// kernel with an injectivity guard.
var goldenKernels = []string{"AMGmk", "CG", "Scatter-Identity"}

// TestGoldenEmit locks the emitted program source byte for byte. The
// emitter has no dependence on worker counts or any ambient state, so
// two emissions of the same plan must agree exactly, and both must
// match the checked-in golden file (refresh with -update).
func TestGoldenEmit(t *testing.T) {
	for _, name := range goldenKernels {
		name := name
		t.Run(name, func(t *testing.T) {
			b := corpus.ByName(name)
			if b == nil {
				t.Fatalf("unknown benchmark %q", name)
			}
			emit := func() []byte {
				plan := corpus.PlanFor(b, phase2.LevelNew)
				pkg, err := EmitPackage(plan, "subsubgen/"+sanitizeModule(name))
				if err != nil {
					t.Fatalf("emit: %v", err)
				}
				return pkg.ProgGo
			}
			first, second := emit(), emit()
			if !bytes.Equal(first, second) {
				t.Fatal("two emissions of the same plan differ")
			}

			formatted, err := format.Source(first)
			if err != nil {
				t.Fatalf("emitted source does not parse: %v", err)
			}
			if !bytes.Equal(formatted, first) {
				t.Error("emitted source is not gofmt-clean")
			}

			golden := filepath.Join("testdata", "golden", sanitizeModule(name)+".prog.go.golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, first, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(first, want) {
				t.Errorf("emitted source differs from %s (re-run with -update after intended changes)", golden)
			}
		})
	}
}

// TestEmitAllKernels emits every corpus kernel (no builds) and asserts
// the output is gofmt-clean and stdlib-light — the cheap always-on
// sanity companion to the slow differential gate. The wire file must be
// rtwire.go itself with only its package clause changed, and no emitted
// file may import encoding/json.
func TestEmitAllKernels(t *testing.T) {
	codec, err := os.ReadFile("rtwire.go")
	if err != nil {
		t.Fatal(err)
	}
	wantWire := append([]byte(genHeader+"package main"), bytes.TrimPrefix(codec, []byte("package codegen"))...)
	for _, b := range corpus.Extended() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			plan := corpus.PlanFor(b, phase2.LevelNew)
			pkg, err := EmitPackage(plan, "subsubgen/"+sanitizeModule(b.Name))
			if err != nil {
				t.Fatalf("emit: %v", err)
			}
			for _, f := range []struct {
				name string
				src  []byte
			}{{"prog.go", pkg.ProgGo}, {"subsubrt.go", pkg.RuntimeGo}, {"subsubwire.go", pkg.WireGo}} {
				formatted, err := format.Source(f.src)
				if err != nil {
					t.Fatalf("%s does not parse: %v", f.name, err)
				}
				if !bytes.Equal(formatted, f.src) {
					t.Errorf("%s is not gofmt-clean", f.name)
				}
				file, err := parser.ParseFile(token.NewFileSet(), f.name, f.src, parser.ImportsOnly)
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				for _, imp := range file.Imports {
					if imp.Path.Value == `"encoding/json"` {
						t.Errorf("%s imports encoding/json", f.name)
					}
				}
			}
			if !bytes.Equal(pkg.WireGo, wantWire) {
				t.Error("subsubwire.go is not rtwire.go with its package clause rewritten")
			}
		})
	}
}

// fixedNameSrc declares globals and functions named after packages the
// emitted runtime and wire files import and a helper the runtime
// declares. Go rejects a package-level name that a file of the package
// also imports, so the emitter must rename every one of them.
const fixedNameSrc = `
int io = 2;
double errors;
void sortStrings(int n, double *a) {
    int i;
    for (i = 0; i < n; i++)
        a[i] = a[i] + io;
}
void binary(int n, double *time) {
    int os;
    sortStrings(n, time);
    for (os = 0; os < n; os++)
        errors = errors + time[os];
    time[0] = errors;
}
`

// TestEmitRenamesFixedFileNames emits, builds and runs a program whose
// names clash with the fixed files', and checks it against the VM.
func TestEmitRenamesFixedFileNames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a native binary")
	}
	plan := parallelize.Run(cminus.MustParse(fixedNameSrc), phase2.LevelNew, nil)
	pkg, err := EmitPackage(plan, "subsubgen/fixed-names")
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	dir := t.TempDir()
	if err := pkg.WritePackage(dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	bin, err := BuildBinary(dir, false)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	work := func() *corpus.Work {
		a := interp.NewFloatArray("a", 5)
		for i := range a.Flts {
			a.Flts[i] = float64(i) / 4
		}
		return &corpus.Work{
			Calls:  []corpus.Call{{Fn: "binary", Args: []interp.Arg{int64(5), a}}},
			Arrays: map[string]*interp.Array{"a": a},
		}
	}
	ref := work()
	m, err := interp.New(plan.Program())
	if err != nil {
		t.Fatal(err)
	}
	m.Plan, m.Workers, m.Interp = plan, 2, "vm"
	if err := ref.Run(m); err != nil {
		t.Fatalf("vm: %v", err)
	}
	in, err := InputFromWork(work(), 2, nil)
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
}
