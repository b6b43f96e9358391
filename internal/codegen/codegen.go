// Package codegen transpiles an analyzed mini-C program to a
// self-contained parallel Go main package.
//
// The emitter closes the loop the paper describes: instead of only
// annotating loops with OpenMP-style pragmas (internal/parallelize) and
// simulating them on interpreter engines (internal/interp), it produces
// real Go source where plan-chosen loops run as chunked goroutine
// dispatch, reductions combine per-worker partials deterministically,
// and decisions contingent on runtime facts verify them at region entry
// — the plan's lowered scalar run-time check (LoopPlan.Check) plus the
// decision's array-shaped Guards
// (monotonicity / injectivity / range-monotonicity of the subscript
// array, PAPER.md §1's num_rownnz pattern) — falling back to the serial
// loop when verification fails.
//
// The lowering is engineered for bit-identity with the interpreter: the
// same static chunking (ceil(n/w) iterations per worker, workers
// clamped to the trip count), the same combine order (worker order,
// skipping workers whose chunk was empty), the same int/float promotion
// and truncation rules, and explicit float64 conversions around every
// floating-point operation so the Go compiler cannot fuse
// multiply-adds into FMAs the interpreter never performs. The
// differential harness (harness.go) builds every emitted package and
// asserts array end states match the VM engine bit for bit under
// -race.
package codegen

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cminus"
	"repro/internal/parallelize"
)

// Package is one emitted Go main package.
type Package struct {
	// ProgGo is the generated program file (lowered functions, call
	// signatures, dispatch table).
	ProgGo []byte
	// RuntimeGo is the fixed runtime-support file (array types, the
	// main that runs a work order, guard scans, goroutine bookkeeping).
	RuntimeGo []byte
	// WireGo is the binary work-order and result codec: rtwire.go of
	// this package, copied with its package clause rewritten to main.
	WireGo []byte
	// GoMod declares the standalone module.
	GoMod []byte
}

// wireSrc is rtwire.go itself, the codec the harness compiles in.
//
//go:embed rtwire.go
var wireSrc string

// genHeader opens every emitted file.
const genHeader = "// Code generated by subsubcc -emit; DO NOT EDIT.\n\n"

// gen is the per-program emitter state.
type gen struct {
	plan     *parallelize.Plan
	prog     *cminus.Program
	rename   map[string]string
	globals  map[string]symInfo
	usesMath bool
	usesSync bool
}

// goName maps a mini-C identifier to its Go spelling.
func (g *gen) goName(name string) string {
	if n, ok := g.rename[name]; ok {
		return n
	}
	return name
}

// EmitPackage lowers the plan's program into a runnable Go main
// package. module names the generated go.mod (e.g. "subsubgen/amgmk").
// Output is deterministic: identical plans produce byte-identical
// packages regardless of worker counts, which are a pure runtime input.
func EmitPackage(plan *parallelize.Plan, module string) (*Package, error) {
	prog := plan.Program()
	g := &gen{
		plan:    plan,
		prog:    prog,
		rename:  buildRename(prog),
		globals: map[string]symInfo{},
	}

	globalSrc, err := g.lowerGlobals()
	if err != nil {
		return nil, err
	}

	var funcs []string
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		fp := plan.Funcs[fn.Name]
		src, err := g.lowerFunc(fn, fp)
		if err != nil {
			return nil, err
		}
		funcs = append(funcs, src)
	}

	var b strings.Builder
	b.WriteString(genHeader + "package main\n\n")
	var imports []string
	if g.usesMath {
		imports = append(imports, `"math"`)
	}
	if g.usesSync {
		imports = append(imports, `"sync"`)
	}
	if len(imports) > 0 {
		fmt.Fprintf(&b, "import (\n\t%s\n)\n\n", strings.Join(imports, "\n\t"))
	}
	if globalSrc != "" {
		b.WriteString(globalSrc)
		b.WriteString("\n")
	}
	for _, f := range funcs {
		b.WriteString(f)
		b.WriteString("\n\n")
	}
	b.WriteString(g.emitSigs())
	b.WriteString("\n")
	b.WriteString(g.emitDispatch())

	progGo, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("codegen: generated source does not parse: %v\n%s", err, b.String())
	}
	runtimeGo, err := format.Source([]byte(runtimeSrc))
	if err != nil {
		return nil, fmt.Errorf("codegen: runtime source does not parse: %v", err)
	}
	wireGo, ok := strings.CutPrefix(wireSrc, "package codegen\n")
	if !ok {
		return nil, fmt.Errorf("codegen: rtwire.go does not open with its package clause")
	}
	goMod := fmt.Sprintf("module %s\n\ngo 1.22\n", module)
	return &Package{
		ProgGo:    progGo,
		RuntimeGo: runtimeGo,
		WireGo:    []byte(genHeader + "package main\n" + wireGo),
		GoMod:     []byte(goMod),
	}, nil
}

// lowerGlobals emits package-level declarations for mini-C globals. Go
// resolves initializer order between package-level vars itself, so
// initializers that reference other globals lower directly.
func (g *gen) lowerGlobals() (string, error) {
	fg := &fnGen{g: g, scopes: []map[string]symInfo{{}}, reads: map[string]bool{}}
	var b strings.Builder
	for _, ds := range g.prog.Globals {
		isFloat := cminus.IsFloatType(ds.Type)
		t := tInt
		if isFloat {
			t = tFloat
		}
		for _, it := range ds.Items {
			goName := g.goName(it.Name)
			if len(it.Dims) > 0 || it.PtrDeep > 0 {
				dims := make([]string, len(it.Dims))
				for i, d := range it.Dims {
					v, err := fg.lowerExpr(d)
					if err != nil {
						return "", fmt.Errorf("global %s: %w", it.Name, err)
					}
					dims[i] = "int64(" + conv(v, tInt).s + ")"
				}
				ctor, kind := "rtNewI64", symIntArr
				if isFloat {
					ctor, kind = "rtNewF64", symFltArr
				}
				g.globals[it.Name] = symInfo{kind: kind, goName: goName}
				fmt.Fprintf(&b, "var %s = %s(%s)\n", goName, ctor, strings.Join(dims, ", "))
				continue
			}
			g.globals[it.Name] = symInfo{kind: symScalar, t: t, goName: goName}
			if it.Init != nil {
				v, err := fg.lowerExpr(it.Init)
				if err != nil {
					return "", fmt.Errorf("global %s: %w", it.Name, err)
				}
				fmt.Fprintf(&b, "var %s %s = %s\n", goName, t, conv(v, t).s)
			} else {
				fmt.Fprintf(&b, "var %s %s\n", goName, t)
			}
		}
	}
	return b.String(), nil
}

// paramKind is the wire-format argument kind for one parameter.
func paramKind(p cminus.Param) string {
	if p.PtrDeep > 0 || len(p.Dims) > 0 {
		if cminus.IsFloatType(p.Type) {
			return "f64a"
		}
		return "i64a"
	}
	if cminus.IsFloatType(p.Type) {
		return "float"
	}
	return "int"
}

// emitSigs renders the rtSigs table the runtime validates workload
// calls against, keyed by *source* function names (the wire format
// never sees mangled spellings).
func (g *gen) emitSigs() string {
	var names []string
	for _, fn := range g.prog.Funcs {
		if fn.Body != nil {
			names = append(names, fn.Name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("// rtSigs maps callable functions to their parameter kinds.\nvar rtSigs = map[string][]string{\n")
	for _, name := range names {
		fn := g.prog.Func(name)
		kinds := make([]string, len(fn.Params))
		for i, p := range fn.Params {
			kinds[i] = fmt.Sprintf("%q", paramKind(p))
		}
		fmt.Fprintf(&b, "\t%q: {%s},\n", name, strings.Join(kinds, ", "))
	}
	b.WriteString("}\n")
	return b.String()
}

// emitDispatch renders the call dispatcher from wire-format arguments
// to the lowered functions.
func (g *gen) emitDispatch() string {
	var b strings.Builder
	b.WriteString("// rtDispatch invokes a lowered function on decoded arguments;\n// it reports false for unknown names.\nfunc rtDispatch(fn string, args []rtArg) bool {\n\tswitch fn {\n")
	for _, fn := range g.prog.Funcs {
		if fn.Body == nil {
			continue
		}
		callArgs := make([]string, len(fn.Params))
		for i, p := range fn.Params {
			switch paramKind(p) {
			case "i64a":
				callArgs[i] = fmt.Sprintf("rtArgI64(args[%d])", i)
			case "f64a":
				callArgs[i] = fmt.Sprintf("rtArgF64(args[%d])", i)
			case "float":
				callArgs[i] = fmt.Sprintf("rtArgFloat(args[%d])", i)
			default:
				callArgs[i] = fmt.Sprintf("rtArgInt(args[%d])", i)
			}
		}
		call := fmt.Sprintf("%s(%s)", g.goName(fn.Name), strings.Join(callArgs, ", "))
		if fn.RetType != "void" {
			call = "_ = " + call
		}
		fmt.Fprintf(&b, "\tcase %q:\n\t\t%s\n\t\treturn true\n", fn.Name, call)
	}
	b.WriteString("\t}\n\treturn false\n}\n")
	return b.String()
}

// goKeywords and goPredeclared are identifiers a mini-C name must not
// shadow in the generated package.
var goKeywords = map[string]bool{
	"break": true, "case": true, "chan": true, "const": true,
	"continue": true, "default": true, "defer": true, "else": true,
	"fallthrough": true, "for": true, "func": true, "go": true,
	"goto": true, "if": true, "import": true, "interface": true,
	"map": true, "package": true, "range": true, "return": true,
	"select": true, "struct": true, "switch": true, "type": true,
	"var": true,
}

var goPredeclared = map[string]bool{
	"any": true, "append": true, "bool": true, "byte": true,
	"cap": true, "clear": true, "close": true, "comparable": true,
	"complex": true, "complex64": true, "complex128": true,
	"copy": true, "delete": true, "error": true, "false": true,
	"float32": true, "float64": true, "imag": true, "int": true,
	"int8": true, "int16": true, "int32": true, "int64": true,
	"iota": true, "len": true, "make": true, "max": true, "min": true,
	"new": true, "nil": true, "panic": true, "print": true,
	"println": true, "real": true, "recover": true, "rune": true,
	"string": true, "true": true, "uint": true, "uint8": true,
	"uint16": true, "uint32": true, "uint64": true, "uintptr": true,
}

// genReserved are names the generated package itself uses: init, the
// packages prog.go may import, and every import and top-level name of
// the fixed runtime and wire files. Go forbids declaring a package-level
// name that a file of the package also imports, so a mini-C global
// called io must be renamed. The fixed files' names are read from their
// source, so the set cannot drift from what they declare; it is built
// on first use, so programs that never emit do not parse them.
var genReserved = sync.OnceValue(func() map[string]bool {
	return fixedNames("init", "math", "sync")
})

// fixedNames returns extra plus the package names the runtime and wire
// sources import and the names they declare at top level.
func fixedNames(extra ...string) map[string]bool {
	names := map[string]bool{}
	for _, n := range extra {
		names[n] = true
	}
	for _, src := range []string{runtimeSrc, wireSrc} {
		f, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution)
		if err != nil {
			panic("codegen: fixed source does not parse: " + err.Error())
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			names[path[strings.LastIndex(path, "/")+1:]] = true
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

func unsafeName(name string) bool {
	return goKeywords[name] || goPredeclared[name] || genReserved()[name] ||
		strings.HasPrefix(name, "rt")
}

// buildRename assigns every declared mini-C identifier a safe, unique
// Go spelling. Safe names keep their own spelling; collisions with Go
// keywords, predeclared identifiers, imports or the generated runtime's
// rt-prefixed names get a "v_" prefix, then trailing underscores until
// unique. The map is built over sorted names so output is
// deterministic.
func buildRename(prog *cminus.Program) map[string]string {
	seen := map[string]bool{}
	var names []string
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, ds := range prog.Globals {
		for _, it := range ds.Items {
			add(it.Name)
		}
	}
	for _, fn := range prog.Funcs {
		add(fn.Name)
		for _, p := range fn.Params {
			add(p.Name)
		}
		if fn.Body == nil {
			continue
		}
		cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
			switch x := s.(type) {
			case *cminus.DeclStmt:
				for _, it := range x.Items {
					add(it.Name)
				}
			case *cminus.AssignStmt:
				// Implicit definitions: assignments to undeclared names
				// (normalized loop indices) become Go locals too.
				if id, ok := x.LHS.(*cminus.Ident); ok {
					add(id.Name)
				}
			}
			return true
		})
	}
	sort.Strings(names)
	rename := make(map[string]string, len(names))
	used := map[string]bool{}
	for _, name := range names {
		out := name
		if unsafeName(out) {
			out = "v_" + out
		}
		for used[out] || (out != name && seen[out]) {
			out += "_"
		}
		used[out] = true
		rename[name] = out
	}
	return rename
}
