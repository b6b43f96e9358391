package interp

// Slot resolution, shared by the bytecode compiler (bytecode.go). One
// pass over each function assigns every name a place in the flat per-call
// frame: scalar locals and parameters get typed slots (ints / flts),
// privatizable globals get cell slots, arrays get reference slots, and
// every expression gets a static int or float type. Runtime errors
// propagate as engineErr panics recovered at the Call boundary (and at
// worker goroutine tops), so the hot path carries no error returns.
//
// Semantics deliberately mirror the tree walker (the reference oracle
// behind Machine.Interp = "tree") with one documented relaxation: the
// tree walker scopes implicitly-defined scalars (and locally declared
// names) per block, while the slot layout gives every name one flat
// slot per function. Programs that read a dead block's variable — which
// error under the tree walker — may observe a stale slot here. The
// corpus (and any well-formed program) never does this; the differential
// test layer pins the VM to the tree walker on every corpus benchmark.

import (
	"fmt"
	"math"

	"repro/internal/cminus"
	"repro/internal/parallelize"
)

// engineErr wraps a runtime error for panic-based propagation.
type engineErr struct{ err error }

func throwf(format string, args ...any) {
	panic(engineErr{fmt.Errorf(format, args...)})
}

// control is the outcome code of a VM segment run (the analogue of the
// tree walker's errReturn/errBreak/errContinue sentinels).
type control uint8

const (
	ctlNext control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// ctyp is the static type of an expression.
type ctyp uint8

const (
	tInt ctyp = iota
	tFloat
)

// Scalar symbol kinds.
const (
	syLocalInt uint8 = iota // slot in frame.ints
	syLocalFlt              // slot in frame.flts
	syGlobal                // captured *Value cell in m.Globals
	syCell                  // slot in frame.cells (privatizable global)
	syUnbound               // never assigned nor declared: reads error
)

type scalarSym struct {
	kind  uint8
	idx   int
	g     *Value // syGlobal / syCell
	float bool
	name  string
}

func (s *scalarSym) typ() ctyp {
	if s.float {
		return tFloat
	}
	return tInt
}

type arraySym struct {
	slot  int
	float bool // declared element type (runtime re-checks actual arrays)
}

// fnCompiler holds the per-function symbol tables. Resolution writes the
// frame layout (slot counts, parameter and entry bindings) straight into
// bf, the function being compiled.
type fnCompiler struct {
	m       *Machine
	fn      *cminus.FuncDecl
	bf      *bfunc
	scalars map[string]*scalarSym
	arrays  map[string]*arraySym
	fp      *parallelize.FuncPlan
}

// ---- resolution pass ----

func (fc *fnCompiler) newScalarSlot(name string, float bool) *scalarSym {
	s := &scalarSym{name: name, float: float}
	if float {
		s.kind = syLocalFlt
		s.idx = fc.bf.nFlts
		fc.bf.nFlts++
	} else {
		s.kind = syLocalInt
		s.idx = fc.bf.nInts
		fc.bf.nInts++
	}
	fc.scalars[name] = s
	return s
}

func (fc *fnCompiler) newArraySlot(name string, float bool) *arraySym {
	a := &arraySym{slot: fc.bf.nArrs, float: float}
	fc.bf.nArrs++
	fc.arrays[name] = a
	return a
}

// resolve assigns frame slots: parameters, declared locals, implicitly
// assigned scalars, referenced arrays, and — for globals privatized or
// reduced by some chosen parallel loop — cell slots.
func (fc *fnCompiler) resolve() {
	// Parameters.
	for _, prm := range fc.fn.Params {
		isFloat := cminus.IsFloatType(prm.Type)
		if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
			a := fc.newArraySlot(prm.Name, isFloat)
			fc.bf.params = append(fc.bf.params, paramSlot{name: prm.Name, kind: psArr, idx: a.slot})
			continue
		}
		s := fc.newScalarSlot(prm.Name, isFloat)
		kind := psInt
		if isFloat {
			kind = psFlt
		}
		fc.bf.params = append(fc.bf.params, paramSlot{name: prm.Name, kind: kind, idx: s.idx})
	}

	// Declared locals (scalars and arrays), anywhere in the body.
	cminus.WalkStmts(fc.fn.Body, func(s cminus.Stmt) bool {
		d, ok := s.(*cminus.DeclStmt)
		if !ok {
			return true
		}
		isFloat := cminus.IsFloatType(d.Type)
		for _, it := range d.Items {
			if len(it.Dims) > 0 || it.PtrDeep > 0 {
				if fc.arrays[it.Name] == nil {
					fc.newArraySlot(it.Name, isFloat)
				}
				continue
			}
			if fc.scalars[it.Name] == nil {
				fc.newScalarSlot(it.Name, isFloat)
			}
		}
		return true
	})

	// Arrays referenced by subscript or passed to user calls but not
	// declared here: bound from m.Arrays at call entry (possibly absent —
	// access then errors, like the tree walker's lazy lookup).
	bindEntryArray := func(name string) {
		if fc.arrays[name] != nil {
			return
		}
		float := false
		if a, ok := fc.m.Arrays[name]; ok {
			float = a.Float
		}
		sym := fc.newArraySlot(name, float)
		fc.bf.entryArrs = append(fc.bf.entryArrs, entryArr{slot: sym.slot, name: name})
	}
	cminus.WalkStmts(fc.fn.Body, func(s cminus.Stmt) bool {
		cminus.StmtExprs(s, func(e cminus.Expr) bool {
			switch x := e.(type) {
			case *cminus.IndexExpr:
				if name, _, ok := cminus.ArrayBase(x); ok {
					bindEntryArray(name)
				}
			case *cminus.CallExpr:
				if callee := fc.m.Prog.Func(x.Fun); callee != nil && callee.Body != nil {
					for i, prm := range callee.Params {
						if i >= len(x.Args) {
							break
						}
						if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
							if id, ok := x.Args[i].(*cminus.Ident); ok {
								bindEntryArray(id.Name)
							}
						}
					}
				}
			}
			return true
		})
		return true
	})

	// Implicitly assigned scalars (normalized loop indices): a plain
	// assignment to an undeclared, non-global name defines it, typed by
	// its first RHS.
	cminus.WalkStmts(fc.fn.Body, func(s cminus.Stmt) bool {
		as, ok := s.(*cminus.AssignStmt)
		if !ok {
			return true
		}
		id, ok := as.LHS.(*cminus.Ident)
		if !ok {
			return true
		}
		if fc.scalars[id.Name] != nil {
			return true
		}
		if _, isGlobal := fc.m.Globals[id.Name]; isGlobal {
			return true
		}
		fc.newScalarSlot(id.Name, fc.typeOf(as.RHS) == tFloat)
		return true
	})

	// Globals touched by a chosen parallel loop's private/reduction
	// clauses (or used as its index) get cell slots, so workers can swap
	// in private cells while normal frames alias the real global.
	promote := func(name string) {
		s := fc.resolveScalar(name)
		if s.kind != syGlobal {
			return
		}
		s.kind = syCell
		s.idx = fc.bf.nCells
		fc.bf.nCells++
		fc.bf.entryCells = append(fc.bf.entryCells, entryCell{slot: s.idx, g: s.g})
	}
	for _, loop := range cminus.NumberLoops(fc.fn.Body) {
		lp := fc.planFor(loop)
		if lp == nil || !lp.Chosen {
			continue
		}
		d := lp.Decision
		for _, p := range d.Privates {
			promote(p)
		}
		for v := range d.Reductions {
			promote(v)
		}
		promote(lp.Var)
	}
}

// planFor returns the plan for a loop, looked up by label.
func (fc *fnCompiler) planFor(loop *cminus.ForStmt) *parallelize.LoopPlan {
	if fc.fp == nil {
		return nil
	}
	return fc.fp.Loops[loop.Label]
}

// resolveScalar memoizes name resolution: local slot, global cell, or
// unbound.
func (fc *fnCompiler) resolveScalar(name string) *scalarSym {
	if s, ok := fc.scalars[name]; ok {
		return s
	}
	if g, ok := fc.m.Globals[name]; ok {
		s := &scalarSym{kind: syGlobal, g: g, float: g.Float, name: name}
		fc.scalars[name] = s
		return s
	}
	s := &scalarSym{kind: syUnbound, name: name}
	fc.scalars[name] = s
	return s
}

// peekScalar resolves without creating unbound entries.
func (fc *fnCompiler) peekScalar(name string) *scalarSym {
	if s, ok := fc.scalars[name]; ok {
		if s.kind == syUnbound {
			return nil
		}
		return s
	}
	if g, ok := fc.m.Globals[name]; ok {
		s := &scalarSym{kind: syGlobal, g: g, float: g.Float, name: name}
		fc.scalars[name] = s
		return s
	}
	return nil
}

// ---- static typing ----

func promoteTyp(a, b ctyp) ctyp {
	if a == tFloat || b == tFloat {
		return tFloat
	}
	return tInt
}

func (fc *fnCompiler) typeOf(e cminus.Expr) ctyp {
	switch x := e.(type) {
	case *cminus.IntLit, *cminus.StringLit:
		return tInt
	case *cminus.FloatLit:
		return tFloat
	case *cminus.Ident:
		if s := fc.peekScalar(x.Name); s != nil {
			return s.typ()
		}
		return tInt
	case *cminus.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return promoteTyp(fc.typeOf(x.X), fc.typeOf(x.Y))
		default:
			// Comparisons, logical, %, bitwise, shifts are int-valued.
			return tInt
		}
	case *cminus.UnaryExpr:
		switch x.Op {
		case "-", "++", "--":
			return fc.typeOf(x.X)
		default: // !, ~
			return tInt
		}
	case *cminus.CondExpr:
		return promoteTyp(fc.typeOf(x.T), fc.typeOf(x.F))
	case *cminus.IndexExpr:
		if name, _, ok := cminus.ArrayBase(x); ok {
			if a := fc.arrays[name]; a != nil && a.float {
				return tFloat
			}
		}
		return tInt
	case *cminus.CallExpr:
		if fn := fc.m.Prog.Func(x.Fun); fn != nil && fn.Body != nil {
			if cminus.IsFloatType(fn.RetType) {
				return tFloat
			}
			return tInt
		}
		if x.Fun == "abs" {
			return tInt
		}
		return tFloat // builtins
	case *cminus.CastExpr:
		if cminus.IsFloatType(x.Type) {
			return tFloat
		}
		return tInt
	}
	return tInt
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---- shared runtime helpers ----

// Float builtins by arity; abs is the one int-valued builtin.
var builtins1 = map[string]func(float64) float64{
	"exp":   math.Exp,
	"sqrt":  math.Sqrt,
	"fabs":  math.Abs,
	"sin":   math.Sin,
	"cos":   math.Cos,
	"log":   math.Log,
	"floor": math.Floor,
	"ceil":  math.Ceil,
}

var builtins2 = map[string]func(float64, float64) float64{
	"pow":  math.Pow,
	"fmod": math.Mod,
	"fmin": math.Min,
	"fmax": math.Max,
}

// intCombine and floatCombine fold per-worker reduction partials into
// the parent frame.
func intCombine(op string) func(a, b int64) int64 {
	switch op {
	case "+":
		return func(a, b int64) int64 { return a + b }
	case "-":
		return func(a, b int64) int64 { return a - b }
	case "*":
		return func(a, b int64) int64 { return a * b }
	case "/":
		return func(a, b int64) int64 {
			if b == 0 {
				throwf("interp: integer division by zero")
			}
			return a / b
		}
	case "%":
		return func(a, b int64) int64 {
			if b == 0 {
				throwf("interp: modulo by zero")
			}
			return a % b
		}
	}
	return func(int64, int64) int64 {
		throwf("interp: unsupported operator %q", op)
		return 0
	}
}

func floatCombine(op string) func(a, b float64) float64 {
	switch op {
	case "+":
		return func(a, b float64) float64 { return a + b }
	case "-":
		return func(a, b float64) float64 { return a - b }
	case "*":
		return func(a, b float64) float64 { return a * b }
	case "/":
		return func(a, b float64) float64 { return a / b }
	case "%":
		return func(a, b float64) float64 {
			bi := int64(b)
			if bi == 0 {
				throwf("interp: modulo by zero")
			}
			return float64(int64(a) % bi)
		}
	}
	return func(float64, float64) float64 {
		throwf("interp: unsupported operator %q", op)
		return 0
	}
}
