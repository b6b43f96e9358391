package symbolic

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// ---- oracle: the map-based linear normal form ----
//
// The oracle is the original linsum algorithm: a Go map from term key to
// term, with keys rendered from the atoms on every add and ordered by
// sort.Strings only when the sum is emitted. The sorted-slice normal form
// in simplify.go must render every expression exactly as it does.

type oracleTerm struct {
	coef  int64
	atoms []Expr
}

func (t oracleTerm) key() string {
	parts := make([]string, len(t.atoms))
	for i, a := range t.atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, "*")
}

type oracleSum map[string]oracleTerm

func (l oracleSum) add(t oracleTerm) {
	if t.coef == 0 {
		return
	}
	k := t.key()
	if prev, ok := l[k]; ok {
		prev.coef += t.coef
		if prev.coef == 0 {
			delete(l, k)
		} else {
			l[k] = prev
		}
		return
	}
	l[k] = t
}

func (l oracleSum) addAll(o oracleSum) {
	for _, t := range o {
		l.add(t)
	}
}

func (l oracleSum) scale(c int64) oracleSum {
	out := oracleSum{}
	for _, t := range l {
		out.add(oracleTerm{coef: t.coef * c, atoms: t.atoms})
	}
	return out
}

func (l oracleSum) constVal() (int64, bool) {
	switch len(l) {
	case 0:
		return 0, true
	case 1:
		for _, t := range l {
			if len(t.atoms) == 0 {
				return t.coef, true
			}
		}
	}
	return 0, false
}

func oracleMul(a, b oracleSum) (oracleSum, bool) {
	if len(a)*len(b) > 256 {
		return nil, false
	}
	out := oracleSum{}
	for _, x := range a {
		for _, y := range b {
			atoms := append(append([]Expr(nil), x.atoms...), y.atoms...)
			sort.SliceStable(atoms, func(i, j int) bool { return atoms[i].String() < atoms[j].String() })
			out.add(oracleTerm{coef: x.coef * y.coef, atoms: atoms})
		}
	}
	return out, true
}

type oracleValue struct {
	lo, hi  oracleSum
	isRange bool
	invalid bool
}

func oracleNF(e Expr) oracleValue {
	switch x := e.(type) {
	case Int:
		l := oracleSum{}
		l.add(oracleTerm{coef: x.Val})
		return oracleValue{lo: l}
	case Bottom:
		return oracleValue{invalid: true}
	case Add:
		acc := oracleValue{lo: oracleSum{}}
		for _, t := range x.Terms {
			acc = oracleAdd(acc, oracleNF(t))
			if acc.invalid {
				return acc
			}
		}
		return acc
	case Mul:
		one := oracleSum{}
		one.add(oracleTerm{coef: 1})
		acc := oracleValue{lo: one}
		for _, f := range x.Factors {
			acc = oracleMulValues(acc, oracleNF(f))
			if acc.invalid {
				return acc
			}
		}
		return acc
	case Range:
		lo, hi := oracleNF(x.Lo), oracleNF(x.Hi)
		if lo.invalid || hi.invalid || lo.isRange || hi.isRange {
			return oracleValue{invalid: true}
		}
		return oracleValue{lo: lo.lo, hi: hi.lo, isRange: true}
	default:
		s := Simplify(e)
		if IsBottom(s) {
			return oracleValue{invalid: true}
		}
		switch s.Kind() {
		case KAdd, KMul, KRange, KInt:
			return oracleNF(s)
		}
		l := oracleSum{}
		l.add(oracleTerm{coef: 1, atoms: []Expr{s}})
		return oracleValue{lo: l}
	}
}

func oracleAdd(a, b oracleValue) oracleValue {
	if a.invalid || b.invalid {
		return oracleValue{invalid: true}
	}
	if !a.isRange && !b.isRange {
		out := oracleSum{}
		out.addAll(a.lo)
		out.addAll(b.lo)
		return oracleValue{lo: out}
	}
	alo, ahi := a.lo, a.lo
	if a.isRange {
		ahi = a.hi
	}
	blo, bhi := b.lo, b.lo
	if b.isRange {
		bhi = b.hi
	}
	lo := oracleSum{}
	lo.addAll(alo)
	lo.addAll(blo)
	hi := oracleSum{}
	hi.addAll(ahi)
	hi.addAll(bhi)
	return oracleValue{lo: lo, hi: hi, isRange: true}
}

func oracleMulValues(a, b oracleValue) oracleValue {
	if a.invalid || b.invalid {
		return oracleValue{invalid: true}
	}
	if !a.isRange && !b.isRange {
		out, ok := oracleMul(a.lo, b.lo)
		if !ok {
			return oracleValue{invalid: true}
		}
		return oracleValue{lo: out}
	}
	if !a.isRange {
		a, b = b, a
	}
	if b.isRange {
		al, aok := a.lo.constVal()
		ah, aok2 := a.hi.constVal()
		bl, bok := b.lo.constVal()
		bh, bok2 := b.hi.constVal()
		if aok && aok2 && bok && bok2 {
			prods := []int64{al * bl, al * bh, ah * bl, ah * bh}
			mn, mx := prods[0], prods[0]
			for _, p := range prods[1:] {
				mn, mx = min(mn, p), max(mx, p)
			}
			lo, hi := oracleSum{}, oracleSum{}
			lo.add(oracleTerm{coef: mn})
			hi.add(oracleTerm{coef: mx})
			return oracleValue{lo: lo, hi: hi, isRange: true}
		}
		return oracleValue{invalid: true}
	}
	if c, ok := b.lo.constVal(); ok {
		if c >= 0 {
			return oracleValue{lo: a.lo.scale(c), hi: a.hi.scale(c), isRange: true}
		}
		return oracleValue{lo: a.hi.scale(c), hi: a.lo.scale(c), isRange: true}
	}
	return oracleValue{invalid: true}
}

func oracleEmit(l oracleSum) Expr {
	if len(l) == 0 {
		return Zero
	}
	keys := make([]string, 0, len(l))
	var constTerm *oracleTerm
	for k, t := range l {
		if len(t.atoms) == 0 {
			tt := t
			constTerm = &tt
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Expr
	if constTerm != nil {
		out = append(out, NewInt(constTerm.coef))
	}
	for _, k := range keys {
		t := l[k]
		out = append(out, oracleEmitTerm(t))
	}
	if len(out) == 1 {
		return out[0]
	}
	return Add{Terms: out}
}

func oracleEmitTerm(t oracleTerm) Expr {
	if t.coef == 1 && len(t.atoms) == 1 {
		return t.atoms[0]
	}
	factors := make([]Expr, 0, len(t.atoms)+1)
	if t.coef != 1 {
		factors = append(factors, NewInt(t.coef))
	}
	factors = append(factors, t.atoms...)
	if len(factors) == 1 {
		return factors[0]
	}
	return Mul{Factors: factors}
}

// renderOracle and renderNF print a normal form as "⊥", "lo" or
// "[lo|hi]".
func renderOracle(v oracleValue) string {
	switch {
	case v.invalid:
		return "⊥"
	case v.isRange:
		return "[" + oracleEmit(v.lo).String() + "|" + oracleEmit(v.hi).String() + "]"
	}
	return oracleEmit(v.lo).String()
}

func renderNF(v value) string {
	switch {
	case v.invalid:
		return "⊥"
	case v.isRange:
		return "[" + emitLin(v.lo).String() + "|" + emitLin(v.hi).String() + "]"
	}
	return emitLin(v.lo).String()
}

// ---- random sums and products ----

// linNames is deliberately small so terms collide and cancel.
var linNames = []string{"n", "i", "k"}

func genLinAtom(r *rand.Rand, depth int) Expr {
	name := linNames[r.Intn(len(linNames))]
	switch r.Intn(6) {
	case 0, 1:
		return NewSym(name)
	case 2:
		return NewLambda(name)
	case 3:
		idx := NewSym(linNames[r.Intn(len(linNames))])
		if depth > 0 {
			idx = genLin(r, depth-1)
		}
		return ArrayRef{Name: "a" + name, Indices: []Expr{idx}}
	case 4:
		lo := NewInt(int64(r.Intn(5) - 2))
		hi := AddExpr(lo, NewInt(int64(r.Intn(4))))
		if depth > 0 && r.Intn(2) == 0 {
			hi = genLin(r, depth-1)
		}
		return Range{Lo: lo, Hi: hi}
	default:
		return NewInt(int64(r.Intn(7) - 3))
	}
}

// genLin builds a random sum or product. Sums repeat and negate their
// own terms so coefficients cancel, and some sums are constant-only or
// empty.
func genLin(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		return genLinAtom(r, 0)
	}
	switch r.Intn(6) {
	case 0:
		return Add{}
	case 1:
		n := r.Intn(4)
		terms := make([]Expr, n)
		for i := range terms {
			terms[i] = NewInt(int64(r.Intn(9) - 4))
		}
		return Add{Terms: terms}
	case 2, 3:
		var terms []Expr
		for i := r.Intn(4) + 1; i > 0; i-- {
			t := genLin(r, depth-1)
			terms = append(terms, t)
			if r.Intn(3) == 0 {
				terms = append(terms, Mul{Factors: []Expr{NewInt(-1), t}})
			}
		}
		r.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		return Add{Terms: terms}
	case 4:
		var fs []Expr
		for i := r.Intn(3) + 1; i > 0; i-- {
			fs = append(fs, genLin(r, depth-1))
		}
		return Mul{Factors: fs}
	default:
		return genLinAtom(r, depth)
	}
}

type linGen struct{ e Expr }

// Generate implements quick.Generator.
func (linGen) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(linGen{e: genLin(r, 1+r.Intn(4))})
}

// TestLinsumMatchesMapOracle checks the sorted-slice normal form against
// the map-based algorithm it replaced, on random sums and products of
// Int, Sym, λ, ArrayRef and Range atoms.
func TestLinsumMatchesMapOracle(t *testing.T) {
	prop := func(g linGen) bool {
		got, want := renderNF(nf(g.e)), renderOracle(oracleNF(g.e))
		if got != want {
			t.Logf("%s: got %s, want %s", g.e, got, want)
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Expr{
		Add{},
		Add{Terms: []Expr{NewInt(3), NewInt(-3)}},
		Add{Terms: []Expr{NewSym("n"), Mul{Factors: []Expr{NewInt(-1), NewSym("n")}}}},
		Mul{Factors: []Expr{Add{Terms: []Expr{NewSym("n"), NewInt(1)}}, Add{Terms: []Expr{NewSym("n"), NewInt(-1)}}}},
		Mul{Factors: []Expr{Range{Lo: NewInt(-1), Hi: NewInt(2)}, Range{Lo: NewInt(0), Hi: NewInt(3)}}},
	} {
		if got, want := renderNF(nf(e)), renderOracle(oracleNF(e)); got != want {
			t.Errorf("%s: got %s, want %s", e, got, want)
		}
	}
}
