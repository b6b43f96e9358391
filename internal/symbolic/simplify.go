package symbolic

import (
	"slices"
	"sort"
	"strings"
)

// Simplify returns the canonical form of e: sums are flattened into a
// linear combination of atoms with folded constants, products distribute
// over sums, range arithmetic is applied ([a:b]+[c:d] = [a+c:b+d], and
// k*[a:b] for constant k distributes into the bounds), and ⊥ absorbs any
// arithmetic it participates in. Boolean expressions are simplified
// recursively. The result is deterministic, so String equality on
// simplified expressions is a sound equality test.
//
// Results are memoized in a bounded, sharded, concurrency-safe cache (see
// cache.go); because simplification is deterministic, a cached result is
// identical to a recomputed one.
func Simplify(e Expr) Expr {
	if e == nil {
		return Bottom{}
	}
	switch e.(type) {
	// Leaves are already canonical; skip the cache key entirely.
	case Int, Sym, Lambda, BigLambda, Bottom, BoolLit:
		return e
	}
	// Structural caps: an input too deep or too large to canonicalize
	// degrades to ⊥ before any recursion (see limits.go). Children seen
	// during recursive simplification are subtrees of a measured input,
	// so they pass their own (smaller) check.
	if exceedsLimits(e) {
		capHits.Add(1)
		return Bottom{}
	}
	if cacheOff.Load() {
		return simplify1(e)
	}
	// The key buffer is held across simplify1; nested Simplify calls
	// take their own from the pool.
	kb := getKeyBuf()
	defer putKeyBuf(kb)
	key := kb.render(e)
	if v, ok := simpCache.get(key); ok {
		return v
	}
	v := Intern(simplify1(e))
	simpCache.put(key, v)
	return v
}

// simplify1 performs one full (uncached) canonicalization of e; recursive
// work on sub-expressions still goes through the memoized Simplify.
func simplify1(e Expr) Expr {
	switch x := e.(type) {
	case Int, Sym, Lambda, BigLambda, Bottom, BoolLit:
		return e
	case Add, Mul:
		return emitValue(nf(e))
	case Div:
		num, den := Simplify(x.Num), Simplify(x.Den)
		if IsBottom(num) || IsBottom(den) {
			return Bottom{}
		}
		if nv, ok := AsInt(num); ok {
			if dv, ok2 := AsInt(den); ok2 && dv != 0 {
				return NewInt(nv / dv)
			}
		}
		if dv, ok := AsInt(den); ok && dv == 1 {
			return num
		}
		return Div{Num: num, Den: den}
	case Mod:
		num, den := Simplify(x.Num), Simplify(x.Den)
		if IsBottom(num) || IsBottom(den) {
			return Bottom{}
		}
		if nv, ok := AsInt(num); ok {
			if dv, ok2 := AsInt(den); ok2 && dv != 0 {
				return NewInt(nv % dv)
			}
		}
		return Mod{Num: num, Den: den}
	case Min:
		return simplifyMinMax(x.Args, true)
	case Max:
		return simplifyMinMax(x.Args, false)
	case ArrayRef:
		idx := simplifyAll(x.Indices)
		return ArrayRef{Name: x.Name, Indices: idx}
	case Call:
		return Call{Name: x.Name, Args: simplifyAll(x.Args)}
	case Range:
		lo, hi := Simplify(x.Lo), Simplify(x.Hi)
		if IsBottom(lo) || IsBottom(hi) {
			return Bottom{}
		}
		// Flatten nested ranges: a range whose bounds are themselves
		// ranges covers [lo.Lo : hi.Hi] (arises when substituting a range
		// for a variable inside another range's bounds).
		if lr, ok := lo.(Range); ok {
			lo = lr.Lo
		}
		if hr, ok := hi.(Range); ok {
			hi = hr.Hi
		}
		if lo.String() == hi.String() {
			return lo
		}
		return Range{Lo: lo, Hi: hi}
	case Tagged:
		return Tagged{Cond: Simplify(x.Cond), E: Simplify(x.E)}
	case Set:
		items := simplifyAll(x.Items)
		return NewSet(items...)
	case Mono:
		return Mono{Base: Simplify(x.Base), Strict: x.Strict, Dim: x.Dim}
	case Cmp:
		return simplifyCmp(x)
	case And:
		return simplifyAnd(x.Conds)
	case Or:
		return simplifyOr(x.Conds)
	case Not:
		return simplifyNot(x.C)
	}
	return e
}

func simplifyAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Simplify(e)
	}
	return out
}

func simplifyMinMax(args []Expr, isMin bool) Expr {
	args = simplifyAll(args)
	var consts []int64
	var rest []Expr
	for _, a := range args {
		if IsBottom(a) {
			return Bottom{}
		}
		if v, ok := AsInt(a); ok {
			consts = append(consts, v)
			continue
		}
		rest = append(rest, a)
	}
	if len(consts) > 0 {
		best := consts[0]
		for _, v := range consts[1:] {
			if (isMin && v < best) || (!isMin && v > best) {
				best = v
			}
		}
		rest = append(rest, NewInt(best))
	}
	// Deduplicate and order by rendered form, computing each key once:
	// String() re-renders the whole tree per call, so comparator-driven
	// calls turn an O(n log n) sort into repeated full renders.
	keys := make([]string, len(rest))
	for i, a := range rest {
		keys[i] = a.String()
	}
	seen := map[string]bool{}
	uniq := rest[:0]
	uniqKeys := keys[:0]
	for i, a := range rest {
		if !seen[keys[i]] {
			seen[keys[i]] = true
			uniq = append(uniq, a)
			uniqKeys = append(uniqKeys, keys[i])
		}
	}
	sort.Sort(&keyedExprs{exprs: uniq, keys: uniqKeys})
	if len(uniq) == 1 {
		return uniq[0]
	}
	if folded, ok := foldConstantOffsets(uniq, isMin); ok {
		return folded
	}
	if isMin {
		return Min{Args: uniq}
	}
	return Max{Args: uniq}
}

// foldConstantOffsets resolves min/max over expressions that differ only
// by integer constants (e.g. min(λ+4, λ, λ+20) = λ): the comparison
// reduces to comparing the constants.
func foldConstantOffsets(args []Expr, isMin bool) (Expr, bool) {
	if len(args) < 2 {
		return nil, false
	}
	base := nf(args[0])
	if base.invalid || base.isRange {
		return nil, false
	}
	bestIdx, bestDiff := 0, int64(0)
	for i := 1; i < len(args); i++ {
		v := nf(args[i])
		if v.invalid || v.isRange {
			return nil, false
		}
		c, ok := addScaled(v.lo, base.lo, -1).constVal()
		if !ok {
			return nil, false
		}
		if (isMin && c < bestDiff) || (!isMin && c > bestDiff) {
			bestIdx, bestDiff = i, c
		}
	}
	return args[bestIdx], true
}

// ---- linear normal form ----

// atom is a canonical non-constant factor with its rendering, computed
// once when the atom enters a term.
type atom struct {
	e   Expr
	key string
}

// term is coef * product(atoms); atoms are sorted by their rendering and
// key is those renderings joined by "*" (empty for the constant term).
// Terms are never mutated once built, so sums and products share their
// atom slices freely.
type term struct {
	coef  int64
	atoms []atom
	key   string
}

// atomTerm returns the single-atom term 1*a.
func atomTerm(a Expr) term {
	k := a.String()
	return term{coef: 1, atoms: []atom{{e: a, key: k}}, key: k}
}

// linsum is a canonical linear combination: terms sorted by key, with
// unique keys and nonzero coefficients. The constant term, whose key is
// empty, sorts first. A linsum is immutable once built.
type linsum []term

// constLin returns the linear form of the constant c (empty for 0).
func constLin(c int64) linsum {
	if c == 0 {
		return nil
	}
	return linsum{{coef: c}}
}

// addScaled returns a + c*b in one merge of the two sorted sums. Where a
// key occurs in both, a's atoms are kept; terms whose coefficient
// cancels to zero are dropped.
func addScaled(a, b linsum, c int64) linsum {
	if len(b) == 0 || c == 0 {
		return a
	}
	if len(a) == 0 && c == 1 {
		return b
	}
	out := make(linsum, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch cmp := strings.Compare(a[i].key, b[j].key); {
		case cmp < 0:
			out = append(out, a[i])
			i++
		case cmp > 0:
			out = appendCoef(out, b[j], c*b[j].coef)
			j++
		default:
			out = appendCoef(out, a[i], a[i].coef+c*b[j].coef)
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = appendCoef(out, b[j], c*b[j].coef)
	}
	return out
}

// appendCoef appends t with coefficient coef unless coef is zero.
func appendCoef(l linsum, t term, coef int64) linsum {
	if coef == 0 {
		return l
	}
	t.coef = coef
	return append(l, t)
}

func (l linsum) scale(c int64) linsum { return addScaled(nil, l, c) }

func (l linsum) constVal() (int64, bool) {
	switch len(l) {
	case 0:
		return 0, true
	case 1:
		if len(l[0].atoms) == 0 {
			return l[0].coef, true
		}
	}
	return 0, false
}

func mulLin(a, b linsum) (linsum, bool) {
	// Distribute; refuse if the result would be enormous.
	if len(a)*len(b) > 256 {
		return nil, false
	}
	// A constant factor only rescales the other side's (already sorted,
	// unique) terms.
	if c, ok := a.constVal(); ok {
		return b.scale(c), true
	}
	if c, ok := b.constVal(); ok {
		return a.scale(c), true
	}
	out := make(linsum, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			if coef := x.coef * y.coef; coef != 0 {
				out = append(out, mulTerm(coef, x, y))
			}
		}
	}
	slices.SortStableFunc(out, func(p, q term) int { return strings.Compare(p.key, q.key) })
	// Fold equal keys in order, as repeated addition would: a run that
	// cancels to zero is dropped and the next equal key starts afresh.
	n := 0
	for _, t := range out {
		if n > 0 && out[n-1].key == t.key {
			out[n-1].coef += t.coef
			if out[n-1].coef == 0 {
				n--
			}
			continue
		}
		out[n] = t
		n++
	}
	return out[:n], true
}

// mulTerm builds the product term coef*x.atoms*y.atoms. Each side's
// atoms are already sorted, so the product is one merge of the two
// lists by their pre-rendered keys.
func mulTerm(coef int64, x, y term) term {
	if len(x.atoms) == 0 {
		return term{coef: coef, atoms: y.atoms, key: y.key}
	}
	if len(y.atoms) == 0 {
		return term{coef: coef, atoms: x.atoms, key: x.key}
	}
	atoms := make([]atom, 0, len(x.atoms)+len(y.atoms))
	i, j := 0, 0
	for i < len(x.atoms) && j < len(y.atoms) {
		if x.atoms[i].key <= y.atoms[j].key {
			atoms = append(atoms, x.atoms[i])
			i++
		} else {
			atoms = append(atoms, y.atoms[j])
			j++
		}
	}
	atoms = append(atoms, x.atoms[i:]...)
	atoms = append(atoms, y.atoms[j:]...)
	var b strings.Builder
	b.Grow(len(x.key) + 1 + len(y.key))
	for k, a := range atoms {
		if k > 0 {
			b.WriteByte('*')
		}
		b.WriteString(a.key)
	}
	return term{coef: coef, atoms: atoms, key: b.String()}
}

// value is the normal form of an expression: either a single linsum or a
// range of two linsums. invalid marks ⊥.
type value struct {
	lo, hi  linsum
	isRange bool
	invalid bool
}

func scalarValue(l linsum) value { return value{lo: l} }

func bottomValue() value { return value{invalid: true} }

// nf computes the normal form of e. Opaque sub-expressions (array refs,
// calls, min/max, div/mod, tagged, sets, mono) become atoms after internal
// simplification.
func nf(e Expr) value {
	switch x := e.(type) {
	case Int:
		return scalarValue(constLin(x.Val))
	case Bottom:
		return bottomValue()
	case Add:
		acc := scalarValue(nil)
		for _, t := range x.Terms {
			acc = addValues(acc, nf(t))
			if acc.invalid {
				return acc
			}
		}
		return acc
	case Mul:
		acc := scalarValue(constLin(1))
		for _, f := range x.Factors {
			acc = mulValues(acc, nf(f))
			if acc.invalid {
				return acc
			}
		}
		return acc
	case Range:
		lo, hi := nf(x.Lo), nf(x.Hi)
		if lo.invalid || hi.invalid || lo.isRange || hi.isRange {
			return bottomValue()
		}
		return value{lo: lo.lo, hi: hi.lo, isRange: true}
	default:
		s := Simplify(e)
		if IsBottom(s) {
			return bottomValue()
		}
		// Simplification of an opaque node (e.g. a min/max collapsing to a
		// single argument) may expose a linearizable expression; normalize
		// it rather than treating it as an atom.
		switch s.Kind() {
		case KAdd, KMul, KRange, KInt:
			return nf(s)
		}
		return scalarValue(linsum{atomTerm(s)})
	}
}

func addValues(a, b value) value {
	if a.invalid || b.invalid {
		return bottomValue()
	}
	if !a.isRange && !b.isRange {
		return scalarValue(addScaled(a.lo, b.lo, 1))
	}
	alo, ahi := a.lo, a.lo
	if a.isRange {
		ahi = a.hi
	}
	blo, bhi := b.lo, b.lo
	if b.isRange {
		bhi = b.hi
	}
	return value{lo: addScaled(alo, blo, 1), hi: addScaled(ahi, bhi, 1), isRange: true}
}

func mulValues(a, b value) value {
	if a.invalid || b.invalid {
		return bottomValue()
	}
	if !a.isRange && !b.isRange {
		out, ok := mulLin(a.lo, b.lo)
		if !ok {
			// A product too large to distribute degrades to ⊥: the analysis
			// never needs such expressions, and keeping a half-distributed
			// atom would break simplification idempotence.
			return bottomValue()
		}
		return scalarValue(out)
	}
	// Put the range on the left.
	if !a.isRange {
		a, b = b, a
	}
	if b.isRange {
		// Range*range: fold only when all bounds are constant.
		al, aok := a.lo.constVal()
		ah, aok2 := a.hi.constVal()
		bl, bok := b.lo.constVal()
		bh, bok2 := b.hi.constVal()
		if aok && aok2 && bok && bok2 {
			prods := []int64{al * bl, al * bh, ah * bl, ah * bh}
			mn, mx := prods[0], prods[0]
			for _, p := range prods[1:] {
				if p < mn {
					mn = p
				}
				if p > mx {
					mx = p
				}
			}
			return value{lo: constLin(mn), hi: constLin(mx), isRange: true}
		}
		return bottomValue()
	}
	if c, ok := b.lo.constVal(); ok {
		if c >= 0 {
			return value{lo: a.lo.scale(c), hi: a.hi.scale(c), isRange: true}
		}
		return value{lo: a.hi.scale(c), hi: a.lo.scale(c), isRange: true}
	}
	// Symbolic multiplier of unknown sign: without a sign context we cannot
	// orient the bounds, so the result is unknown.
	return bottomValue()
}

func emitValue(v value) Expr {
	if v.invalid {
		return Bottom{}
	}
	if !v.isRange {
		return emitLin(v.lo)
	}
	lo, hi := emitLin(v.lo), emitLin(v.hi)
	if lo.String() == hi.String() {
		return lo
	}
	return Range{Lo: lo, Hi: hi}
}

// emitLin renders a linear form as an expression. The terms are already
// in canonical order, constant first.
func emitLin(l linsum) Expr {
	switch len(l) {
	case 0:
		return Zero
	case 1:
		return emitTerm(l[0])
	}
	out := make([]Expr, len(l))
	for i, t := range l {
		out[i] = emitTerm(t)
	}
	return Add{Terms: out}
}

func emitTerm(t term) Expr {
	if len(t.atoms) == 0 {
		return NewInt(t.coef)
	}
	if t.coef == 1 && len(t.atoms) == 1 {
		return t.atoms[0].e
	}
	factors := make([]Expr, 0, len(t.atoms)+1)
	if t.coef != 1 {
		factors = append(factors, NewInt(t.coef))
	}
	for _, a := range t.atoms {
		factors = append(factors, a.e)
	}
	return Mul{Factors: factors}
}

// ---- boolean simplification ----

func simplifyCmp(c Cmp) Expr {
	l, r := Simplify(c.L), Simplify(c.R)
	if lv, ok := AsInt(l); ok {
		if rv, ok2 := AsInt(r); ok2 {
			return BoolLit{Val: evalCmp(c.Op, lv, rv)}
		}
	}
	// Canonicalize to diff-form: keep as-is but normalize operand order for
	// equality/inequality so that structural comparison of tags works.
	if (c.Op == OpEQ || c.Op == OpNE) && l.String() > r.String() {
		l, r = r, l
	}
	return Cmp{Op: c.Op, L: l, R: r}
}

func evalCmp(op CmpOp, a, b int64) bool {
	switch op {
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	}
	return false
}

func simplifyAnd(conds []Expr) Expr {
	var out []Expr
	for _, c := range conds {
		s := Simplify(c)
		if b, ok := s.(BoolLit); ok {
			if !b.Val {
				return BoolLit{Val: false}
			}
			continue
		}
		if a, ok := s.(And); ok {
			out = append(out, a.Conds...)
			continue
		}
		out = append(out, s)
	}
	out = dedupConds(out)
	switch len(out) {
	case 0:
		return BoolLit{Val: true}
	case 1:
		return out[0]
	}
	return And{Conds: out}
}

func simplifyOr(conds []Expr) Expr {
	var out []Expr
	for _, c := range conds {
		s := Simplify(c)
		if b, ok := s.(BoolLit); ok {
			if b.Val {
				return BoolLit{Val: true}
			}
			continue
		}
		if o, ok := s.(Or); ok {
			out = append(out, o.Conds...)
			continue
		}
		out = append(out, s)
	}
	out = dedupConds(out)
	switch len(out) {
	case 0:
		return BoolLit{Val: false}
	case 1:
		return out[0]
	}
	return Or{Conds: out}
}

func simplifyNot(c Expr) Expr {
	s := Simplify(c)
	switch x := s.(type) {
	case BoolLit:
		return BoolLit{Val: !x.Val}
	case Not:
		return x.C
	case Cmp:
		return Cmp{Op: x.Op.Negate(), L: x.L, R: x.R}
	}
	return Not{C: s}
}

func dedupConds(conds []Expr) []Expr {
	seen := map[string]bool{}
	var out []Expr
	var keys []string
	for _, c := range conds {
		k := c.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
			keys = append(keys, k)
		}
	}
	sort.Sort(&keyedExprs{exprs: out, keys: keys})
	return out
}

// keyedExprs sorts expressions by pre-rendered string keys, keeping the
// two slices aligned; String() runs once per element, not per compare.
type keyedExprs struct {
	exprs []Expr
	keys  []string
}

func (k *keyedExprs) Len() int           { return len(k.exprs) }
func (k *keyedExprs) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedExprs) Swap(i, j int) {
	k.exprs[i], k.exprs[j] = k.exprs[j], k.exprs[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}
