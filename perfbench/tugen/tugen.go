// Package tugen generates the benchmark's translation units (TUs) from a
// seed. A TU concatenates 1–4 corpus kernels; every identifier of each
// kernel instance is renamed with a suffix derived from the seed and the
// instance's position in the generated sequence, so no two instances share
// symbol names and the symbolic memo cache cannot replay one kernel's
// analysis for another. Renaming is consistent inside an instance (the
// fill function and the kernel still name the same arrays), which keeps
// every verdict equal to the hand-written corpus.Benchmark.Expected value.
//
// Edit renames the locals of one function of a TU again: the result is a
// new request body whose other functions are unchanged, the shape of an
// editor keystroke that the incremental unit store is built for.
package tugen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cminus"
	"repro/internal/core"
	"repro/internal/corpus"
)

// Kernels is the generator's corpus: the twelve Table-1 kernels plus the
// three scatter kernels.
func Kernels() []*corpus.Benchmark { return corpus.Extended() }

// Instance is one renamed corpus kernel inside a TU.
type Instance struct {
	Bench *corpus.Benchmark
	// Suffix is appended to every identifier of the instance.
	Suffix string
	// Edits maps an (original) function name to the extra suffix its
	// locals carry after Edit.
	Edits map[string]string
}

// TU is one generated translation unit.
type TU struct {
	Name      string
	Level     core.Level
	Instances []Instance
}

// Gen draws TUs from a seed. It is not safe for concurrent use.
type Gen struct {
	rng *rand.Rand
	tag string
	n   int
}

// New returns a generator whose output is a pure function of seed.
func New(seed int64) *Gen {
	h := fnv.New32a()
	fmt.Fprintf(h, "tugen:%d", seed)
	return &Gen{
		rng: rand.New(rand.NewSource(seed)),
		tag: strconv.FormatUint(uint64(h.Sum32()), 36),
	}
}

func (g *Gen) suffix() string {
	g.n++
	return "_" + g.tag + strconv.FormatInt(int64(g.n), 36)
}

// drawLevel draws an analysis level weighted toward the paper's full
// algorithm: new 60%, base 20%, classical 20%.
func (g *Gen) drawLevel() core.Level {
	switch r := g.rng.Intn(10); {
	case r < 6:
		return core.New
	case r < 8:
		return core.Base
	default:
		return core.Classical
	}
}

// Next draws a TU of 1–4 kernels at a drawn level.
func (g *Gen) Next() *TU {
	ks := Kernels()
	n := 1 + g.rng.Intn(4)
	t := &TU{Level: g.drawLevel()}
	for i := 0; i < n; i++ {
		t.Instances = append(t.Instances, Instance{Bench: ks[g.rng.Intn(len(ks))], Suffix: g.suffix()})
	}
	t.Name = "tu" + t.Instances[0].Suffix + ".c"
	return t
}

// One builds a single-kernel TU of benchmark b at level l, drawing only
// the suffix from the generator.
func (g *Gen) One(b *corpus.Benchmark, l core.Level) *TU {
	t := &TU{Level: l, Instances: []Instance{{Bench: b, Suffix: g.suffix()}}}
	t.Name = "tu" + t.Instances[0].Suffix + ".c"
	return t
}

// Edit returns a copy of t in which the locals of one drawn function are
// renamed again. Functions without locals are never drawn; every corpus
// kernel has at least one function with locals.
func (g *Gen) Edit(t *TU) *TU {
	type target struct {
		inst int
		fn   string
	}
	var targets []target
	for i, in := range t.Instances {
		for _, fn := range EditableFuncs(in.Bench) {
			targets = append(targets, target{i, fn})
		}
	}
	pick := targets[g.rng.Intn(len(targets))]
	return t.WithEdit(pick.inst, pick.fn, g.suffix())
}

// WithEdit returns a copy of t whose instance inst has the locals of
// function fn renamed with the extra suffix sfx.
func (t *TU) WithEdit(inst int, fn, sfx string) *TU {
	out := &TU{Name: t.Name, Level: t.Level, Instances: append([]Instance(nil), t.Instances...)}
	edits := map[string]string{}
	for k, v := range t.Instances[inst].Edits {
		edits[k] = v
	}
	edits[fn] = sfx
	out.Instances[inst].Edits = edits
	return out
}

// Source renders the TU's program text.
func (t *TU) Source() string {
	var b strings.Builder
	for _, in := range t.Instances {
		b.WriteString(rename(in.Bench, in.Suffix, in.Edits))
	}
	return b.String()
}

// Assume returns the renamed AssumePositive symbols of every instance,
// sorted (the order subsubd normalizes requests to).
func (t *TU) Assume() []string {
	var out []string
	for _, in := range t.Instances {
		for _, s := range in.Bench.AssumePositive {
			out = append(out, s+in.Suffix)
		}
	}
	sort.Strings(out)
	return out
}

// KernelFunc returns the renamed kernel function of instance i.
func (t *TU) KernelFunc(i int) string {
	in := t.Instances[i]
	return in.Bench.KernelFunc + in.Suffix
}

// Expected returns the hand-written verdict of instance i at the TU's
// level (the Fig-17 structure recorded in the corpus).
func (t *TU) Expected(i int) corpus.ParallelismLevel {
	return t.Instances[i].Bench.Expected[t.Level]
}

// CoreSource returns the TU as a core.Source with its level and
// assumptions as a per-source override.
func (t *TU) CoreSource() core.Source {
	return core.Source{
		Name: t.Name,
		Src:  t.Source(),
		Opt:  &core.Options{Level: t.Level, AssumePositive: t.Assume()},
	}
}

// keep are identifiers renaming must not touch: C keywords and the
// mini-C math builtins.
var keep = func() map[string]bool {
	m := map[string]bool{}
	for _, w := range strings.Fields(`int long double float void char unsigned const static
		for while do if else return break continue struct sizeof
		exp sqrt fabs sin cos log pow fmod fmin fmax floor ceil abs`) {
		m[w] = true
	}
	return m
}()

// localsCache holds, per benchmark, each function's local variable names.
var localsCache = map[*corpus.Benchmark]map[string]map[string]bool{}

func init() {
	for _, b := range Kernels() {
		prog, err := cminus.Parse(b.Source)
		if err != nil {
			panic(fmt.Sprintf("tugen: corpus kernel %s does not parse: %v", b.Name, err))
		}
		fl := map[string]map[string]bool{}
		for _, fn := range prog.Funcs {
			names := map[string]bool{}
			cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
				if d, ok := s.(*cminus.DeclStmt); ok {
					for _, it := range d.Items {
						names[it.Name] = true
					}
				}
				return true
			})
			fl[fn.Name] = names
		}
		localsCache[b] = fl
	}
}

// EditableFuncs lists, sorted, the functions of b that declare locals.
func EditableFuncs(b *corpus.Benchmark) []string {
	var out []string
	for fn, locals := range localsCache[b] {
		if len(locals) > 0 {
			out = append(out, fn)
		}
	}
	sort.Strings(out)
	return out
}

// rename appends sfx to every identifier of b's source, and additionally
// edits[f] to the locals of function f. The corpus sources hold no
// comments or string literals, so a scan over identifiers, numbers and
// braces is exact.
func rename(b *corpus.Benchmark, sfx string, edits map[string]string) string {
	src := b.Source
	var out strings.Builder
	out.Grow(len(src) + len(src)/4)
	depth := 0
	fn := ""
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			id := src[i:j]
			if keep[id] {
				out.WriteString(id)
				i = j
				continue
			}
			if depth == 0 && nextNonSpace(src, j) == '(' {
				fn = id
			}
			out.WriteString(id)
			out.WriteString(sfx)
			if e, ok := edits[fn]; ok && depth > 0 && localsCache[b][fn][id] {
				out.WriteString(e)
			}
			i = j
		case c >= '0' && c <= '9':
			j := i + 1
			for j < len(src) && (isIdentPart(src[j]) || src[j] == '.') {
				j++
			}
			out.WriteString(src[i:j])
			i = j
		default:
			switch c {
			case '{':
				depth++
			case '}':
				depth--
			}
			out.WriteByte(c)
			i++
		}
	}
	return out.String()
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func nextNonSpace(s string, i int) byte {
	for ; i < len(s); i++ {
		if s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
			return s[i]
		}
	}
	return 0
}
