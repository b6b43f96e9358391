package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cminus"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/symbolic"
	"repro/internal/trace"
	"repro/perfbench/tugen"
)

// tuPool hands out generated TUs in sequence order to concurrent clients,
// generating more (outside any timed region) when the pre-generated
// stock runs out. No TU is handed out twice.
type tuPool struct {
	mu   sync.Mutex
	gen  *tugen.Gen
	tus  []*tugen.TU
	srcs []core.Source
	next int
}

func newTUPool(seed int64, n int) *tuPool {
	p := &tuPool{gen: tugen.New(seed)}
	p.grow(n)
	return p
}

func (p *tuPool) add(t *tugen.TU) {
	p.tus = append(p.tus, t)
	p.srcs = append(p.srcs, t.CoreSource())
}

func (p *tuPool) grow(n int) {
	for i := 0; i < n; i++ {
		p.add(p.gen.Next())
	}
}

func (p *tuPool) take() (*tugen.TU, core.Source) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next == len(p.tus) {
		p.grow(256)
	}
	i := p.next
	p.next++
	return p.tus[i], p.srcs[i]
}

// checkVerdicts compares each kernel's achieved parallelism with the
// hand-written expectation and returns the mismatches. wrong, when set,
// replaces the expectation of instance 0 with a wrong one (the -inject
// verdict self-test).
func checkVerdicts(tu *tugen.TU, res *core.Result, wrong bool) []string {
	var bad []string
	for k := range tu.Instances {
		want := tu.Expected(k)
		if wrong && k == 0 {
			want = (want + 1) % 3
		}
		if got := corpus.Achieved(res.Plan, tu.KernelFunc(k)); got != want {
			bad = append(bad, fmt.Sprintf("%s %s at %s: achieved %v, expected %v",
				tu.Name, tu.Instances[k].Bench.Name, core.LevelName(tu.Level), got, want))
		}
	}
	return bad
}

// analyzePhase is one closed-loop measurement of the analyze workload.
type analyzePhase struct {
	lat                 []float64       // per-TU latency, ms
	at                  []time.Duration // per-TU completion offset
	goodAt              []time.Duration // completion offsets of correct TUs
	ok, failed          int64
	elapsed             time.Duration
	encode              time.Duration
	loops, chosen       int64
	symBefore, symAfter symbolic.CacheStats
	allocBytes          uint64
	failures            []string
}

// analyzeOne analyzes and encodes one TU as a user's one-shot compile
// does, returning the encoding time and the failures found by checking
// the result against the hand-written expectations. Only the span from
// the call to the end of the encoding is timed.
func analyzeOne(tu *tugen.TU, src core.Source, rec *trace.Recorder, wrong bool) (res *core.Result, took, enc time.Duration, bad []string) {
	opt := core.Options{Workers: 1}
	if rec != nil {
		opt.Trace = rec
	}
	t0 := time.Now()
	results := core.AnalyzeBatch([]core.Source{src}, opt)
	t1 := time.Now()
	body, err := core.MarshalBatch(results, true)
	t2 := time.Now()
	switch {
	case err != nil:
		bad = []string{fmt.Sprintf("%s: encode: %v", tu.Name, err)}
	case results[0].Err != nil:
		bad = []string{fmt.Sprintf("%s: %v", tu.Name, results[0].Err)}
	case len(body) == 0:
		bad = []string{tu.Name + ": empty encoding"}
	default:
		res = results[0].Res
		bad = checkVerdicts(tu, res, wrong)
	}
	return res, t2.Sub(t0), t2.Sub(t1), bad
}

// runAnalyzePhase runs clients closed-loop clients for dur.
func runAnalyzePhase(pool *tuPool, dur time.Duration, clients int, inject bool) *analyzePhase {
	ph := &analyzePhase{}
	var mu sync.Mutex
	var injected atomic.Bool
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph.symBefore = symbolic.ReadCacheStats()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var at, goodAt []time.Duration
			var enc time.Duration
			var loops, chosen int64
			for time.Now().Before(deadline) {
				tu, src := pool.take()
				wrong := inject && injected.CompareAndSwap(false, true)
				res, took, e, bad := analyzeOne(tu, src, nil, wrong)
				done := time.Since(start)
				lat = append(lat, ms(took))
				at = append(at, done)
				enc += e
				if res != nil {
					for _, fp := range res.Plan.Funcs {
						for _, lp := range fp.Loops {
							loops++
							if lp.Chosen {
								chosen++
							}
						}
					}
				}
				if len(bad) == 0 {
					goodAt = append(goodAt, done)
					continue
				}
				mu.Lock()
				ph.failed++
				ph.failures = append(ph.failures, bad...)
				mu.Unlock()
			}
			mu.Lock()
			ph.ok += int64(len(goodAt))
			ph.lat = append(ph.lat, lat...)
			ph.at = append(ph.at, at...)
			ph.goodAt = append(ph.goodAt, goodAt...)
			ph.encode += enc
			ph.loops += loops
			ph.chosen += chosen
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.symAfter = symbolic.ReadCacheStats()
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return ph
}

func (ph *analyzePhase) n() float64 { return float64(ph.ok + ph.failed) }

// pairedBatch is the number of TUs each arm of a paired batch analyzes.
const pairedBatch = 16

// pairedPhase is the traced run's measurement of tracing: the same TUs
// analyzed once untraced and once traced.
type pairedPhase struct {
	aggs            map[string]*trace.StageAgg
	n               int // TUs per arm
	plain, traced   time.Duration
	attempted, fail int64
	failures        []string
}

// runPairedPhase takes batches of pairedBatch TUs until dur has passed and
// analyzes each batch twice on one client, untraced and traced, each time
// from a reset memo cache and a collected heap so both arms start from the
// same state; the
// arm that goes first alternates between batches so drift of the host
// cancels. The traced arm's span aggregates are summed.
func runPairedPhase(pool *tuPool, dur time.Duration) *pairedPhase {
	ph := &pairedPhase{aggs: map[string]*trace.StageAgg{}}
	deadline := time.Now().Add(dur)
	for b := 0; time.Now().Before(deadline); b++ {
		tus := make([]*tugen.TU, pairedBatch)
		srcs := make([]core.Source, pairedBatch)
		for i := range tus {
			tus[i], srcs[i] = pool.take()
		}
		for arm := 0; arm < 2; arm++ {
			traced := (arm+b)%2 == 1
			symbolic.ResetCache()
			runtime.GC()
			for i, tu := range tus {
				var rec *trace.Recorder
				if traced {
					rec = trace.NewRecorder()
				}
				_, took, _, bad := analyzeOne(tu, srcs[i], rec, false)
				ph.attempted++
				if len(bad) > 0 {
					ph.fail++
					ph.failures = append(ph.failures, bad...)
				}
				if !traced {
					ph.plain += took
					continue
				}
				ph.traced += took
				for _, a := range trace.Aggregate(rec.Spans()) {
					s := ph.aggs[a.Stage]
					if s == nil {
						s = &trace.StageAgg{Stage: a.Stage}
						ph.aggs[a.Stage] = s
					}
					s.Count += a.Count
					s.Total += a.Total
					s.Self += a.Self
					for i := range a.Counters {
						s.Counters[i] += a.Counters[i]
					}
				}
			}
		}
		ph.n += pairedBatch
	}
	return ph
}

// analyzeClients is the closed loop's client count.
const analyzeClients = 2

// tuRateGuess sizes the pre-generated TU stock (TUs per second); the pool
// generates more if a faster host outruns it.
const tuRateGuess = 600

func runAnalyze(cfg config) (*outcome, error) {
	out := newOutcome()
	// Every TU is generated before set-up and outside every timed region.
	// The set-up TUs come first: one single-kernel TU per corpus kernel
	// and level, so that set-up does the same work for every seed and
	// only the names differ. The workload takes the TUs after them.
	pool := newTUPool(cfg.Seed, 0)
	for _, b := range tugen.Kernels() {
		for _, l := range []core.Level{core.Classical, core.Base, core.New} {
			pool.add(pool.gen.One(b, l))
		}
	}
	setupTUs := len(pool.tus)
	pool.grow(int(cfg.Dur.Seconds() * tuRateGuess))
	pool.next = setupTUs
	// Set-up is the program's cold start: one core.AnalyzeBatch over the
	// set-up TUs from a reset memo cache, and their encoding.
	var setupRes []*core.BatchResult
	err := out.repeatSetup(func() error {
		setupRes = core.AnalyzeBatch(pool.srcs[:setupTUs], core.Options{Workers: 1})
		_, err := core.MarshalBatch(setupRes, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The set-up TUs count as operations; their verdicts are checked
	// after the timed set-ups.
	var setupBad []string
	for i, r := range setupRes {
		bad := []string{fmt.Sprintf("%s: set-up: %v", pool.tus[i].Name, r.Err)}
		if r.Err == nil {
			bad = checkVerdicts(pool.tus[i], r.Res, false)
		}
		if len(bad) > 0 {
			out.Failed++
			setupBad = append(setupBad, bad...)
		}
	}
	out.Attempted = int64(setupTUs)
	inject := cfg.Inject == "verdict"

	if !cfg.Traced {
		sm := startSteal()
		ph := runAnalyzePhase(pool, cfg.Dur, analyzeClients, inject)
		out.Steal = sm.share()
		out.Attempted += int64(ph.n())
		out.Failed += ph.failed
		// Throughput (correct TUs only) and p99 are medians over windows.
		out.E2E["ops_per_s"] = windowed(ph.goodAt, make([]float64, len(ph.goodAt)), window, cfg.Dur, perSecond)
		out.E2E["p50_ms"] = quantile(append([]float64(nil), ph.lat...), 0.5)
		out.E2E["tail_ms"] = windowed(ph.at, ph.lat, window, cfg.Dur, quantileOf(0.99))
		out.E2E["ok_frac"] = 1 - float64(out.Failed)/float64(out.Attempted)
		out.notef("analyze: %d TUs in %.2fs (%d clients); ops_per_s and tail (p99) are medians over %v windows of about %d TUs",
			int64(ph.n()), ph.elapsed.Seconds(), analyzeClients, window, int(float64(len(ph.lat))*window.Seconds()/cfg.Dur.Seconds()))
		for i, f := range append(setupBad, ph.failures...) {
			if i == 10 {
				break
			}
			out.notef("FAIL %s", f)
		}
		return out, nil
	}

	// Traced run: an untraced closed-loop half for the figures tracing
	// would perturb, and a paired half for the stage spans and the cost
	// of tracing.
	plain := runAnalyzePhase(pool, cfg.Dur/2, analyzeClients, inject)
	paired := runPairedPhase(pool, cfg.Dur/2)
	out.Attempted += int64(plain.n()) + paired.attempted
	out.Failed += plain.failed + paired.fail
	L := out.Layers

	traced := float64(paired.n)
	perTU := func(stage string, self bool) float64 {
		a := paired.aggs[stage]
		if a == nil {
			return 0
		}
		d := a.Total
		if self {
			d = a.Self
		}
		return us(d) / traced
	}
	L["parallelize.function_self_us"] = perTU("function", true)
	L["parallelize.plan_self_us"] = perTU("plan", true)
	L["parallelize.annotate_us"] = perTU("annotate", false)
	L["phase1.self_us"] = perTU("phase1", true)
	L["phase2.self_us"] = perTU("phase2", true)
	L["depend.self_us"] = perTU("depend", true)
	if a := paired.aggs["depend"]; a != nil {
		L["depend.pairs_per_tu"] = float64(a.Counters[trace.CounterPairs]) / traced
		L["depend.proofs_per_tu"] = float64(a.Counters[trace.CounterProofs]) / traced
	}
	L["parallelize.parallel_loop_frac"] = ratio(float64(plain.chosen), float64(plain.loops))
	L["symbolic.hit_ratio"], L["symbolic.evictions"] = symbolicDelta(plain.symBefore, plain.symAfter)
	L["core.encode_us"] = us(plain.encode) / plain.n()
	L["core.alloc_kb_per_tu"] = float64(plain.allocBytes) / 1024 / plain.n()
	// Same TUs in both arms: the TU-rate ratio is the time ratio.
	L["trace.overhead_frac"] = 1 - ratio(paired.plain.Seconds(), paired.traced.Seconds())

	// cminus.Parse on its own, over the first workload TUs.
	var parse time.Duration
	const parsed = 200
	for i := setupTUs; i < setupTUs+parsed; i++ {
		src := pool.srcs[i].Src
		t0 := time.Now()
		if _, err := cminus.Parse(src); err != nil {
			return nil, fmt.Errorf("parse %s: %v", pool.tus[i].Name, err)
		}
		parse += time.Since(t0)
	}
	L["cminus.parse_us"] = us(parse) / parsed

	pairs, proofs, note := counterRepeat(pool.srcs[setupTUs : setupTUs+24])
	L["depend.pairs_exact"] = pairs
	L["depend.proofs_exact"] = proofs
	out.notef("%s", note)
	out.notef("analyze traced: %d TUs per arm, untraced %.1f TU/s, traced %.1f TU/s (1 client, memo cache reset every %d TUs)",
		paired.n, traced/paired.plain.Seconds(), traced/paired.traced.Seconds(), pairedBatch)
	for i, f := range append(append(setupBad, plain.failures...), paired.failures...) {
		if i == 10 {
			break
		}
		out.notef("FAIL %s", f)
	}
	return out, nil
}

// counterRepeat analyzes srcs serially three times — from a cold memo
// cache, from a cold cache again, and warm — and reports whether the
// dependence pair and proof counts repeat exactly across all three (1) or
// not (0). Budget steps are reported in the note only: core.Options.Budget
// documents that step charges depend on memo-cache warmth.
func counterRepeat(srcs []core.Source) (pairsExact, proofsExact float64, note string) {
	type counts struct{ pairs, proofs, steps int64 }
	pass := func(reset bool) counts {
		if reset {
			symbolic.ResetCache()
		}
		var c counts
		for _, s := range srcs {
			rec := trace.NewRecorder()
			core.AnalyzeBatch([]core.Source{s}, core.Options{Workers: 1, Trace: rec})
			for _, a := range trace.Aggregate(rec.Spans()) {
				if a.Stage == "depend" {
					c.pairs += a.Counters[trace.CounterPairs]
					c.proofs += a.Counters[trace.CounterProofs]
				}
				c.steps += a.Counters[trace.CounterSteps]
			}
		}
		return c
	}
	cold1, cold2, warm := pass(true), pass(true), pass(false)
	b := func(x bool) float64 {
		if x {
			return 1
		}
		return 0
	}
	label := func(x bool) string {
		if x {
			return "exact"
		}
		return "not exact"
	}
	pe := cold1.pairs == cold2.pairs && cold1.pairs == warm.pairs
	pr := cold1.proofs == cold2.proofs && cold1.proofs == warm.proofs
	st := cold1.steps == cold2.steps && cold1.steps == warm.steps
	note = fmt.Sprintf("counter repeat over %d TUs (cold, cold, warm): pairs %d/%d/%d %s; proofs %d/%d/%d %s; steps %d/%d/%d %s",
		len(srcs), cold1.pairs, cold2.pairs, warm.pairs, label(pe),
		cold1.proofs, cold2.proofs, warm.proofs, label(pr),
		cold1.steps, cold2.steps, warm.steps, label(st))
	return b(pe), b(pr), note
}
