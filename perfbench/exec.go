package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/sched"
)

// machineWorkers is the parallel-loop worker count of every machine and
// emitted binary.
const machineWorkers = 2

// newKernelWork builds seeded inputs for corpus benchmark b, shaped as
// corpus.NewWork shapes them at ScaleBench (same sizes, same structure,
// values drawn from rng).
func newKernelWork(b *corpus.Benchmark, rng *rand.Rand) *corpus.Work {
	w := &corpus.Work{Bench: b, Arrays: map[string]*interp.Array{}}
	ints := func(name string, dims ...int64) *interp.Array {
		a := interp.NewIntArray(name, dims...)
		w.Arrays[name] = a
		return a
	}
	flts := func(name string, dims ...int64) *interp.Array {
		a := interp.NewFloatArray(name, dims...)
		w.Arrays[name] = a
		return a
	}
	randFlts := func(name string, dims ...int64) *interp.Array {
		a := flts(name, dims...)
		for i := range a.Flts {
			a.Flts[i] = rng.Float64()*2 - 1
		}
		return a
	}
	switch b.Name {
	case "AMGmk":
		rows := 20000
		ai := ints("A_i", int64(rows+1))
		nnz, nonzeroRows := 0, 0
		for i := 0; i < rows; i++ {
			ai.Ints[i] = int64(nnz)
			rl := rng.Intn(6) // some rows empty
			if rl > 0 {
				nonzeroRows++
			}
			nnz += rl
		}
		ai.Ints[rows] = int64(nnz)
		rownnz := ints("A_rownnz", int64(rows))
		count := ints("out_count", 1)
		aj := ints("A_j", int64(max(nnz, 1)))
		for i := range aj.Ints {
			aj.Ints[i] = int64(rng.Intn(rows))
		}
		adata := randFlts("A_data", int64(max(nnz, 1)))
		x := randFlts("x_data", int64(rows))
		y := randFlts("y_data", int64(rows))
		w.Calls = []corpus.Call{
			{Fn: "amg_fill", Args: []interp.Arg{rows, ai, rownnz, count}},
			{Fn: "amg_matvec", Args: []interp.Arg{nonzeroRows, rows, rownnz, ai, aj, adata, x, y}},
		}
	case "CHOLMOD-Supernodal":
		nsuper, bs := 2000, 8
		lpx := ints("Lpx", int64(nsuper+1))
		lx := randFlts("Lx", int64(nsuper*bs))
		diag := flts("diag", int64(nsuper))
		for i := range diag.Flts {
			diag.Flts[i] = 1 + rng.Float64() // keep divisions well-conditioned
		}
		w.Calls = []corpus.Call{
			{Fn: "chol_fill", Args: []interp.Arg{nsuper, bs, lpx}},
			{Fn: "chol_scale", Args: []interp.Arg{nsuper, lpx, lx, diag}},
		}
	case "SDDMM":
		nCols, k, nRows := 500, 32, 600
		var colVals []int64
		for c := 0; c < nCols; c++ {
			for r := 1 + rng.Intn(3); r > 0; r-- {
				colVals = append(colVals, int64(c))
			}
		}
		nonzeros := len(colVals)
		cv := ints("col_val", int64(nonzeros))
		copy(cv.Ints, colVals)
		cp := ints("col_ptr", int64(nCols+1))
		for i := range cp.Ints {
			cp.Ints[i] = int64(nonzeros)
		}
		holder := ints("out_holder", 1)
		ri := ints("row_ind", int64(nonzeros))
		for i := range ri.Ints {
			ri.Ints[i] = int64(rng.Intn(nRows))
		}
		wMat := randFlts("W", int64(nCols*k))
		h := randFlts("H", int64(nRows*k))
		nv := randFlts("nnz_val", int64(nonzeros))
		p := flts("p", int64(nonzeros))
		w.Calls = []corpus.Call{
			{Fn: "sddmm_fill", Args: []interp.Arg{nonzeros, cv, cp, holder}},
			{Fn: "sddmm", Args: []interp.Arg{nCols, k, nCols, cp, ri, wMat, h, nv, p}},
		}
	case "UA(transf)":
		lelt := 300
		idel := ints("idel", int64(lelt), 6, 5, 5)
		tx := randFlts("tx", int64(125*lelt))
		tmort := randFlts("tmort", int64(150*lelt))
		w.Calls = []corpus.Call{
			{Fn: "ua_fill", Args: []interp.Arg{lelt, idel}},
			{Fn: "ua_transf", Args: []interp.Arg{lelt, idel, tx, tmort}},
		}
	case "CG":
		n := 8000
		rowstr := ints("rowstr", int64(n+1))
		nnz := 0
		for i := 0; i < n; i++ {
			rowstr.Ints[i] = int64(nnz)
			nnz += 1 + rng.Intn(5)
		}
		rowstr.Ints[n] = int64(nnz)
		colidx := ints("colidx", int64(nnz))
		for i := range colidx.Ints {
			colidx.Ints[i] = int64(rng.Intn(n))
		}
		a := randFlts("a", int64(nnz))
		p := randFlts("p", int64(n))
		wv := flts("w", int64(n))
		w.Calls = []corpus.Call{
			{Fn: "cg_matvec", Args: []interp.Arg{n, rowstr, colidx, a, p, wv}},
		}
	case "Scatter-Shuffle":
		n := 20000
		p := ints("p", int64(n))
		a := randFlts("a", int64(n))
		bArr := randFlts("b", int64(n))
		w.Calls = []corpus.Call{
			{Fn: "scatter_fill", Args: []interp.Arg{n, p}},
			{Fn: "scatter", Args: []interp.Arg{n, p, a, bArr}},
		}
	default:
		panic(fmt.Sprintf("perfbench: no inputs for benchmark %q", b.Name))
	}
	return w
}

// cloneWork deep-copies a workload's arrays so a run starts from the
// generated inputs.
func cloneWork(w *corpus.Work) *corpus.Work {
	c := &corpus.Work{Bench: w.Bench, Arrays: map[string]*interp.Array{}}
	for name, a := range w.Arrays {
		c.Arrays[name] = a.Clone()
	}
	for _, call := range w.Calls {
		args := make([]interp.Arg, len(call.Args))
		for i, a := range call.Args {
			if arr, ok := a.(*interp.Array); ok {
				a = c.Arrays[arr.Name]
			}
			args[i] = a
		}
		c.Calls = append(c.Calls, corpus.Call{Fn: call.Fn, Args: args})
	}
	return c
}

// flipElement corrupts one element of the end state (the -inject element
// self-test).
func flipElement(arrays map[string]*interp.Array) {
	names := make([]string, 0, len(arrays))
	for n := range arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	a := arrays[names[0]]
	if a.Float {
		a.Flts[0] = math.Float64frombits(math.Float64bits(a.Flts[0]) ^ 1)
	} else {
		a.Ints[0] ^= 1
	}
}

// kernel is one exec/native kernel with its generated inputs and the
// tree-engine oracle end state.
type kernel struct {
	short  string
	bench  *corpus.Benchmark
	work   *corpus.Work
	oracle map[string]*interp.Array
	res    *core.Result
}

// newKernels generates every kernel's inputs from the seed, analyzes it
// at the paper's full level, and computes the oracle: a serial run of
// the tree engine on a copy of the inputs.
func newKernels(seed int64) ([]*kernel, error) {
	rng := rand.New(rand.NewSource(seed))
	var ks []*kernel
	for _, ek := range execKernels {
		b := corpus.ByName(ek.Bench)
		k := &kernel{short: ek.Short, bench: b, work: newKernelWork(b, rng)}
		var err error
		if k.res, err = analyzeKernel(b); err != nil {
			return nil, err
		}
		m, err := k.res.NewMachine(1)
		if err != nil {
			return nil, err
		}
		m.Interp = "tree"
		w := cloneWork(k.work)
		if err := w.Run(m); err != nil {
			return nil, fmt.Errorf("%s oracle: %w", b.Name, err)
		}
		k.oracle = w.Arrays
		ks = append(ks, k)
	}
	return ks, nil
}

func analyzeKernel(b *corpus.Benchmark) (*core.Result, error) {
	res, err := core.Analyze(b.Source, core.Options{Level: core.New, AssumePositive: b.AssumePositive})
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", b.Name, err)
	}
	return res, nil
}

// newMachines is the exec set-up: analyze each kernel from its source,
// build a machine on the given engine and precompile it. It returns the
// precompile time summed over the kernels.
func newMachines(ks []*kernel, engine string) ([]*interp.Machine, time.Duration, error) {
	var machines []*interp.Machine
	var pre time.Duration
	for _, k := range ks {
		res, err := analyzeKernel(k.bench)
		if err != nil {
			return nil, 0, err
		}
		m, err := res.NewMachine(machineWorkers)
		if err != nil {
			return nil, 0, err
		}
		m.Interp = engine
		t0 := time.Now()
		if err := m.Precompile(); err != nil {
			return nil, 0, err
		}
		pre += time.Since(t0)
		machines = append(machines, m)
	}
	return machines, pre, nil
}

// execLoop runs every kernel round-robin on its machine until dur has
// passed, timing each Machine.Call sequence and checking each end state
// against the oracle outside the timed call. It returns per-kernel run
// times in ms and their start offsets.
func execLoop(ks []*kernel, machines []*interp.Machine, dur time.Duration, inject bool, out *outcome) ([][]float64, [][]time.Duration) {
	times := make([][]float64, len(ks))
	at := make([][]time.Duration, len(ks))
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		// Fresh copies each round spread the runs over many array
		// placements; the forced collection keeps the next round's
		// allocation from triggering one inside a timed call.
		works := make([]*corpus.Work, len(ks))
		for i, k := range ks {
			works[i] = cloneWork(k.work)
		}
		runtime.GC()
		for i, k := range ks {
			w := works[i]
			t0 := time.Now()
			err := w.Run(machines[i])
			d := time.Since(t0)
			out.Attempted++
			if err == nil && inject {
				inject = false
				flipElement(w.Arrays)
			}
			if err != nil {
				out.Failed++
				out.notef("FAIL %s: %v", k.bench.Name, err)
				continue
			}
			if diff := codegen.DiffArrays(k.oracle, w.Arrays); diff != "" {
				out.Failed++
				out.notef("FAIL %s: end state differs from the tree oracle: %s", k.bench.Name, diff)
				continue
			}
			times[i] = append(times[i], ms(d))
			at[i] = append(at[i], t0.Sub(start))
		}
	}
	return times, at
}

// summarize sets the exec-style end-to-end metrics from per-kernel run
// times of correct runs and their start offsets within span. p50 is the
// geomean over kernels of the per-kernel median. tail scales it by the
// tailQ-quantile of every run's time relative to its kernel's median,
// pooled over kernels so the quantile rests on all runs rather than on one
// kernel's few, and taken as the median over windows of width tailWin.
// ops_per_s counts correct runs of every kernel per second, median over
// windows of width window.
func summarize(out *outcome, times [][]float64, at [][]time.Duration, span, tailWin time.Duration, tailQ float64) {
	var meds, rel []float64
	var relAt []time.Duration
	for k, ts := range times {
		m := quantile(append([]float64(nil), ts...), 0.5)
		meds = append(meds, m)
		for i, t := range ts {
			rel = append(rel, t/m)
			relAt = append(relAt, at[k][i])
		}
	}
	out.E2E["p50_ms"] = geomean(meds)
	out.E2E["tail_ms"] = geomean(meds) * windowed(relAt, rel, tailWin, span, quantileOf(tailQ))
	out.E2E["ops_per_s"] = windowed(relAt, rel, window, span, perSecond)
	out.E2E["ok_frac"] = 1 - float64(out.Failed)/float64(out.Attempted)
}

// execTail is the exec tail quantile. A window holds about 700 runs, so
// p99 would rest on fewer than ten; p90 is taken because the higher
// quantiles of a 2-worker fork-join on a shared host follow the host's
// CPU steal more than the program.
const execTail = 0.9

func runExec(cfg config) (*outcome, error) {
	out := newOutcome()
	ks, err := newKernels(cfg.Seed)
	if err != nil {
		return nil, err
	}
	var machines []*interp.Machine
	err = out.repeatSetup(func() error {
		var err error
		machines, _, err = newMachines(ks, "")
		return err
	})
	if err != nil {
		return nil, err
	}
	inject := cfg.Inject == "element"

	if !cfg.Traced {
		sm := startSteal()
		times, at := execLoop(ks, machines, cfg.Dur, inject, out)
		out.Steal = sm.share()
		summarize(out, times, at, cfg.Dur, window, execTail)
		for i, k := range ks {
			out.notef("exec %-16s median %.3f ms over %d runs", k.short, quantile(times[i], 0.5), len(times[i]))
		}
		out.notef("exec: %d kernel runs on the default engine, %d workers; tail is the pooled p90, median over %v windows",
			out.Attempted, machineWorkers, window)
		return out, nil
	}

	// Traced run: each engine in turn, precompile times, region counters
	// of one default-engine round, and the fork-join cost.
	L := out.Layers
	for _, eng := range []string{"compiled", "vm"} {
		var pres []float64
		var machines []*interp.Machine
		for r := 0; r < minSetups; r++ {
			var pre time.Duration
			machines, pre, err = newMachines(ks, eng)
			if err != nil {
				return nil, err
			}
			pres = append(pres, us(pre))
		}
		L["interp."+eng+".precompile_us"] = median(pres)
		times, _ := execLoop(ks, machines, cfg.Dur/2, inject, out)
		inject = false
		for i, k := range ks {
			L["interp."+eng+"."+k.short+"_ms"] = quantile(times[i], 0.5)
		}
	}
	fresh, _, err := newMachines(ks, "")
	if err != nil {
		return nil, err
	}
	for i, k := range ks {
		if err := cloneWork(k.work).Run(fresh[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", k.bench.Name, err)
		}
		L["interp.parallel_regions"] += float64(fresh[i].Stats.ParallelRegions)
		L["interp.fallbacks"] += float64(fresh[i].Stats.RuntimeFallback)
	}
	L["sched.forkjoin_us"] = us(sched.MeasureForkJoin(machineWorkers, 2000))
	return out, nil
}

// nativeTail is the native tail quantile: binaries run as processes that
// exchange their arrays as JSON, so a measurement holds about 250 runs,
// more than ten beyond p90, taken over the whole run.
const nativeTail = 0.9

// buildNative is the native set-up: analyze each kernel, emit its Go
// package, and build it in a clean directory under dir.
func buildNative(ks []*kernel, dir string) (bins []string, emit, build time.Duration, err error) {
	for _, k := range ks {
		res, err := analyzeKernel(k.bench)
		if err != nil {
			return nil, 0, 0, err
		}
		t0 := time.Now()
		pkg, err := codegen.EmitPackage(res.Plan, "perfbench/"+k.short)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("emit %s: %w", k.bench.Name, err)
		}
		emit += time.Since(t0)
		kdir := filepath.Join(dir, k.short)
		if err := os.RemoveAll(kdir); err != nil {
			return nil, 0, 0, err
		}
		if err := pkg.WritePackage(kdir); err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		bin, err := codegen.BuildBinary(kdir, false)
		if err != nil {
			return nil, 0, 0, err
		}
		build += time.Since(t1)
		bins = append(bins, bin)
	}
	return bins, emit, build, nil
}

func runNative(cfg config) (*outcome, error) {
	out := newOutcome()
	ks, err := newKernels(cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Inputs for the binaries, and the region counters the default engine
	// reports on the same inputs at the same worker count.
	inputs := make([][]byte, len(ks))
	wantPar := make([]int64, len(ks))
	wantFb := make([]int64, len(ks))
	for i, k := range ks {
		if inputs[i], err = codegen.InputFromWork(k.work, machineWorkers, nil); err != nil {
			return nil, err
		}
		m, err := k.res.NewMachine(machineWorkers)
		if err != nil {
			return nil, err
		}
		if err := cloneWork(k.work).Run(m); err != nil {
			return nil, fmt.Errorf("%s: %w", k.bench.Name, err)
		}
		wantPar[i], wantFb[i] = int64(m.Stats.ParallelRegions), int64(m.Stats.RuntimeFallback)
	}

	dir := filepath.Join(cfg.Scratch, "native")
	var bins []string
	var emits, builds []float64
	err = out.repeatSetup(func() error {
		var emit, build time.Duration
		var err error
		bins, emit, build, err = buildNative(ks, dir)
		emits = append(emits, ms(emit))
		builds = append(builds, build.Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}

	inject := cfg.Inject == "element"
	times := make([][]float64, len(ks))
	at := make([][]time.Duration, len(ks))
	sm := startSteal()
	start := time.Now()
	deadline := start.Add(cfg.Dur)
	for time.Now().Before(deadline) {
		for i, k := range ks {
			t0 := time.Now()
			res, err := codegen.RunBinary(bins[i], inputs[i])
			out.Attempted++
			if err != nil {
				out.Failed++
				out.notef("FAIL %s: %v", k.bench.Name, err)
				continue
			}
			if inject {
				inject = false
				flipElement(res.Arrays)
			}
			if diff := codegen.DiffArrays(k.oracle, res.Arrays); diff != "" {
				out.Failed++
				out.notef("FAIL %s: native end state differs from the tree oracle: %s", k.bench.Name, diff)
				continue
			}
			if res.Parallel != wantPar[i] || res.Fallback != wantFb[i] {
				out.Failed++
				out.notef("FAIL %s: native regions %d/%d, interp.Stats %d/%d",
					k.bench.Name, res.Parallel, res.Fallback, wantPar[i], wantFb[i])
				continue
			}
			times[i] = append(times[i], 1000*res.Seconds)
			at[i] = append(at[i], t0.Sub(start))
		}
	}
	out.Steal = sm.share()
	// Binaries time themselves, so p50 and tail are the binary-internal
	// times; ops_per_s counts whole process runs (start, JSON exchange,
	// exit).
	summarize(out, times, at, cfg.Dur, cfg.Dur, nativeTail)
	out.notef("native: %d binary runs, %d workers; tail is the pooled p90 over the run",
		out.Attempted, machineWorkers)

	L := out.Layers
	for i, k := range ks {
		L["native."+k.short+"_ms"] = quantile(times[i], 0.5)
	}
	L["codegen.emit_ms"] = median(emits)
	L["codegen.build_s"] = median(builds)
	return out, nil
}
