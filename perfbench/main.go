// Command perfbench is the repository's benchmark. It builds its inputs
// from a seed, drives one workload against the public entry points of the
// analysis, serving and execution layers, checks every output against an
// independent reference, and prints one JSON result line:
//
//	perfbench -workload analyze -seed 1 -seconds 10 -trace 0
//
// Workloads: analyze (core.AnalyzeBatch + core.MarshalBatch, closed loop),
// serve (loopback HTTP to an in-process subsubd handler at a fixed offered
// rate, open loop), exec (interp.Machine.Call on the default engine) and
// native (the emitted binaries of internal/codegen).
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, taken in a separate traced run. See
// perfbench/rationale.json for why each workload and metric exists.
//
// Run it through perfbench/run.sh from the repository root, which builds
// it with every build artifact kept under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/symbolic"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd is reported by every workload with -trace 0. Their meaning per
// workload is defined in rationale.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ok_frac", "frac"},
}

// execKernels are the corpus benchmarks the exec and native workloads run,
// with the short names their per-layer metrics use.
var execKernels = []struct{ Bench, Short string }{
	{"AMGmk", "amgmk"},
	{"SDDMM", "sddmm"},
	{"UA(transf)", "ua_transf"},
	{"CHOLMOD-Supernodal", "cholmod"},
	{"Scatter-Shuffle", "scatter_shuffle"},
	{"CG", "cg"},
}

// perLayer is reported by every workload with -trace 1; a layer the
// workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"cminus.parse_us", "us"},
		{"parallelize.function_self_us", "us"},
		{"parallelize.plan_self_us", "us"},
		{"parallelize.annotate_us", "us"},
		{"phase1.self_us", "us"},
		{"phase2.self_us", "us"},
		{"depend.self_us", "us"},
		{"depend.pairs_per_tu", "count"},
		{"depend.proofs_per_tu", "count"},
		{"depend.pairs_exact", "bool"},
		{"depend.proofs_exact", "bool"},
		{"parallelize.parallel_loop_frac", "frac"},
		{"symbolic.hit_ratio", "frac"},
		{"symbolic.evictions", "count"},
		{"core.encode_us", "us"},
		{"core.alloc_kb_per_tu", "kB"},
		{"trace.overhead_frac", "frac"},
		{"serve.read.p50_ms", "ms"},
		{"serve.fresh.p50_ms", "ms"},
		{"serve.edit.p50_ms", "ms"},
		{"server.cache.hit_ratio", "frac"},
		{"server.cache.evictions", "count"},
		{"server.coalesced", "count"},
		{"server.shed", "count"},
		{"server.stage_analyze_ms", "ms"},
		{"runtime.gc_pause_ms", "ms"},
		{"incr.func_hit_ratio", "frac"},
		{"incr.plan_hit_ratio", "frac"},
		{"incr.evictions", "count"},
		{"loadgen.lag_p99_ms", "ms"},
	}
	for _, eng := range []string{"compiled", "vm"} {
		for _, k := range execKernels {
			defs = append(defs, metricDef{"interp." + eng + "." + k.Short + "_ms", "ms"})
		}
		defs = append(defs, metricDef{"interp." + eng + ".precompile_us", "us"})
	}
	defs = append(defs,
		metricDef{"interp.parallel_regions", "count"},
		metricDef{"interp.fallbacks", "count"},
		metricDef{"sched.forkjoin_us", "us"},
		metricDef{"codegen.emit_ms", "ms"},
		metricDef{"codegen.build_s", "s"},
	)
	for _, k := range execKernels {
		defs = append(defs, metricDef{"native." + k.Short + "_ms", "ms"})
	}
	return defs
}

// config is what every workload receives.
type config struct {
	Seed   int64
	Dur    time.Duration
	Traced bool
	// Inject corrupts one correctness check on purpose ("verdict",
	// "byte" or "element"), to show the check reports it.
	Inject string
	// Scratch is the checkout's .bench_build directory.
	Scratch string
}

// outcome is what a workload measured.
type outcome struct {
	Attempted, Failed int64
	// Setups holds the duration of each set-up (see repeatSetup); the
	// result reports their median.
	Setups []time.Duration
	// E2E and Layers hold metric values by name.
	E2E, Layers map[string]float64
	// Steal and SetupSteal are the host steal shares (see stealMeter)
	// over the measurement and over the set-ups.
	Steal, SetupSteal float64
	// Notes are printed before the result line.
	Notes []string
}

func newOutcome() *outcome {
	return &outcome{E2E: map[string]float64{}, Layers: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Set-up repeats: at least minSetups, and more while less than
// setupBudget has been spent, up to maxSetups, so that a cheap set-up
// still reports a median of many.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 300 * time.Millisecond
)

// repeatSetup runs setup repeatedly, each time from a cold symbolic cache
// and a collected heap, and records each duration in out.Setups. The state
// the last call leaves behind is the one the workload measures.
func (o *outcome) repeatSetup(setup func() error) error {
	sm := startSteal()
	defer func() { o.SetupSteal = sm.share() }()
	var spent time.Duration
	for n := 0; n < maxSetups && (n < minSetups || spent < setupBudget); n++ {
		symbolic.ResetCache()
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		d := time.Since(t0)
		spent += d
		o.Setups = append(o.Setups, d)
	}
	// Set-up garbage is collected before the measurement starts.
	runtime.GC()
	return nil
}

type workload struct {
	Name string
	Run  func(config) (*outcome, error)
}

var workloads = []workload{
	{"analyze", runAnalyze},
	{"serve", runServe},
	{"exec", runExec},
	{"native", runNative},
}

// stealLimit is the host steal share above which a run is flagged: its
// figures are reported as measured, but they measure a slowed host as
// much as the program.
const stealLimit = 0.10

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// host is the metadata printed with every result.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Oversubscribed is set when a workload runs more clients,
	// connections or machine workers than NumCPU.
	Oversubscribed bool `json:"oversubscribed"`
	Concurrency    int  `json:"concurrency"`
}

// concurrency is the most clients, connections or workers any workload
// uses at once.
const concurrency = 2

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built inside a git checkout)"
}

func main() {
	name := flag.String("workload", "", "workload to run: analyze, serve, exec or native")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measurement time")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	inject := flag.String("inject", "", "corrupt one check to show it fails: verdict, byte or element")
	root := flag.String("root", "..", "repository checkout root")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := config{
		Seed: *seed, Dur: time.Duration(*seconds * float64(time.Second)),
		Traced: *traced == 1, Inject: *inject,
		Scratch: filepath.Join(abs, ".bench_build"),
	}

	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Concurrency: concurrency, Oversubscribed: concurrency > runtime.NumCPU(),
	}
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)

	// Every workload starts from a cold symbolic cache and a collected heap.
	symbolic.ResetCache()
	runtime.GC()
	out, err := wl.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.Name, err)
		os.Exit(1)
	}
	for _, n := range out.Notes {
		fmt.Println(n)
	}
	if !cfg.Traced {
		fmt.Printf("steal: %.1f%% of host CPU time during the measurement, %.1f%% during set-up\n",
			100*out.Steal, 100*out.SetupSteal)
		if max(out.Steal, out.SetupSteal) > stealLimit {
			fmt.Printf("warning: host steal above %.0f%%; this run measures a slowed host\n", 100*stealLimit)
		}
	}

	res := resultJSON{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricJSON{},
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation completed\n", wl.Name)
		os.Exit(1)
	}
	if cfg.Traced {
		for _, d := range perLayer() {
			res.Metrics[d.Name] = metricJSON{out.Layers[d.Name], d.Unit}
		}
	} else {
		setups := make([]float64, len(out.Setups))
		for i, d := range out.Setups {
			setups[i] = d.Seconds()
		}
		out.E2E["setup_s"] = median(setups)
		for _, d := range endToEnd {
			v, ok := out.E2E[d.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", wl.Name, d.Name)
				os.Exit(1)
			}
			res.Metrics[d.Name] = metricJSON{v, d.Unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
