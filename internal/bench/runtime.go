package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/phase2"
	"repro/internal/version"
)

// RuntimeRow is one machine-readable measurement of the real execution
// engines over a corpus workload: wall-clock seconds for one workload
// run under (engine, workers), the min and median over the repetitions,
// plus the median speedup against the tree-walking oracle at the same
// worker count.
type RuntimeRow struct {
	Kernel        string  `json:"kernel"`
	Engine        string  `json:"engine"`
	Workers       int     `json:"workers"`
	Reps          int     `json:"reps"`
	MinSeconds    float64 `json:"min_seconds"`
	MedianSeconds float64 `json:"median_seconds"`
	SpeedupVsTree float64 `json:"speedup_vs_tree"`
	// Oversubscribed marks rows with more workers than the host can run
	// at once (min of NumCPU and GOMAXPROCS): they measure
	// oversubscription, not scaling.
	Oversubscribed bool `json:"oversubscribed"`
}

// RuntimeReport is the BENCH_runtime.json document: the perf trajectory
// of the execution substrate across PRs, with the host it ran on.
type RuntimeReport struct {
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Cores      int          `json:"cores"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Commit     string       `json:"commit"`
	Rows       []RuntimeRow `json:"rows"`
}

// runtimeKernels are the workloads the runtime experiment measures: the
// six kernels of the benchmark's exec and native workloads.
var runtimeKernels = []string{"AMGmk", "SDDMM", "UA(transf)", "CHOLMOD-Supernodal", "Scatter-Shuffle", "CG"}

// runtimeEngines are the measured tiers: the tree oracle, the bytecode
// VM (the default interpreter engine) and native code.
var runtimeEngines = []string{"tree", "vm", "native"}

// runtimeWorkers are the worker counts every engine is measured at.
var runtimeWorkers = []int{1, 2, 8}

// Runtime measures real (not simulated) execution time of the corpus
// workloads across the engine tiers — tree oracle, bytecode VM, and the
// native tier (internal/codegen output built with the Go compiler and
// timed inside the binary) — serial and parallel, prints a table, and —
// when jsonPath is non-empty — writes the rows there as machine-readable
// JSON. The workload is rebuilt from scratch for every repetition so
// repeated runs never feed a kernel its own output.
func (h *Harness) Runtime(jsonPath string) (*RuntimeReport, error) {
	scale, reps := corpus.ScaleBench, 9
	if h.Quick {
		scale, reps = corpus.ScaleQuick, 1
	}
	rep := &RuntimeReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Cores: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: version.Revision(),
	}
	parallel := min(rep.Cores, rep.GOMAXPROCS)

	h.printf("Runtime: real execution, tree oracle vs vm vs native Go (min and median of %d)\n", reps)
	h.printf("%-19s %-7s %-8s %12s %12s %10s\n", "kernel", "engine", "workers", "min s", "median s", "vs tree")
	for _, name := range runtimeKernels {
		b := corpus.ByName(name)
		bin, cleanup, err := buildNative(b)
		if err != nil {
			return nil, err
		}
		treeSecs := map[int]float64{}
		for _, engine := range runtimeEngines {
			for _, workers := range runtimeWorkers {
				var secs []float64
				var err error
				if engine == "native" {
					secs, err = measureNative(b, bin, workers, scale, reps)
				} else {
					secs, err = measureRuntime(b, engine, workers, scale, reps)
				}
				if err != nil {
					cleanup()
					return nil, err
				}
				slices.Sort(secs)
				med := median(secs)
				speedup := 1.0
				if engine == "tree" {
					treeSecs[workers] = med
				} else if med > 0 {
					speedup = treeSecs[workers] / med
				}
				row := RuntimeRow{
					Kernel: name, Engine: engine, Workers: workers, Reps: reps,
					MinSeconds: secs[0], MedianSeconds: med, SpeedupVsTree: speedup,
					Oversubscribed: workers > parallel,
				}
				rep.Rows = append(rep.Rows, row)
				note := ""
				if row.Oversubscribed {
					note = "  oversubscribed"
				}
				h.printf("%-19s %-7s %-8d %12.6f %12.6f %9.2fx%s\n", name, engine, workers, row.MinSeconds, med, speedup, note)
			}
		}
		cleanup()
	}
	h.printf("\n")

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// median of an ascending, non-empty sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// measureRuntime times one (kernel, engine, workers) cell: the machine
// is built and warmed once (plan + compile outside the timed section),
// then each repetition runs a freshly built workload. It returns the
// seconds of every repetition.
func measureRuntime(b *corpus.Benchmark, engine string, workers int, scale corpus.Scale, reps int) ([]float64, error) {
	warm := corpus.NewWork(b, scale)
	m, err := warm.NewMachine(workers)
	if err != nil {
		return nil, err
	}
	m.Interp = engine
	if err := warm.Run(m); err != nil {
		return nil, err
	}
	secs := make([]float64, reps)
	for r := range secs {
		w := corpus.NewWork(b, scale)
		t0 := time.Now()
		if err := w.Run(m); err != nil {
			return nil, err
		}
		secs[r] = time.Since(t0).Seconds()
	}
	return secs, nil
}

// buildNative emits the kernel's analyzed plan as a Go main package and
// compiles it (no race instrumentation — this is the timed
// configuration; the differential gate covers -race).
func buildNative(b *corpus.Benchmark) (string, func(), error) {
	plan := corpus.PlanFor(b, phase2.LevelNew)
	pkg, err := codegen.EmitPackage(plan, "subsubgen/bench")
	if err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp("", "subsubgen-bench-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if err := pkg.WritePackage(dir); err != nil {
		cleanup()
		return "", nil, err
	}
	bin, err := codegen.BuildBinary(dir, false)
	if err != nil {
		cleanup()
		return "", nil, err
	}
	return bin, cleanup, nil
}

// measureNative times the generated binary on freshly built workloads.
// The binary reports the call-sequence wall time itself, so process
// startup and the binary work-order exchange stay outside the
// measurement, mirroring how the interpreter cells time only w.Run. It
// returns the seconds of every repetition.
func measureNative(b *corpus.Benchmark, bin string, workers int, scale corpus.Scale, reps int) ([]float64, error) {
	secs := make([]float64, reps)
	for r := range secs {
		w := corpus.NewWork(b, scale)
		in, err := codegen.InputFromWork(w, workers, nil)
		if err != nil {
			return nil, err
		}
		res, err := codegen.RunBinary(bin, in)
		if err != nil {
			return nil, err
		}
		secs[r] = res.Seconds
	}
	return secs, nil
}
