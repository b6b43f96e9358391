package codegen

// runtimeSrc is the fixed runtime-support file emitted next to every
// generated program. It is self-contained stdlib-only Go: flat
// row-major array types matching interp.Array's layout, the main that
// reads a binary work order on stdin and writes the result on stdout
// through the wire codec (rtwire.go, emitted alongside as subsubwire.go;
// float64 values cross as bit patterns, so inputs and outputs compare
// bit-exactly across engines), the guard scans parallel regions run at
// entry, and the stats the differential harness asserts against the
// interpreter's ExecStats.
//
// The generated program file (prog.go) supplies rtSigs and rtDispatch.
const runtimeSrc = `// Code generated by subsubcc -emit; DO NOT EDIT.

package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// i64arr is a flat row-major int64 array (layout of interp.Array).
type i64arr struct {
	Dims []int64
	X    []int64
}

// f64arr is a flat row-major float64 array.
type f64arr struct {
	Dims []int64
	X    []float64
}

// rtElems is the element count of an array with the given dims.
func rtElems(dims []int64) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

func rtNewI64(dims ...int64) *i64arr {
	return &i64arr{Dims: dims, X: make([]int64, rtElems(dims))}
}

func rtNewF64(dims ...int64) *f64arr {
	return &f64arr{Dims: dims, X: make([]float64, rtElems(dims))}
}

// rtB2i converts a comparison result used in arithmetic, mirroring the
// interpreter's 0/1 booleans.
func rtB2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

var (
	rtWorkers int
	rtStats   struct{ Parallel, Fallback int64 }
	rtFails   map[string]bool
	rtI64     map[string]*i64arr
	rtF64     map[string]*f64arr
)

// rtFailGuard reports whether the workload forces the labeled region's
// entry verification to fail (the differential harness's failpoint for
// exercising the serial fallback).
func rtFailGuard(label string) bool {
	return rtFails["*"] || rtFails[label]
}

// rtGuardMono verifies a[v] <= a[v+1] (or < when strict) for v in
// [0, pairs). A section extending past the array reports failure, which
// routes the region to the serial loop rather than faulting in the
// scan.
func rtGuardMono(a *i64arr, pairs int64, strict bool) bool {
	if pairs+1 > int64(len(a.X)) {
		return false
	}
	for v := int64(0); v < pairs; v++ {
		if strict {
			if a.X[v] >= a.X[v+1] {
				return false
			}
		} else if a.X[v] > a.X[v+1] {
			return false
		}
	}
	return true
}

// rtGuardInj verifies the first n values are pairwise distinct.
func rtGuardInj(a *i64arr, n int64) bool {
	if n > int64(len(a.X)) {
		return false
	}
	seen := make(map[int64]struct{}, n)
	for v := int64(0); v < n; v++ {
		if _, dup := seen[a.X[v]]; dup {
			return false
		}
		seen[a.X[v]] = struct{}{}
	}
	return true
}

// rtGuardRangeMono verifies that the value ranges of consecutive
// outermost-dimension blocks are strictly increasing: max(block v) <
// min(block v+1) for v in [0, n-1). This is the multi-dimensional
// disjointness pattern (each block indexes its own region).
func rtGuardRangeMono(a *i64arr, n int64) bool {
	if len(a.Dims) < 2 || a.Dims[0] <= 0 || n > a.Dims[0] {
		return false
	}
	block := int64(len(a.X)) / a.Dims[0]
	if block <= 0 {
		return false
	}
	var prevMax int64
	for v := int64(0); v < n; v++ {
		base := v * block
		mn, mx := a.X[base], a.X[base]
		for i := base + 1; i < base+block; i++ {
			if a.X[i] < mn {
				mn = a.X[i]
			}
			if a.X[i] > mx {
				mx = a.X[i]
			}
		}
		if v > 0 && prevMax >= mn {
			return false
		}
		prevMax = mx
	}
	return true
}

// Argument decoders. Scalar kinds convert like the interpreter's
// call-boundary conversions: float-to-int truncates, int-to-float is
// exact.
func rtArgInt(a rtArg) int64 {
	if a.Kind == rtKindFloat {
		return int64(math.Float64frombits(a.Bits))
	}
	return int64(a.Bits)
}

func rtArgFloat(a rtArg) float64 {
	if a.Kind == rtKindFloat {
		return math.Float64frombits(a.Bits)
	}
	return float64(int64(a.Bits))
}

func rtArgI64(a rtArg) *i64arr { return rtI64[a.Name] }
func rtArgF64(a rtArg) *f64arr { return rtF64[a.Name] }

// rtValidate checks a workload call against the generated signature
// table before dispatch.
func rtValidate(c rtCall) error {
	sig, ok := rtSigs[c.Fn]
	if !ok {
		return fmt.Errorf("unknown function %q", c.Fn)
	}
	if len(c.Args) != len(sig) {
		return fmt.Errorf("%s expects %d args, got %d", c.Fn, len(sig), len(c.Args))
	}
	for i, kind := range sig {
		a := c.Args[i]
		switch kind {
		case "int", "float":
			if a.Kind == rtKindArray {
				return fmt.Errorf("%s arg %d: want scalar, got array %q", c.Fn, i, a.Name)
			}
		case "i64a":
			if a.Kind != rtKindArray || rtI64[a.Name] == nil {
				return fmt.Errorf("%s arg %d: want int array, got kind %d %q", c.Fn, i, a.Kind, a.Name)
			}
		case "f64a":
			if a.Kind != rtKindArray || rtF64[a.Name] == nil {
				return fmt.Errorf("%s arg %d: want float array, got kind %d %q", c.Fn, i, a.Kind, a.Name)
			}
		}
	}
	return nil
}

func rtMain() error {
	msg, err := io.ReadAll(os.Stdin)
	if err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	in, err := rtDecodeWork(msg)
	if err != nil {
		return fmt.Errorf("decode input: %w", err)
	}
	rtWorkers = 1
	if in.Workers > 1 {
		rtWorkers = int(in.Workers)
	}
	rtFails = map[string]bool{}
	for _, f := range in.FailGuards {
		rtFails[f] = true
	}
	rtI64 = map[string]*i64arr{}
	rtF64 = map[string]*f64arr{}
	for _, a := range in.Arrays {
		if rtElems(a.Dims) != int64(a.elems()) {
			return fmt.Errorf("array %s: %d values for dims %v", a.Name, a.elems(), a.Dims)
		}
		if a.Float {
			rtF64[a.Name] = &f64arr{Dims: a.Dims, X: a.Flts}
		} else {
			rtI64[a.Name] = &i64arr{Dims: a.Dims, X: a.Ints}
		}
	}
	for _, c := range in.Calls {
		if err := rtValidate(c); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, c := range in.Calls {
		if !rtDispatch(c.Fn, c.Args) {
			return fmt.Errorf("no dispatch for %q", c.Fn)
		}
	}
	out := rtResult{
		Parallel: rtStats.Parallel,
		Fallback: rtStats.Fallback,
		Seconds:  time.Since(start).Seconds(),
	}
	names := make([]string, 0, len(rtI64)+len(rtF64))
	for name := range rtI64 {
		names = append(names, name)
	}
	for name := range rtF64 {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		if arr, ok := rtI64[name]; ok {
			out.Arrays = append(out.Arrays, rtArray{Name: name, Dims: arr.Dims, Ints: arr.X})
			continue
		}
		arr := rtF64[name]
		out.Arrays = append(out.Arrays, rtArray{Name: name, Float: true, Dims: arr.Dims, Flts: arr.X})
	}
	_, err = os.Stdout.Write(rtEncodeResult(&out))
	return err
}

// sortStrings is an insertion sort; the handful of workload arrays does
// not justify importing sort.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func main() {
	if err := rtMain(); err != nil {
		fmt.Fprintln(os.Stderr, "subsubgen:", err)
		os.Exit(1)
	}
}
`
