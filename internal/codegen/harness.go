package codegen

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/corpus"
	"repro/internal/interp"
)

// The differential harness: serialize a corpus workload for a
// generated binary, build it, run it, and compare the array end state
// bit for bit against an interpreter engine.

// RunResult is one generated-binary execution.
type RunResult struct {
	// Arrays is the end state by name, decoded back into interpreter
	// arrays for comparison.
	Arrays map[string]*interp.Array
	// Parallel and Fallback are the binary's region counters, the
	// native analogues of interp.ExecStats.
	Parallel, Fallback int64
	// Seconds is the binary-internal wall time of the call sequence
	// (excludes process start and the work-order exchange).
	Seconds float64
}

// InputFromWork encodes a freshly built workload as a binary work
// order (rtwire.go) for a generated binary. failGuards lists region
// labels whose entry verification is forced to fail ("*" forces all);
// nil leaves guards real.
func InputFromWork(w *corpus.Work, workers int, failGuards []string) ([]byte, error) {
	in := rtWork{Workers: int64(workers), FailGuards: failGuards}
	names := make([]string, 0, len(w.Arrays))
	for name := range w.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := w.Arrays[name]
		in.Arrays = append(in.Arrays, rtArray{Name: name, Float: a.Float, Dims: a.Dims, Ints: a.Ints, Flts: a.Flts})
	}
	for _, c := range w.Calls {
		call := rtCall{Fn: c.Fn}
		for i, arg := range c.Args {
			switch v := arg.(type) {
			case int:
				call.Args = append(call.Args, rtArg{Kind: rtKindInt, Bits: uint64(v)})
			case int64:
				call.Args = append(call.Args, rtArg{Kind: rtKindInt, Bits: uint64(v)})
			case float64:
				call.Args = append(call.Args, rtArg{Kind: rtKindFloat, Bits: math.Float64bits(v)})
			case *interp.Array:
				call.Args = append(call.Args, rtArg{Kind: rtKindArray, Name: v.Name})
			default:
				return nil, fmt.Errorf("call %s arg %d: unsupported type %T", c.Fn, i, arg)
			}
		}
		in.Calls = append(in.Calls, call)
	}
	return rtEncodeWork(&in), nil
}

// WritePackage writes the emitted package into dir (created if
// missing).
func (p *Package) WritePackage(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"prog.go", p.ProgGo},
		{"subsubrt.go", p.RuntimeGo},
		{"subsubwire.go", p.WireGo},
		{"go.mod", p.GoMod},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// BuildBinary compiles the package in dir and returns the binary path.
func BuildBinary(dir string, race bool) (string, error) {
	bin := filepath.Join(dir, "kernel.bin")
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build in %s: %v\n%s", dir, err, out)
	}
	return bin, nil
}

// RunBinary feeds input to a generated binary and decodes its output.
func RunBinary(bin string, input []byte) (*RunResult, error) {
	cmd := exec.Command(bin)
	cmd.Stdin = bytes.NewReader(input)
	var stdout, stderr bytes.Buffer
	// The result carries the same arrays as the work order.
	stdout.Grow(len(input))
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", filepath.Base(bin), err, stderr.String())
	}
	out, err := rtDecodeResult(stdout.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode output of %s: %v", filepath.Base(bin), err)
	}
	res := &RunResult{
		Arrays:   make(map[string]*interp.Array, len(out.Arrays)),
		Parallel: out.Parallel,
		Fallback: out.Fallback,
		Seconds:  out.Seconds,
	}
	for _, a := range out.Arrays {
		arr := &interp.Array{Name: a.Name, Dims: a.Dims, Float: a.Float, Ints: a.Ints, Flts: a.Flts}
		if arr.Len() != int64(a.elems()) {
			return nil, fmt.Errorf("array %s: %d values for dims %v", a.Name, a.elems(), a.Dims)
		}
		res.Arrays[arr.Name] = arr
	}
	return res, nil
}

// DiffArrays compares a native end state against a reference workload
// bit for bit and returns a description of the first mismatch, or "".
func DiffArrays(ref map[string]*interp.Array, got map[string]*interp.Array) string {
	names := make([]string, 0, len(ref))
	for name := range ref {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, have := ref[name], got[name]
		if have == nil {
			return fmt.Sprintf("array %s missing from native output", name)
		}
		if want.Float != have.Float {
			return fmt.Sprintf("array %s: element type mismatch", name)
		}
		if want.Float {
			if len(want.Flts) != len(have.Flts) {
				return fmt.Sprintf("array %s: length %d vs %d", name, len(want.Flts), len(have.Flts))
			}
			for i := range want.Flts {
				if math.Float64bits(want.Flts[i]) != math.Float64bits(have.Flts[i]) {
					return fmt.Sprintf("array %s[%d]: %v (%#x) vs %v (%#x)", name, i,
						want.Flts[i], math.Float64bits(want.Flts[i]),
						have.Flts[i], math.Float64bits(have.Flts[i]))
				}
			}
			continue
		}
		if len(want.Ints) != len(have.Ints) {
			return fmt.Sprintf("array %s: length %d vs %d", name, len(want.Ints), len(have.Ints))
		}
		for i := range want.Ints {
			if want.Ints[i] != have.Ints[i] {
				return fmt.Sprintf("array %s[%d]: %d vs %d", name, i, want.Ints[i], have.Ints[i])
			}
		}
	}
	if len(got) != len(ref) {
		return fmt.Sprintf("native output has %d arrays, reference has %d", len(got), len(ref))
	}
	return ""
}
