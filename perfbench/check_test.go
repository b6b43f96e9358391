package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/perfbench/tugen"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].Name)
		}
	}
}

// TestVerdictCheckReportsWrongExpectation: a wrong expected verdict is a
// failure, the right one is not, and a clean closed-loop phase has none.
func TestVerdictCheckReportsWrongExpectation(t *testing.T) {
	tu := tugen.New(1).Next()
	res, err := core.Analyze(tu.Source(), *tu.CoreSource().Opt)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkVerdicts(tu, res, false); len(bad) > 0 {
		t.Errorf("true expectation: %v", bad)
	}
	if bad := checkVerdicts(tu, res, true); len(bad) != 1 {
		t.Errorf("injected wrong expectation: %d failures, want 1", len(bad))
	}
	ph := runAnalyzePhase(newTUPool(1, 16), 100*time.Millisecond, 1, false)
	if ph.failed != 0 || ph.ok == 0 {
		t.Errorf("clean phase: %d ok, %d failed: %v", ph.ok, ph.failed, ph.failures)
	}
}

// TestServeReportsCorruptByte sends real requests to an in-process daemon;
// one response byte corrupted on receipt must fail verification.
func TestServeReportsCorruptByte(t *testing.T) {
	in := newServeInputs(1, 100*time.Millisecond)
	d, bad, err := setUpDaemon(in)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	if len(bad) > 0 {
		t.Fatalf("set-up: %v", bad)
	}
	drive(d, in.reqs, false)
	for i, b := range verifyResponses(in) {
		if len(b) > 0 {
			t.Fatalf("clean request %d: %v", i, b)
		}
	}
	drive(d, in.reqs, true)
	n := 0
	for _, b := range verifyResponses(in) {
		if len(b) > 0 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("one corrupted response byte: %d failed requests, want 1", n)
	}
}

// TestExecReportsFlippedElement: the exec loop must fail a run whose end
// state has one flipped element, and pass the others.
func TestExecReportsFlippedElement(t *testing.T) {
	ks, err := newKernels(1)
	if err != nil {
		t.Fatal(err)
	}
	ks = ks[len(ks)-1:] // CG: the smallest oracle
	machines, _, err := newMachines(ks, "")
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	execLoop(ks, machines, 200*time.Millisecond, true, out)
	if out.Failed != 1 || out.Attempted < 2 {
		t.Errorf("flipped element: %d of %d runs failed, want exactly 1", out.Failed, out.Attempted)
	}
	w := cloneWork(ks[0].work)
	flipElement(w.Arrays)
	if codegen.DiffArrays(w.Arrays, ks[0].work.Arrays) == "" {
		t.Error("flipElement left the arrays bit-identical")
	}
}
