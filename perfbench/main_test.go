package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// declaration is the part of BENCHMARK.json the tests check results against.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

const specPath = "../BENCHMARK.json"

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		spec:     specPath,
		out:      t.TempDir(),
		smoke:    true,
	}
}

// TestWorkloadsSmoke runs every declared workload in smoke mode, end to end
// and traced, and checks that each result line is correct and reports
// exactly the declared metrics with the declared units.
func TestWorkloadsSmoke(t *testing.T) {
	decl := readDeclaration(t)
	for _, wl := range decl.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(smokeOptions(t, wl.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					wl.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestWrongVerdictFailsRun flips one expected verdict and requires the run
// to notice: the reply for that document no longer matches the oracle.
func TestWrongVerdictFailsRun(t *testing.T) {
	o, w, in := smokeInputs(t, "large-docs")
	in.docs[0].want[0] = !in.docs[0].want[0]
	requireFailedRun(t, w, in, o)
}

// TestBatchLineIDsChecked swaps the expected IDs of two lines of one batch
// and requires the run to notice: every batch reply line is matched to its
// request line by ID, not only by its verdicts and event count.
func TestBatchLineIDsChecked(t *testing.T) {
	o, w, in := smokeInputs(t, "adapter-batch")
	ids := in.batchIDs[0]
	ids[0], ids[1] = ids[1], ids[0]
	requireFailedRun(t, w, in, o)
}

// smokeInputs generates a shrunk workload's inputs and their oracle
// verdicts.
func smokeInputs(t *testing.T, name string) (options, *workload, *inputs) {
	o := smokeOptions(t, name, false)
	w, err := lookup(specPath, o.workload)
	if err != nil {
		t.Fatal(err)
	}
	w.shrink()
	unplanned, err := w.source()
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(&w, o.seed, unplanned)
	if err != nil {
		t.Fatal(err)
	}
	return o, &w, in
}

// requireFailedRun runs the workload end to end on tampered inputs and
// requires a failed, incorrect result.
func requireFailedRun(t *testing.T, w *workload, in *inputs, o options) {
	t.Helper()
	rep, err := endToEnd(w, in, o, o.out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("run on tampered inputs: correct=%v failed=%d, want a failed run", rep.Correct, rep.Failed)
	}
}

// TestInputsFollowSeed pins that inputs are a function of the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	for _, name := range []string{"large-docs", "adapter-batch"} {
		w, err := lookup(specPath, name)
		if err != nil {
			t.Fatal(err)
		}
		w.shrink()
		gen := func(seed int64) *inputs {
			unplanned, err := w.source()
			if err != nil {
				t.Fatal(err)
			}
			in, err := generate(&w, seed, unplanned)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, b, c := gen(1), gen(1), gen(2)
		if !bytes.Equal(a.docs[1].body, b.docs[1].body) || a.ids[3] != b.ids[3] {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a.docs[1].body, c.docs[1].body) || a.ids[3] == c.ids[3] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}
