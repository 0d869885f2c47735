package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/alphabet"
	"repro/internal/experiments"
	"repro/internal/query"
	"repro/internal/query/dsl"
	"repro/internal/query/plan"
)

// connections is how many client connections every workload's closed loop
// keeps busy: one per CPU of the 2-CPU machines the benchmark is sized for.
const connections = 2

// workload is one traffic mix: its inputs, how they are offered, and the
// query set the server boots with.
type workload struct {
	name    string
	batch   bool // POST /v1/batch (NDJSON) instead of POST /v1/documents
	planned bool // plan the bundle with plan.Options{} before marshalling
	reps    int  // set-ups per run; setup_s is their median
	docs    int  // distinct generated documents
	events  int  // events per document (approximate for adapter documents)
	depth   int  // maximum nesting depth of native documents
	lines   int  // documents per batch request
	batches int  // distinct batch bodies
	ledger  int  // documents (batch workloads: batches) replayed by the ledger
	passes  int  // ledger replay passes; each station reports its median pass
	queries int  // size of the E21 query mix (native workloads)
}

// The mixes, both closed loops.  Each loads different stations:
// large-docs the tokenizer, engine and product runner behind
// POST /v1/documents, adapter-batch the XML/JSON adapters, the NNWA runner
// and the blocking batch path.
func workloads() []workload {
	return []workload{
		{name: "large-docs", planned: true, reps: 3,
			docs: 8, events: 200000, depth: 32, ledger: 2, passes: 5, queries: 16},
		{name: "adapter-batch", batch: true, reps: 15,
			docs: 256, events: 2000, lines: 16, batches: 32, ledger: 4, passes: 5},
	}
}

// shrink scales a workload down for the smoke mode the tests use.
func (w *workload) shrink() {
	w.reps = 2
	w.passes = 2
	w.events /= 10
	if w.docs > 16 {
		w.docs = 16
	}
	if w.batch {
		w.lines, w.batches, w.ledger = 4, 4, 2
	}
	if w.planned {
		// Keep the planner on the same path at a fraction of the cost: the
		// first four queries product-compile well under the state budget.
		w.queries = 4
	}
}

// e21Labels is the native documents' alphabet, the E21 query mix's.
var e21Labels = []string{"a", "b", "c"}

// e27Set is the E27 DSL query set; "within book: title before author"
// compiles to the NNWA runner.
const e27Set = "within book: title before author; contains title; no write after close; //library//book; well-formed"

// e27Alphabet lists the structural labels of the adapter corpora but not their
// text tokens, so decoding exercises both interning paths, as in E27.
var e27Alphabet = []string{"library", "book", "title", "author",
	"object", "array", "main", "open", "close", "read", "write"}

// source builds the workload's unplanned bundle from its query-set source:
// the E21 constructors for native documents, the E27 DSL set otherwise.
func (w *workload) source() (*query.Bundle, error) {
	if w.batch {
		alpha := alphabet.New(e27Alphabet...)
		exprs, err := dsl.ParseList(e27Set)
		if err != nil {
			return nil, fmt.Errorf("parse query set: %w", err)
		}
		names, qs, err := dsl.Queries(alpha, exprs)
		if err != nil {
			return nil, fmt.Errorf("compile query set: %w", err)
		}
		b := query.NewBundle(alpha)
		for i, q := range qs {
			if err := b.Add(names[i], q); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	alpha := alphabet.New(e21Labels...)
	names, dnwas := experiments.E21Queries(alpha, w.queries)
	b := query.NewBundle(alpha)
	for i, d := range dnwas {
		if err := b.Add(names[i], query.Compile(d)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// planBundle applies the planner where the workload uses it.
func (w *workload) planBundle(b *query.Bundle) (*query.Bundle, error) {
	if !w.planned {
		return b, nil
	}
	p, _, err := plan.Bundle(b, plan.Options{})
	if err != nil {
		return nil, fmt.Errorf("plan bundle: %w", err)
	}
	return p, nil
}

// specFile is the part of BENCHMARK.json the benchmark reads.
type specFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// lookup returns the named workload, checked against the declaration in
// spec.
func lookup(specPath, name string) (workload, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return workload{}, fmt.Errorf("read benchmark declaration: %w", err)
	}
	var spec specFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		return workload{}, fmt.Errorf("parse %s: %w", specPath, err)
	}
	for _, w := range workloads() {
		if w.name != name {
			continue
		}
		for _, d := range spec.Workloads {
			if d.Name == name {
				return w, nil
			}
		}
		return workload{}, fmt.Errorf("%s does not declare workload %q", specPath, name)
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
