package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/query"
	"repro/internal/query/plan"
)

// plannedTestBundle builds an unplanned bundle of 6 deterministic and 3
// nondeterministic queries over {a, b, c}.
func plannedTestBundle(t *testing.T) *query.Bundle {
	t.Helper()
	alpha := alphabet.New("a", "b", "c")
	b := query.NewBundle(alpha)
	add := func(name string, q query.Query) {
		t.Helper()
		if err := b.Add(name, q); err != nil {
			t.Fatal(err)
		}
	}
	labels := []string{"a", "b", "c"}
	add("well-formed", query.Compile(query.WellFormed(alpha)))
	add("//a//b", query.Compile(query.PathQuery(alpha, "a", "b")))
	add("order a,c", query.Compile(query.LinearOrder(alpha, "a", "c")))
	for _, l := range labels {
		add("contains "+l, query.Compile(query.ContainsLabel(alpha, l)))
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 3; i++ {
		add(fmt.Sprintf("nnwa-%d", i), query.CompileN(randomNNWA(rng, alpha, 2+rng.Intn(3))))
	}
	return b
}

// TestPlannedBundleDemux is the tentpole differential at the engine layer: a
// planner-produced bundle registered via RegisterBundle — product runners
// demuxing verdicts through their accept bitmasks — must agree with the same
// queries fanned out one runner each, on random words including pending
// calls/returns and out-of-alphabet labels.
func TestPlannedBundleDemux(t *testing.T) {
	src := plannedTestBundle(t)
	planned, dec, err := plan.Bundle(src, plan.Options{ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Groups) == 0 {
		t.Fatal("planner produced no product groups; the demux path is untested")
	}

	// Round-trip through the serialized form so the engine sees exactly what
	// a served bundle would load.
	loaded, err := query.UnmarshalBundle(planned.Marshal())
	if err != nil {
		t.Fatal(err)
	}

	prod := engine.New()
	if _, err := prod.RegisterBundle(loaded); err != nil {
		t.Fatal(err)
	}
	fan := engine.New()
	if _, err := fan.RegisterBundle(src); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	labels := []string{"a", "b", "c", "zz"} // zz exercises the OOA column
	const trials = 1200
	pending := 0
	for trial := 0; trial < trials; trial++ {
		n := generator.RandomNestedWord(rng, rng.Intn(50), labels)
		if trial%3 == 0 {
			n = generator.RandomDocument(rng, 2+rng.Intn(50), 6, labels[:3])
		}
		if !n.IsWellMatched() {
			pending++
		}
		pv, err := prod.Run(engine.Word(n))
		if err != nil {
			t.Fatalf("trial %d: product engine: %v", trial, err)
		}
		fv, err := fan.Run(engine.Word(n))
		if err != nil {
			t.Fatalf("trial %d: fan-out engine: %v", trial, err)
		}
		for i, name := range prod.Names() {
			want := query.RunWord(src.Query(i).NewRunner(), src.Alphabet(), n)
			if pv.Verdicts[i] != want {
				t.Fatalf("trial %d, query %q: product demux %v, serial %v on %v",
					trial, name, pv.Verdicts[i], want, n)
			}
			if fv.Verdicts[i] != want {
				t.Fatalf("trial %d, query %q: fan-out %v, serial %v", trial, name, fv.Verdicts[i], want)
			}
		}
	}
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
}

// TestPlannedSessionAllocationFree extends the bounded-allocation contract to
// product runners: a warm session over a planned bundle must not allocate on
// the per-event path.
func TestPlannedSessionAllocationFree(t *testing.T) {
	src := plannedTestBundle(t)
	planned, _, err := plan.Bundle(src, plan.Options{ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	if _, err := eng.RegisterBundle(planned); err != nil {
		t.Fatal(err)
	}
	n := generator.RandomDocument(rand.New(rand.NewSource(8)), 5000, 12, []string{"a", "b", "c"})
	events := make([]docstream.Event, n.Len())
	for i := range events {
		events[i] = docstream.Event{Kind: n.KindAt(i), Label: n.SymbolAt(i)}.Interned(src.Alphabet())
	}
	s := eng.Acquire()
	defer eng.Release(s)
	feed := func() {
		for _, e := range events {
			s.Feed(e)
		}
		if s.Result() == nil {
			t.Fatal("nil result")
		}
	}
	feed() // warm-up
	allocs := testing.AllocsPerRun(5, feed)
	if allocs > 4 {
		t.Fatalf("warm planned session allocates %v objects per pass, want ≤ 4", allocs)
	}
}
