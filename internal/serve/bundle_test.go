package serve

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/query"
)

// bundleNNWA builds a random nondeterministic automaton over the engine
// test alphabet {a,b,c}.
func bundleNNWA(rng *rand.Rand, alpha *alphabet.Alphabet, states int) *nwa.NNWA {
	labels := alpha.Symbols()
	a := nwa.NewNNWA(alpha, states)
	a.AddStart(rng.Intn(states))
	a.AddStart(rng.Intn(states))
	a.AddAccept(rng.Intn(states))
	edges := 6 + rng.Intn(8*states)
	for i := 0; i < edges; i++ {
		sym := labels[rng.Intn(len(labels))]
		switch rng.Intn(3) {
		case 0:
			a.AddInternal(rng.Intn(states), sym, rng.Intn(states))
		case 1:
			a.AddCall(rng.Intn(states), sym, rng.Intn(states), rng.Intn(states))
		default:
			a.AddReturn(rng.Intn(states), rng.Intn(states), sym, rng.Intn(states))
		}
	}
	return a
}

// bundleTestSet builds the differential query set — deterministic and
// nondeterministic side by side — and the bundle serializing it.
func bundleTestSet(t *testing.T, rng *rand.Rand) (names []string, queries []query.Query, bundle *query.Bundle) {
	t.Helper()
	alpha := alphabet.New("a", "b", "c")
	names = []string{"well-formed", "//a//b", "order a,b,c", "nondet-1", "nondet-2"}
	queries = []query.Query{
		query.Compile(query.WellFormed(alpha)),
		query.Compile(query.PathQuery(alpha, "a", "b")),
		query.Compile(query.LinearOrder(alpha, "a", "b", "c")),
		query.CompileN(bundleNNWA(rng, alpha, 3+rng.Intn(4))),
		query.CompileN(bundleNNWA(rng, alpha, 3+rng.Intn(4))),
	}
	bundle = query.NewBundle(alpha)
	for i, q := range queries {
		if err := bundle.Add(names[i], q); err != nil {
			t.Fatal(err)
		}
	}
	return names, queries, bundle
}

// TestBundleMatchesFreshCompilation is the serialization acceptance test:
// over 1200 random documents — streaming-generator documents and
// adversarial streams with pending calls/returns and out-of-alphabet
// labels — a bundle written to disk and loaded back (through the mmap path)
// must produce verdicts identical to the freshly compiled query set, both
// through a bare engine and through a serve.Pool booted from the bundle.
func TestBundleMatchesFreshCompilation(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	names, queries, bundle := bundleTestSet(t, rng)

	fresh := engine.New()
	for i, q := range queries {
		fresh.MustRegisterQuery(names[i], q)
	}

	// Serialize to disk and load back through the zero-copy mmap path.
	path := filepath.Join(t.TempDir(), "queries.nwq")
	if err := os.WriteFile(path, bundle.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	loadedBundle, err := query.OpenBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loadedBundle.Close()

	loaded := engine.New()
	if indices, err := loaded.RegisterBundle(loadedBundle); err != nil {
		t.Fatal(err)
	} else if len(indices) != len(names) {
		t.Fatalf("RegisterBundle returned %d indices, want %d", len(indices), len(names))
	}
	for i, name := range loaded.Names() {
		if name != names[i] {
			t.Fatalf("bundle-loaded engine query %d named %q, want %q", i, name, names[i])
		}
	}

	pool, err := NewPoolFromBundle(loadedBundle, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if got := pool.Engine().Len(); got != len(names) {
		t.Fatalf("pool engine has %d queries, want %d", got, len(names))
	}

	const docs = 1200
	pending := 0
	for d := 0; d < docs; d++ {
		var events []docstream.Event
		if d%2 == 0 {
			stream := generator.NewDocumentStream(int64(d), 20+rng.Intn(200), 8, []string{"a", "b", "c"})
			for {
				e, err := stream.Next()
				if err != nil {
					break
				}
				events = append(events, e)
			}
		} else {
			events = randomEvents(rng, 10+rng.Intn(150))
		}
		depth := 0
		for _, e := range events {
			switch e.Kind {
			case nestedword.Call:
				depth++
			case nestedword.Return:
				depth--
			}
		}
		if depth != 0 {
			pending++
		}

		want, err := fresh.RunEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.RunEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		fut, err := pool.SubmitSource(context.Background(), fmt.Sprintf("doc-%d", d), engine.Events(events))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for q := range names {
			if got.Verdicts[q] != want.Verdicts[q] {
				t.Fatalf("doc %d, query %q: bundle engine %v, fresh %v",
					d, names[q], got.Verdicts[q], want.Verdicts[q])
			}
			if res.Engine.Verdicts[q] != want.Verdicts[q] {
				t.Fatalf("doc %d, query %q: bundle pool %v, fresh %v",
					d, names[q], res.Engine.Verdicts[q], want.Verdicts[q])
			}
		}
	}
	if pending == 0 {
		t.Fatal("no documents with pending calls/returns were generated")
	}
}

// TestNewPoolFromBundleErrors pins the boot error paths.
func TestNewPoolFromBundleErrors(t *testing.T) {
	if _, err := NewPoolFromBundle(nil); err == nil {
		t.Error("nil bundle accepted")
	}
	if _, err := NewPoolFromBundle(query.NewBundle(alphabet.New("a"))); err == nil {
		t.Error("empty bundle accepted")
	}
}
