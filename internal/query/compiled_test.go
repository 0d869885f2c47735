package query

import (
	"math/rand"
	"testing"

	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// randomWords yields a mix of arbitrary nested words (with pending calls and
// returns) and well-matched documents, and reports how many were pending.
func randomWords(rng *rand.Rand, trials int, labels []string) ([]*nestedword.NestedWord, int) {
	words := make([]*nestedword.NestedWord, trials)
	pending := 0
	for i := range words {
		if i%3 == 0 {
			words[i] = generator.RandomDocument(rng, 2+rng.Intn(50), 6, labels)
		} else {
			words[i] = generator.RandomNestedWord(rng, rng.Intn(50), labels)
		}
		if !words[i].IsWellMatched() {
			pending++
		}
	}
	return words, pending
}

func randomNNWA(rng *rand.Rand, states int) *nwa.NNWA {
	a := nwa.NewNNWA(generator.AB, states)
	a.AddStart(rng.Intn(states))
	a.AddAccept(rng.Intn(states))
	edges := 4 + rng.Intn(6*states)
	for i := 0; i < edges; i++ {
		sym := []string{"a", "b"}[rng.Intn(2)]
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

// TestCompiledDNWADifferential checks that the compiled deterministic runner
// agrees with the source DNWA on random words, including words with pending
// calls and returns, for both the dense and the sparse return form.
func TestCompiledDNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	alpha := generator.AB
	queries := []*nwa.DNWA{
		WellFormed(alpha),
		PathQuery(alpha, "a", "b"),
		LinearOrder(alpha, "a", "b", "a"),
		nwa.Intersect(WellFormed(alpha), ContainsLabel(alpha, "b")),
	}
	words, pending := randomWords(rng, 400, []string{"a", "b"})
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for _, limit := range []int{denseReturnLimit, 1} {
		denseReturnLimit = limit
		for qi, d := range queries {
			c := Compile(d)
			if want := limit > 1; c.Dense() != want {
				t.Fatalf("limit %d: Dense() = %v, want %v", limit, c.Dense(), want)
			}
			r := c.NewRunner()
			for wi, w := range words {
				if got, want := RunWord(r, alpha, w), d.Accepts(w); got != want {
					t.Fatalf("query %d (dense=%v), word %d: compiled %v, DNWA %v on %v",
						qi, c.Dense(), wi, got, want, w)
				}
			}
		}
	}
}

// TestCompiledNNWADifferential is the ISSUE's differential criterion: 1200
// random nested words — including words with pending calls and returns — fed
// to the bitset state-set runner, the []bool matrix reference runner, and
// Determinize+DNWA, with identical verdicts required (and cross-checked
// against NNWA.Accepts).
func TestCompiledNNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	labels := []string{"a", "b"}
	const automata = 8
	const wordsPer = 150 // 8 × 150 = 1200 words total
	totalPending := 0
	for ai := 0; ai < automata; ai++ {
		a := randomNNWA(rng, 2+rng.Intn(3))
		c := CompileN(a)
		det := Compile(a.Determinize())
		runner := c.NewRunner()
		matrix := c.NewReferenceRunner()
		detRunner := det.NewRunner()
		words, pending := randomWords(rng, wordsPer, labels)
		totalPending += pending
		for wi, w := range words {
			got := RunWord(runner, generator.AB, w)
			want := RunWord(detRunner, generator.AB, w)
			if got != want {
				t.Fatalf("automaton %d, word %d: bitset runner %v, Determinize+DNWA %v on %v",
					ai, wi, got, want, w)
			}
			if ref := RunWord(matrix, generator.AB, w); got != ref {
				t.Fatalf("automaton %d, word %d: bitset runner %v, matrix runner %v on %v",
					ai, wi, got, ref, w)
			}
			if ref := a.Accepts(w); got != ref {
				t.Fatalf("automaton %d, word %d: bitset runner %v, NNWA.Accepts %v on %v",
					ai, wi, got, ref, w)
			}
		}
	}
	if totalPending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
}

// TestBitsetRunnerEdgeWidths pins the bitset runner against the matrix
// reference on automata whose state counts straddle the 64-bit word
// boundaries of the packed rows: 1, 63, 64, 65, and 128 states.
func TestBitsetRunnerEdgeWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	labels := []string{"a", "b"}
	for _, states := range []int{1, 63, 64, 65, 128} {
		a := randomNNWA(rng, states)
		// Extra transitions so the larger automata keep non-trivial sets.
		for i := 0; i < 4*states; i++ {
			sym := []string{"a", "b"}[rng.Intn(2)]
			a.AddReturn(rng.Intn(states), rng.Intn(states), sym, rng.Intn(states))
			a.AddInternal(rng.Intn(states), sym, rng.Intn(states))
		}
		c := CompileN(a)
		bitsetRunner := c.NewRunner()
		matrix := c.NewReferenceRunner()
		words, _ := randomWords(rng, 80, labels)
		for wi, w := range words {
			got := RunWord(bitsetRunner, generator.AB, w)
			want := RunWord(matrix, generator.AB, w)
			if got != want {
				t.Fatalf("states %d, word %d: bitset %v, matrix %v on %v", states, wi, got, want, w)
			}
		}
	}
}

// TestCompiledNNWASparseMatchesDense forces the sparse return form on the
// nondeterministic side and checks it against the dense form.
func TestCompiledNNWASparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	labels := []string{"a", "b"}
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for ai := 0; ai < 5; ai++ {
		a := randomNNWA(rng, 3)
		dense := CompileN(a)
		denseReturnLimit = 1
		sparse := CompileN(a)
		denseReturnLimit = 1 << 22
		if dense.Dense() == sparse.Dense() {
			t.Fatalf("expected one dense and one sparse compilation, got %v and %v",
				dense.Dense(), sparse.Dense())
		}
		words, _ := randomWords(rng, 100, labels)
		for wi, w := range words {
			if d, s := dense.Accepts(w), sparse.Accepts(w); d != s {
				t.Fatalf("automaton %d, word %d: dense %v, sparse %v", ai, wi, d, s)
			}
		}
	}
}

// TestRunnerOutOfAlphabet checks that the dedicated out-of-alphabet symbol
// ID behaves exactly like an unknown label on the source automaton: the
// deterministic runner drops to the dead state, the nondeterministic one to
// the empty set.
func TestRunnerOutOfAlphabet(t *testing.T) {
	alpha := generator.AB
	d := WellFormed(alpha)
	c := Compile(d)
	if c.OutOfAlphabet() != alpha.Size() {
		t.Fatalf("OutOfAlphabet() = %d, want %d", c.OutOfAlphabet(), alpha.Size())
	}
	if c.SymID("zzz") != c.OutOfAlphabet() {
		t.Fatalf("SymID of an unknown label should be the out-of-alphabet ID")
	}
	r := c.NewRunner()
	r.Reset()
	r.StepInternal(c.OutOfAlphabet())
	if r.Accepting() {
		t.Fatal("deterministic runner should be dead after an out-of-alphabet event")
	}
	// Stray IDs outside the compiled range clamp onto the same column.
	r.Reset()
	r.StepInternal(-7)
	if r.Accepting() {
		t.Fatal("negative symbol IDs should clamp to out-of-alphabet")
	}

	n := CompileN(WellFormed(alpha).ToNondeterministic())
	rn := n.NewRunner()
	rn.StepCall(n.OutOfAlphabet())
	rn.StepReturn(0)
	if rn.Accepting() {
		t.Fatal("nondeterministic runner should be empty after an out-of-alphabet call")
	}
}

// TestCompiledRunnerReset checks that runners are reusable across documents.
func TestCompiledRunnerReset(t *testing.T) {
	alpha := generator.AB
	c := Compile(PathQuery(alpha, "a", "b"))
	r := c.NewRunner()
	inside := nestedword.MustParse("<a <b b> a>")
	outside := nestedword.MustParse("<b <a a> b>")
	for i := 0; i < 3; i++ {
		if !RunWord(r, alpha, inside) {
			t.Fatalf("pass %d: //a//b should accept %v", i, inside)
		}
		if RunWord(r, alpha, outside) {
			t.Fatalf("pass %d: //a//b should reject %v", i, outside)
		}
	}
}
