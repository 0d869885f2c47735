package query

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/bitset"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// runProductWord drives a product runner over a whole nested word, interning
// each symbol against alpha, and leaves the member verdicts in dst — the
// ProductRunner counterpart of RunWord.
func runProductWord(r ProductRunner, alpha *alphabet.Alphabet, n *nestedword.NestedWord, dst bitset.Row) {
	r.Reset()
	ooa := alpha.Size()
	for i := 0; i < n.Len(); i++ {
		sym, ok := alpha.Index(n.SymbolAt(i))
		if !ok {
			sym = ooa
		}
		switch n.KindAt(i) {
		case nestedword.Call:
			r.StepCall(sym)
		case nestedword.Return:
			r.StepReturn(sym)
		default:
			r.StepInternal(sym)
		}
	}
	r.Verdicts(dst)
}

// detProductMembers is the deterministic cluster the differentials run on:
// structurally similar but distinct queries over the shared {a,b} alphabet.
func detProductMembers() ([]Query, []*nwa.DNWA) {
	alpha := generator.AB
	sources := []*nwa.DNWA{
		WellFormed(alpha),
		PathQuery(alpha, "a", "b"),
		LinearOrder(alpha, "a", "b", "a"),
		ContainsLabel(alpha, "b"),
		nwa.Intersect(WellFormed(alpha), ContainsLabel(alpha, "a")),
	}
	members := make([]Query, len(sources))
	for i, d := range sources {
		members[i] = Compile(d)
	}
	return members, sources
}

// TestProductDNWADifferential is the ISSUE's correctness criterion for the
// deterministic product: 1200 random nested words — pending calls/returns
// and out-of-alphabet labels included — where every verdict bit of the
// product runner must equal both the member's own fanned-out runner and the
// serial source-automaton oracle, for the dense and sparse return forms.
func TestProductDNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	alpha := generator.AB
	// "zz" is not in the compiled alphabet, so a third of the event stream
	// exercises the out-of-alphabet column.
	words, pending := randomWords(rng, 1200, []string{"a", "b", "zz"})
	if pending == 0 {
		t.Fatal("no words with pending calls/returns were generated")
	}
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for _, limit := range []int{denseReturnLimit, 1} {
		denseReturnLimit = limit
		members, sources := detProductMembers()
		p, err := CompileProduct(members, 0)
		if err != nil {
			t.Fatalf("limit %d: CompileProduct: %v", limit, err)
		}
		if !p.Deterministic() {
			t.Fatalf("limit %d: product of Compiled members is not Deterministic", limit)
		}
		if p.QueryCount() != len(members) {
			t.Fatalf("limit %d: QueryCount = %d, want %d", limit, p.QueryCount(), len(members))
		}
		inner := p.inner.(*Compiled)
		if want := limit > 1; inner.Dense() != want {
			t.Fatalf("limit %d: product Dense() = %v, want %v", limit, inner.Dense(), want)
		}
		pr := p.NewProductRunner()
		verdicts := bitset.New(p.QueryCount())
		fan := make([]Runner, len(members))
		for j, m := range members {
			fan[j] = m.NewRunner()
		}
		for wi, w := range words {
			runProductWord(pr, alpha, w, verdicts)
			for j := range members {
				got := verdicts.Has(j)
				if want := RunWord(fan[j], alpha, w); got != want {
					t.Fatalf("limit %d, word %d, member %d: product %v, fan-out runner %v on %v",
						limit, wi, j, got, want, w)
				}
				if want := sources[j].Accepts(w); got != want {
					t.Fatalf("limit %d, word %d, member %d: product %v, serial DNWA %v on %v",
						limit, wi, j, got, want, w)
				}
			}
		}
	}
}

// TestProductNNWADifferential mirrors the deterministic differential for the
// jointly-stepped union: clusters of random nondeterministic automata whose
// joint runner must agree bit-for-bit with each member's own bitset runner
// and with the source NNWA oracle — 1200 words across the clusters, pending
// calls/returns and out-of-alphabet labels included, dense and sparse.
func TestProductNNWADifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	alpha := generator.AB
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for _, limit := range []int{denseReturnLimit, 1} {
		denseReturnLimit = limit
		totalPending := 0
		for cluster := 0; cluster < 4; cluster++ {
			k := 2 + cluster // cluster sizes 2..5
			sources := make([]*nwa.NNWA, k)
			members := make([]Query, k)
			for j := range sources {
				sources[j] = randomNNWA(rng, 2+rng.Intn(3))
				members[j] = CompileN(sources[j])
			}
			p, err := CompileProduct(members, 0)
			if err != nil {
				t.Fatalf("limit %d, cluster %d: CompileProduct: %v", limit, cluster, err)
			}
			if p.Deterministic() {
				t.Fatalf("limit %d, cluster %d: product of CompiledN members claims Deterministic", limit, cluster)
			}
			pr := p.NewProductRunner()
			verdicts := bitset.New(k)
			fan := make([]Runner, k)
			for j, m := range members {
				fan[j] = m.NewRunner()
			}
			words, pending := randomWords(rng, 300, []string{"a", "b", "zz"})
			totalPending += pending
			for wi, w := range words {
				runProductWord(pr, alpha, w, verdicts)
				for j := range members {
					got := verdicts.Has(j)
					if want := RunWord(fan[j], alpha, w); got != want {
						t.Fatalf("limit %d, cluster %d, word %d, member %d: joint %v, fan-out %v on %v",
							limit, cluster, wi, j, got, want, w)
					}
					if want := sources[j].Accepts(w); got != want {
						t.Fatalf("limit %d, cluster %d, word %d, member %d: joint %v, serial NNWA %v on %v",
							limit, cluster, wi, j, got, want, w)
					}
				}
			}
		}
		if totalPending == 0 {
			t.Fatal("no words with pending calls/returns were generated")
		}
	}
}

// TestCompileProductErrors pins the rejection paths: empty cluster, mixed
// compiled forms, mismatched alphabets, and — the planner's fallback signal
// — a state budget smaller than the reachable product.
func TestCompileProductErrors(t *testing.T) {
	alpha := generator.AB
	det := Compile(WellFormed(alpha))
	ndet := CompileN(PathQuery(alpha, "a", "b").ToNondeterministic())
	other := Compile(WellFormed(alphabet.New("x", "y")))

	if _, err := CompileProduct(nil, 0); err == nil {
		t.Error("CompileProduct(nil) did not fail")
	}
	if _, err := CompileProduct([]Query{det, ndet}, 0); err == nil {
		t.Error("mixed Compiled/CompiledN cluster did not fail")
	}
	if _, err := CompileProduct([]Query{ndet, det}, 0); err == nil {
		t.Error("mixed CompiledN/Compiled cluster did not fail")
	}
	if _, err := CompileProduct([]Query{det, other}, 0); err == nil {
		t.Error("mismatched alphabets did not fail")
	}
	if _, err := CompileProduct([]Query{det, det}, 1); !errors.Is(err, ErrStateBudget) {
		t.Errorf("tiny deterministic budget: err = %v, want ErrStateBudget", err)
	}
	if _, err := CompileProduct([]Query{ndet, ndet}, 1); !errors.Is(err, ErrStateBudget) {
		t.Errorf("tiny joint budget: err = %v, want ErrStateBudget", err)
	}
	if p, err := CompileProduct([]Query{det}, 0); err != nil || p.QueryCount() != 1 {
		t.Errorf("singleton cluster: p, err = %v, %v", p, err)
	}
}

// TestProductSingleMemberMatchesQuery sanity-checks the degenerate product:
// a one-member cluster's verdict bit equals the member's own verdict on a
// spread of documents.
func TestProductSingleMemberMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	alpha := generator.AB
	member := Compile(PathQuery(alpha, "a", "b"))
	p, err := CompileProduct([]Query{member}, 0)
	if err != nil {
		t.Fatalf("CompileProduct: %v", err)
	}
	pr := p.NewProductRunner()
	verdicts := bitset.New(1)
	r := member.NewRunner()
	words, _ := randomWords(rng, 200, []string{"a", "b"})
	for wi, w := range words {
		runProductWord(pr, alpha, w, verdicts)
		if got, want := verdicts.Has(0), RunWord(r, alpha, w); got != want {
			t.Fatalf("word %d: product %v, member %v on %v", wi, got, want, w)
		}
	}
}

// sameBacking reports whether two slices view the same backing array from
// the same start (two empty slices count as shared: there is nothing to copy).
func sameBacking[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestSoloProduct pins SoloProduct's zero-copy contract on both compiled
// forms, decoded zero-copy from a bundle as a served query set would be:
// the 1-member product steps the member's own tables (same backing
// arrays), owns only its accept mask, reports the member's verdict on
// every word, and foreign Query types are refused.
func TestSoloProduct(t *testing.T) {
	loaded, err := LoadBundleMapped(goldenBundle(t).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	words, _ := randomWords(rng, 300, []string{"a", "b", "x"})
	dst := bitset.New(1)
	for i := 0; i < loaded.Len(); i++ {
		q := loaded.Query(i)
		p, err := SoloProduct(q)
		if err != nil {
			t.Fatalf("%s: %v", loaded.Name(i), err)
		}
		if p.QueryCount() != 1 || p.inner != q {
			t.Fatalf("%s: product of %d over %p, want 1 over the member %p", loaded.Name(i), p.QueryCount(), p.inner, q)
		}
		switch c := q.(type) {
		case *Compiled:
			pc := p.inner.(*Compiled)
			if !sameBacking(pc.callLin, c.callLin) || !sameBacking(pc.callHier, c.callHier) ||
				!sameBacking(pc.internT, c.internT) || !sameBacking(pc.returnT, c.returnT) ||
				!sameBacking(pc.accept, c.accept) {
				t.Fatalf("%s: deterministic tables were copied", loaded.Name(i))
			}
			if p.maskW != 1 || len(p.mask) != c.num {
				t.Fatalf("%s: mask holds %d words of width %d, want one word per state (%d)",
					loaded.Name(i), len(p.mask), p.maskW, c.num)
			}
			for s, ok := range c.accept {
				if (p.mask[s] == 1) != ok {
					t.Fatalf("%s: mask word %d = %d, accept = %v", loaded.Name(i), s, p.mask[s], ok)
				}
			}
		case *CompiledN:
			pn := p.inner.(*CompiledN)
			if !sameBacking(pn.callOff, c.callOff) || !sameBacking(pn.intTo, c.intTo) ||
				!sameBacking(pn.retTo, c.retTo) || !sameBacking(pn.intMask, c.intMask) ||
				!sameBacking(pn.callMask, c.callMask) {
				t.Fatalf("%s: nondeterministic tables were copied", loaded.Name(i))
			}
			if !bitset.Row(p.mask).Equal(c.acceptRow) || sameBacking(p.mask, c.acceptRow) || p.maskW != c.w {
				t.Fatalf("%s: mask is not a private copy of the accepting-state row", loaded.Name(i))
			}
		default:
			t.Fatalf("%s: unexpected member type %T", loaded.Name(i), q)
		}
		pr, r := p.NewProductRunner(), q.NewRunner()
		for wi, w := range words {
			runProductWord(pr, loaded.Alphabet(), w, dst)
			if got, want := dst.Has(0), RunWord(r, loaded.Alphabet(), w); got != want {
				t.Fatalf("%s, word %d: 1-member product %v, member runner %v on %v", loaded.Name(i), wi, got, want, w)
			}
		}
	}
	c := loaded.Query(2).(*CompiledN)
	if _, err := SoloProduct(referenceQuery{c}); err == nil {
		t.Fatal("SoloProduct accepted a Query that is neither *Compiled nor *CompiledN")
	}
}

// TestDenseStates pins DenseStates to the dense/sparse threshold every
// compiled form uses: it is the largest n with n²·(|Σ|+1) ≤ denseReturnLimit,
// a product of exactly that many states stores its returns densely, and one
// state more makes them sparse.
func TestDenseStates(t *testing.T) {
	labels := make([]string, 64)
	for i := range labels {
		labels[i] = string(rune('A' + i))
	}
	for _, size := range []int{1, 2, 3, 7, 16, 63} {
		alpha := alphabet.New(labels[:size]...)
		n, syms := DenseStates(alpha), size+1
		if n*n*syms > denseReturnLimit || (n+1)*(n+1)*syms <= denseReturnLimit {
			t.Errorf("|Σ| = %d: DenseStates = %d is not the largest n with n²·%d ≤ %d",
				size, n, syms, denseReturnLimit)
		}
	}
	// Joint unions have exactly the summed member state count, so they hit
	// the threshold to the state.
	for _, size := range []int{3, 16} {
		alpha := alphabet.New(labels[:size]...)
		n := DenseStates(alpha)
		for _, states := range []int{n, n + 1} {
			big := nwa.NewNNWA(alpha, states-1).AddStart(0).AddAccept(0)
			small := nwa.NewNNWA(alpha, 1).AddStart(0)
			p, err := CompileProduct([]Query{CompileN(big), CompileN(small)}, 0)
			if err != nil {
				t.Fatalf("|Σ| = %d, %d states: %v", size, states, err)
			}
			if p.NumStates() != states {
				t.Fatalf("|Σ| = %d: union has %d states, want %d", size, p.NumStates(), states)
			}
			if dense := p.denseReturns(); dense != (states == n) {
				t.Errorf("|Σ| = %d, %d states (DenseStates %d): Dense() = %v", size, states, n, dense)
			}
		}
	}
}
