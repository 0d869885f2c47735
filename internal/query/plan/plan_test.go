package plan

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/bitset"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/query"
)

// buildBundle compiles a mixed bundle: n deterministic ContainsLabel-style
// queries followed by m nondeterministic ones, all over the {a,b} alphabet.
func buildBundle(t *testing.T, det, ndet int) *query.Bundle {
	t.Helper()
	alpha := generator.AB
	b := query.NewBundle(alpha)
	labels := []string{"a", "b"}
	for i := 0; i < det; i++ {
		q := query.Compile(query.LinearOrder(alpha, labels[i%2], labels[(i+1)%2]))
		if err := b.Add(detName(i), q); err != nil {
			t.Fatalf("Add det %d: %v", i, err)
		}
	}
	for i := 0; i < ndet; i++ {
		q := query.CompileN(query.PathQuery(alpha, labels[i%2], labels[(i+1)%2]).ToNondeterministic())
		if err := b.Add(ndetName(i), q); err != nil {
			t.Fatalf("Add ndet %d: %v", i, err)
		}
	}
	return b
}

func detName(i int) string  { return "det-" + string(rune('a'+i)) }
func ndetName(i int) string { return "ndet-" + string(rune('a'+i)) }

// verdictsAgree runs every query of the planned bundle — products and solo
// alike — against the unplanned per-query oracle on random words.
func verdictsAgree(t *testing.T, src, planned *query.Bundle) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	alpha := src.Alphabet()
	labels := alpha.Symbols()
	words := make([]*nestedword.NestedWord, 150)
	for i := range words {
		if i%3 == 0 {
			words[i] = generator.RandomNestedWord(rng, rng.Intn(40), append(labels, "zz"))
		} else {
			words[i] = generator.RandomDocument(rng, 2+rng.Intn(40), 5, labels)
		}
	}
	got := make([]bool, planned.Len())
	for wi, w := range words {
		for i := range got {
			got[i] = false
		}
		for i := 0; i < planned.Len(); i++ {
			if q := planned.Query(i); q != nil {
				got[i] = query.RunWord(q.NewRunner(), alpha, w)
			}
		}
		for _, g := range planned.Groups() {
			pr := g.Product.NewProductRunner()
			row := bitset.New(g.Product.QueryCount())
			runProductWord(pr, alpha, w, row)
			for j, idx := range g.Indices {
				got[idx] = row.Has(j)
			}
		}
		for i := 0; i < src.Len(); i++ {
			want := query.RunWord(src.Query(i).NewRunner(), alpha, w)
			if got[i] != want {
				t.Fatalf("word %d, query %q: planned %v, fan-out %v on %v",
					wi, src.Name(i), got[i], want, w)
			}
		}
	}
}

func runProductWord(r query.ProductRunner, alpha interface {
	Index(string) (int, bool)
	Size() int
}, n *nestedword.NestedWord, dst bitset.Row) {
	r.Reset()
	for i := 0; i < n.Len(); i++ {
		sym, ok := alpha.Index(n.SymbolAt(i))
		if !ok {
			sym = alpha.Size()
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

func TestPlannerClustersByForm(t *testing.T) {
	src := buildBundle(t, 5, 3)
	planned, dec, err := Bundle(src, Options{})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	// 5 deterministic + 3 nondeterministic queries at cluster size 8: one
	// product per form class, nothing solo.
	if len(dec.Groups) != 2 || len(dec.Solo) != 0 {
		t.Fatalf("decision = %+v, want 2 groups and 0 solo", dec)
	}
	if got := len(planned.Groups()); got != 2 {
		t.Fatalf("planned bundle has %d groups, want 2", got)
	}
	if dec.States <= 0 {
		t.Fatalf("decision reports %d product states", dec.States)
	}
	if planned.Len() != src.Len() {
		t.Fatalf("planned bundle holds %d names, want %d", planned.Len(), src.Len())
	}
	for gi, g := range planned.Groups() {
		if det := g.Product.Deterministic(); det != (gi == 0) {
			t.Errorf("group %d: Deterministic = %v (clusters should be det then ndet)", gi, det)
		}
	}
	verdictsAgree(t, src, planned)
}

func TestPlannerClusterSizeChunks(t *testing.T) {
	src := buildBundle(t, 5, 0)
	planned, dec, err := Bundle(src, Options{ClusterSize: 2})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	// 5 queries at cluster size 2: two products of 2 and one singleton left
	// solo (a one-query product answers nothing a plain runner doesn't).
	if len(dec.Groups) != 2 || len(dec.Solo) != 1 {
		t.Fatalf("decision = %+v, want 2 groups and 1 solo", dec)
	}
	verdictsAgree(t, src, planned)
}

// TestPlannerBudgetFallback is the satellite criterion: a cluster whose
// product exceeds the state budget degrades to per-query fan-out — no
// error, no product group, identical verdicts.
func TestPlannerBudgetFallback(t *testing.T) {
	src := buildBundle(t, 6, 2)
	planned, dec, err := Bundle(src, Options{StateBudget: 2})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 0 {
		t.Fatalf("budget 2 still produced %d product groups", len(dec.Groups))
	}
	if len(dec.Solo) != src.Len() {
		t.Fatalf("budget 2 left %d of %d queries solo", len(dec.Solo), src.Len())
	}
	if dec.States != 0 {
		t.Fatalf("budget 2 reports %d product states", dec.States)
	}
	if got := len(planned.Groups()); got != 0 {
		t.Fatalf("planned bundle has %d groups, want 0", got)
	}
	for i := 0; i < planned.Len(); i++ {
		if planned.Query(i) == nil {
			t.Fatalf("fallback left query %q without a runner", planned.Name(i))
		}
	}
	verdictsAgree(t, src, planned)
}

// TestPlannerBisectsOverBudget gives the planner one cluster whose whole
// product is over an explicit budget while both halves fit: the cluster is
// halved into two products instead of fanned out.
func TestPlannerBisectsOverBudget(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	alpha := alphabet.New(labels...)
	src := query.NewBundle(alpha)
	members := make([]query.Query, len(labels))
	for i, l := range labels {
		members[i] = query.Compile(query.ContainsLabel(alpha, l))
		if err := src.Add("contains "+l, members[i]); err != nil {
			t.Fatal(err)
		}
	}
	states := func(ms []query.Query) int {
		p, err := query.CompileProduct(ms, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p.NumStates()
	}
	budget := max(states(members[:2]), states(members[2:]))
	if whole := states(members); whole <= budget {
		t.Fatalf("fixture: whole product has %d states, halves fit in %d", whole, budget)
	}
	planned, dec, err := Bundle(src, Options{StateBudget: budget})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 2 || len(dec.Solo) != 0 {
		t.Fatalf("decision = %+v, want 2 groups and 0 solo", dec)
	}
	verdictsAgree(t, src, planned)
}

func TestPlannerDisabled(t *testing.T) {
	src := buildBundle(t, 4, 0)
	// Negative budget: plan everything as fan-out.
	planned, dec, err := Bundle(src, Options{StateBudget: -1})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 0 || len(dec.Solo) != 4 {
		t.Fatalf("decision = %+v, want all solo", dec)
	}
	// Cluster size 1: likewise.
	_, dec, err = Bundle(src, Options{ClusterSize: 1})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 0 || len(dec.Solo) != 4 {
		t.Fatalf("cluster size 1 decision = %+v, want all solo", dec)
	}
	_ = planned
}

func TestPlannerRejectsPlannedInput(t *testing.T) {
	src := buildBundle(t, 4, 0)
	planned, _, err := Bundle(src, Options{})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if _, _, err := Bundle(planned, Options{}); err == nil {
		t.Fatal("planning an already-planned bundle did not fail")
	}
}
