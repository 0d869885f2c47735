package plan_test

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/experiments"
	"repro/internal/query"
	"repro/internal/query/plan"
)

// TestPlannerE21DenseProducts plans the 16-query E21 mix under the default
// options: every cluster ends up as a product whose return table is dense,
// and no query is left to run on its own.
func TestPlannerE21DenseProducts(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	names, dnwas := experiments.E21Queries(alpha, 16)
	src := query.NewBundle(alpha)
	for i, d := range dnwas {
		if err := src.Add(names[i], query.Compile(d)); err != nil {
			t.Fatal(err)
		}
	}
	planned, dec, err := plan.Bundle(src, plan.Options{})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	if len(dec.Groups) != 4 || len(dec.Solo) != 0 {
		t.Fatalf("decision = %+v, want 4 groups and 0 solo", dec)
	}
	limit := query.DenseStates(alpha)
	for gi, g := range planned.Groups() {
		if n := g.Product.NumStates(); n > limit {
			t.Errorf("group %d: %d states, over the dense limit %d", gi, n, limit)
		}
	}
	plan.VerdictsAgree(t, src, planned)
}
