// Package plan decides how a compiled query bundle is executed: which
// queries are product-compiled into one shared automaton and which stay
// fanned out to their own runners.
//
// Nested-word automata are closed under product with multiplicative state
// cost (the source paper's Section 3.2), so a cluster of structurally
// similar queries can be answered by a single automaton whose states carry a
// per-query accept bitmask — per-event cost then stops scaling with the
// cluster size.  The same multiplicative bound is the hazard: a bad cluster
// multiplies to an enormous state space.  The planner therefore works under
// a state budget, by default query.DenseStates: the largest product whose
// return table is still one indexed load instead of a binary search.
// Queries are grouped by compiled form (deterministic products and joint
// nondeterministic unions cannot mix), chunked into clusters of at most
// ClusterSize in bundle order, and each cluster is product-compiled; a
// cluster whose product exceeds StateBudget is halved in bundle order and
// each half planned the same way, so only a part halved down to a single
// query runs on its own, verdicts unchanged (TestPlannerBudgetFallback pins
// this).  Experiment E28 measures where the crossover sits; see
// docs/COMPILATION.md for the pipeline this package sits in the middle of.
package plan

import (
	"errors"
	"fmt"

	"repro/internal/query"
)

// DefaultClusterSize is the cluster width used when Options leaves
// ClusterSize zero — the "≥8 structurally similar queries" region where E28
// shows the product beating fan-out, without betting the whole bundle on
// one product.
const DefaultClusterSize = 8

// Options tunes the planner.  The zero value means the defaults.
type Options struct {
	// StateBudget caps each product's state count; a cluster whose product
	// would exceed it is halved until its parts fit, and a single query
	// runs on its own.  Zero means query.DenseStates of the bundle's
	// alphabet, so every product keeps a dense return table; negative
	// means no product compilation at all (plan everything as fan-out).
	StateBudget int
	// ClusterSize is the maximum number of queries per product cluster.
	// Zero means DefaultClusterSize; values below 2 disable clustering,
	// since a one-query product answers nothing a plain runner doesn't.
	ClusterSize int
}

// Decision reports what the planner did: the clusters that were
// product-compiled (bundle indices, in mask-bit order), the indices left
// fanned out, and the total product state count.
type Decision struct {
	Groups [][]int // product-compiled clusters, one index list each
	Solo   []int   // indices answered by their own runner
	States int     // summed state count of all compiled products
}

// Bundle plans a compiled bundle: structurally compatible queries are
// chunked into clusters and product-compiled, over-budget clusters are
// halved until their parts fit, and the result is a planned bundle with
// identical names, order, and verdicts.  The input bundle is not modified
// and must itself be unplanned.
func Bundle(b *query.Bundle, opts Options) (*query.Bundle, Decision, error) {
	if len(b.Groups()) != 0 {
		return nil, Decision{}, fmt.Errorf("plan: bundle is already planned (%d groups)", len(b.Groups()))
	}
	if opts.StateBudget == 0 {
		opts.StateBudget = query.DenseStates(b.Alphabet())
	}
	if opts.ClusterSize == 0 {
		opts.ClusterSize = DefaultClusterSize
	}

	var dec Decision
	var products []*query.CompiledProduct
	solo := func(indices ...int) { dec.Solo = append(dec.Solo, indices...) }

	// Partition by compiled form, keeping bundle order within each class so
	// DSL-emitted runs of similar queries land in the same cluster.
	var det, ndet []int
	for i := 0; i < b.Len(); i++ {
		switch b.Query(i).(type) {
		case *query.Compiled:
			det = append(det, i)
		case *query.CompiledN:
			ndet = append(ndet, i)
		default:
			solo(i)
		}
	}

	// place product-compiles one cluster, halving it in bundle order while
	// its product is over budget; a cluster of n queries makes at most n−1
	// attempts, each stopped at the budget.
	var place func(cluster []int) error
	place = func(cluster []int) error {
		if len(cluster) < 2 || opts.StateBudget < 0 {
			solo(cluster...)
			return nil
		}
		members := make([]query.Query, len(cluster))
		for j, idx := range cluster {
			members[j] = b.Query(idx)
		}
		p, err := query.CompileProduct(members, opts.StateBudget)
		switch {
		case errors.Is(err, query.ErrStateBudget):
			// The multiplicative blow-up case: the halves multiply far
			// fewer states than the whole.
			half := len(cluster) / 2
			if err := place(cluster[:half]); err != nil {
				return err
			}
			return place(cluster[half:])
		case err != nil:
			return fmt.Errorf("plan: cluster %v: %w", cluster, err)
		}
		products = append(products, p)
		dec.Groups = append(dec.Groups, cluster)
		dec.States += p.NumStates()
		return nil
	}
	for _, class := range [][]int{det, ndet} {
		for len(class) > 0 {
			n := min(opts.ClusterSize, len(class))
			if err := place(class[:n]); err != nil {
				return nil, Decision{}, err
			}
			class = class[n:]
		}
	}

	planned, err := query.NewPlannedBundle(b, dec.Groups, products)
	if err != nil {
		return nil, Decision{}, fmt.Errorf("plan: %w", err)
	}
	return planned, dec, nil
}
