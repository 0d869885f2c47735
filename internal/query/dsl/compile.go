// Compilation from the DSL AST to the query package's compiled automata.
// Every construct lowers onto the existing constructors (LinearOrder,
// PathQuery, WellFormed, boolean closure) except the within predicate,
// which needs a genuinely nondeterministic automaton: guessing the witness
// scope is what nondeterminism is for, and the matching-return scope
// boundary is what separates nested-word automata from word automata.
package dsl

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/nwa"
	"repro/internal/query"
)

// Compile compiles a parsed expression against the document alphabet into
// the same compiled form every other query source produces — *query.Compiled
// for deterministic results, *query.CompiledN when the top level is a
// nondeterministic within — so the result registers with the engine and
// serializes into NWQ1 bundles unchanged.  Every label the expression
// mentions must be in alpha: compiled symbol IDs only exist for alphabet
// members, and a silently-absent label would make the query trivially false.
func Compile(e Expr, alpha *alphabet.Alphabet) (query.Query, error) {
	var missing []string
	for _, l := range Labels(e) {
		if _, ok := alpha.Index(l); !ok {
			missing = append(missing, l)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("dsl: query %q uses labels not in the alphabet: %v", e.String(), missing)
	}
	if w, ok := e.(Within); ok && w.Order != nil {
		// Top-level within: keep the nondeterministic automaton — k+5
		// states against the determinized form's subset blow-up.
		return query.CompileN(withinNNWA(alpha, w.Scope, w.Order)), nil
	}
	return query.Compile(lower(e, alpha)), nil
}

// Queries compiles several expressions under their canonical display names
// — the DSL counterpart of query.StandardSet, and like it the single
// definition both the bundle compiler (nwtool) and the in-process tool
// (nwquery) share, so a bundle-booted server and an in-process one
// answer identically for the same -dsl string.
func Queries(alpha *alphabet.Alphabet, exprs []Expr) (names []string, queries []query.Query, err error) {
	for _, e := range exprs {
		q, err := Compile(e, alpha)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, e.String())
		queries = append(queries, q)
	}
	return names, queries, nil
}

// lower builds the deterministic automaton for an expression.  Labels have
// been validated against alpha by Compile.
func lower(e Expr, alpha *alphabet.Alphabet) *nwa.DNWA {
	switch e := e.(type) {
	case WellFormed:
		return query.WellFormed(alpha)
	case Contains:
		return query.ContainsLabel(alpha, e.Label)
	case Order:
		return query.LinearOrder(alpha, e.Labels...)
	case Path:
		return query.PathQuery(alpha, e.Labels...)
	case NoAfter:
		// "no x after y" = there is no y ... x subsequence.
		return query.Not(query.LinearOrder(alpha, e.Trigger, e.Forbidden))
	case Within:
		if e.Order != nil {
			return withinDNWA(alpha, e.Scope, e.Order)
		}
		// "within s: no x after y" = no s-scope contains y ... x.
		return query.Not(withinDNWA(alpha, e.Scope, []string{e.Trigger, e.Forbidden}))
	case And:
		return query.And(lower(e.L, alpha), lower(e.R, alpha))
	case Or:
		return query.Or(lower(e.L, alpha), lower(e.R, alpha))
	case Not:
		return query.Not(lower(e.X, alpha))
	}
	panic(fmt.Sprintf("dsl: unknown expression type %T", e))
}

// withinNNWA builds the existential scope-order automaton: some scope
// element's span (its own call/return positions excluded) contains the
// pattern labels in left-to-right order, at positions of any kind.
//
// The automaton guesses the witness scope nondeterministically.  A search
// state loops outside; on a scope-labelled call it may enter match state
// m_0, pushing a witness marker.  Inside, every position advances the match
// by one when it carries the next expected label (inner calls and returns
// push/pop a dummy marker so the scope's own frame stays identifiable), and
// the witness marker's return from the fully-matched state m_k reaches a
// sticky accept.  A document that ends inside a fully-matched but unclosed
// witness scope also accepts: m_k is itself accepting, consistent with the
// tokenizer's tolerance for unmatched calls.
//
// States: search = 0, m_i = 1+i (i = 0..k), accept = k+2, witness marker =
// k+3, dummy marker = k+4 — k+5 states total, independent of the document.
// withinDNWA is the deterministic form of the same language, used under
// boolean operators where composition needs DNWAs.  Determinizing the
// nondeterministic automaton works but pays the generic subset blow-up
// (hundreds of states); this direct construction stays at k+5 states on the
// strength of two observations.  First, acceptance is equivalent to "some
// scope's match progress reaches k while the scope is open": once that
// happens the scope either closes (witness found) or the document ends
// inside it, and both accept.  Second, greedy subsequence progress is
// monotone in how early matching started — if two scopes are open, the
// outer one opened earlier, saw a superset of the inner one's interior, and
// advance(i, sym) preserves i1 >= i2 — so the outermost open scope always
// carries the maximal progress and is the only one worth tracking: it
// reaches k first, and it closes last.
//
// States: noScope = 0 (start; doubles as the marker for frames opened
// outside any scope and as the pending-return hierarchical state), p_q =
// 1+q (q = 0..k-1: outermost open scope has progress q), found = k+1
// (sticky accept), scopeTop = k+2 (marker for the outermost scope's own
// frame), inside = k+3 (marker for frames opened inside it), foundM = k+4
// (marker for frames opened after accepting).
func withinDNWA(alpha *alphabet.Alphabet, scope string, pattern []string) *nwa.DNWA {
	k := len(pattern)
	const noScope = 0
	p := func(q int) int { return 1 + q }
	found := k + 1
	scopeTop := k + 2
	inside := k + 3
	foundM := k + 4
	b := nwa.NewDNWABuilder(alpha, k+5)
	b.SetStart(noScope).SetAccept(found)
	// state after the outermost scope's progress q sees one position
	// labelled sym.
	after := func(q int, sym string) int {
		if sym == pattern[q] {
			if q+1 == k {
				return found
			}
			return p(q + 1)
		}
		return p(q)
	}
	for s := 0; s < alpha.Size(); s++ {
		sym := alpha.Symbol(s)
		b.Internal(noScope, sym, noScope)
		if sym == scope {
			b.Call(noScope, sym, p(0), scopeTop)
		} else {
			b.Call(noScope, sym, noScope, noScope)
		}
		b.Return(noScope, noScope, sym, noScope)
		for q := 0; q < k; q++ {
			b.Internal(p(q), sym, after(q, sym))
			b.Call(p(q), sym, after(q, sym), inside)
			b.Return(p(q), inside, sym, after(q, sym))
			// The scope's own closing return is excluded from its progress;
			// below full progress the scope simply failed.
			b.Return(p(q), scopeTop, sym, noScope)
		}
		b.Internal(found, sym, found)
		b.Call(found, sym, found, foundM)
		for _, hier := range []int{foundM, inside, scopeTop, noScope} {
			b.Return(found, hier, sym, found)
		}
	}
	return b.Build()
}

func withinNNWA(alpha *alphabet.Alphabet, scope string, pattern []string) *nwa.NNWA {
	k := len(pattern)
	const search = 0
	m := func(i int) int { return 1 + i }
	acc := k + 2
	witness := k + 3
	dummy := k + 4
	n := nwa.NewNNWA(alpha, k+5)
	n.AddStart(search)
	n.AddAccept(acc, m(k))
	// advance is the match progress after seeing one position labelled sym.
	advance := func(i int, sym string) int {
		if i < k && sym == pattern[i] {
			return i + 1
		}
		return i
	}
	for s := 0; s < alpha.Size(); s++ {
		sym := alpha.Symbol(s)
		// Search: loop, and guess the witness on scope calls.  The search
		// state doubles as the hierarchical marker for frames opened while
		// searching — and, being the start state, as the marker the
		// simulation supplies for the document's own pending returns.
		n.AddInternal(search, sym, search)
		n.AddCall(search, sym, search, search)
		if sym == scope {
			n.AddCall(search, sym, m(0), witness)
		}
		n.AddReturn(search, search, sym, search)
		// Match states: every position inside the span advances on the
		// expected label; the span's own closing return is excluded by
		// routing it through the witness marker instead.
		for i := 0; i <= k; i++ {
			n.AddInternal(m(i), sym, m(advance(i, sym)))
			n.AddCall(m(i), sym, m(advance(i, sym)), dummy)
			n.AddReturn(m(i), dummy, sym, m(advance(i, sym)))
		}
		n.AddReturn(m(k), witness, sym, acc)
		// Accept is sticky through any suffix, including returns of frames
		// opened before the witness (marker search) or after it (dummy).
		n.AddInternal(acc, sym, acc)
		n.AddCall(acc, sym, acc, dummy)
		n.AddReturn(acc, dummy, sym, acc)
		n.AddReturn(acc, search, sym, acc)
	}
	return n
}
