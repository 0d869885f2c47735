package query

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/nwa"
	"repro/internal/query/format"
)

// This file is the automaton-level static analyzer behind `nwtool vet`: a
// compiled artifact is checked before anything maps it, against invariants in
// three rings.
//
//  1. Structural: the bundle's checkCover and each compiled form's validate
//     — the very checks the decoder runs on every load (qset.go) — so an
//     in-memory bundle that was never serialized meets the same rule.  A
//     failed validator is reported as one error.
//  2. Cross-representation: what a form stores twice must agree.  The DNWA
//     dead state must be a sink; CompiledN's start/accept rows must mirror
//     its starts and accept table, and its CSR adjacency and per-symbol
//     bitmask slabs — the runners mix both — must agree bit for bit; a
//     product's accept mask must agree with its interior's accept table.
//     Decoding checks each copy in isolation; only vet cross-checks them,
//     which makes these the corruptions a valid-looking container can
//     smuggle past Unmarshal.
//  3. Semantic: reachability and coaccessibility over the compiled tables,
//     computed by the emptiness machinery of internal/nwa (Section 3.2), so
//     unreachable states, useless transitions, and empty-language queries
//     are reported with exact counts before a fleet boots the bundle.
//
// Structural and cross-representation violations are errors (the artifact is
// rejected); semantic findings are warnings (the artifact works, but carries
// dead weight).

// Vet issue levels.
const (
	// VetError marks a structural or cross-representation violation; the
	// artifact must not be served.
	VetError = "error"
	// VetWarning marks a semantic finding — dead states or transitions; the
	// artifact is safe but bloated.
	VetWarning = "warning"
)

// vetCoaccessLimit caps the automaton size for the coaccessibility pass,
// whose projected-edge construction enumerates the quadratic return index.
// Larger automata skip the pass (noted in the stats) rather than stall the
// vet.
const vetCoaccessLimit = 256

// VetIssue is one finding of the artifact verifier.
type VetIssue struct {
	// Query is the display name of the query the issue is in ("" for
	// container-level issues).
	Query string
	// Level is VetError or VetWarning.
	Level string
	// Msg describes the violation.
	Msg string
}

// VetQueryStats summarizes the semantic analysis of one query.
type VetQueryStats struct {
	// Name is the query's display name in the bundle ("query" standalone).
	Name string
	// Form is "dnwa" or "nnwa", prefixed with "product-" when the automaton
	// is the shared interior of a product-compiled cluster.
	Form string
	// States is the exact state count, dead sink included for DNWAs.
	States int
	// Reachable counts states some nested word reaches linearly.
	Reachable int
	// Unreachable lists the states that are neither linearly reachable nor
	// used as hierarchical targets of reachable calls, in ascending order.
	Unreachable []int
	// DeadTransitions counts defined transitions that can never fire
	// because their source (or return-edge hierarchical component) is
	// unreachable.
	DeadTransitions int
	// NonCoaccessible counts reachable states from which no accepting state
	// can be reached (designated dead sinks excluded); -1 when the
	// automaton exceeds vetCoaccessLimit and the pass was skipped.
	NonCoaccessible int
}

// VetContainer describes the serialized container a report was vetted
// from (zero-valued when VetBundle ran on an in-memory bundle).
type VetContainer struct {
	// Version is the container header version (format.Version1 or
	// format.VersionHashed).
	Version uint32
	// Kind is the container object kind (format.KindDNWA … KindProduct).
	Kind uint32
	// ContentHash is the hex content hash: the verified header hash of a
	// VersionHashed container, or the plain checksum of a v1 one.
	ContentHash string
	// HashVerified is true when ContentHash is the verified header hash.
	HashVerified bool
}

// VetReport is the full result of vetting one artifact.
type VetReport struct {
	// Container describes the serialized artifact (zero for in-memory).
	Container VetContainer
	// Queries holds per-query statistics in bundle order.
	Queries []VetQueryStats
	// Issues holds every finding, container-level first.
	Issues []VetIssue
}

func (r *VetReport) add(query, level, msg string) {
	r.Issues = append(r.Issues, VetIssue{Query: query, Level: level, Msg: msg})
}

// Errors counts VetError issues.
func (r *VetReport) Errors() int { return r.count(VetError) }

// Warnings counts VetWarning issues.
func (r *VetReport) Warnings() int { return r.count(VetWarning) }

func (r *VetReport) count(level string) int {
	n := 0
	for _, i := range r.Issues {
		if i.Level == level {
			n++
		}
	}
	return n
}

// String renders the report in the line-per-finding format documented in
// docs/ANALYZERS.md: one stats line per query, one line per issue, and a
// closing tally.
func (r *VetReport) String() string {
	var b strings.Builder
	if r.Container.Version != 0 {
		verified := "unverified checksum"
		if r.Container.HashVerified {
			verified = "verified"
		}
		fmt.Fprintf(&b, "container: version %d, kind %d, content hash %s (%s)\n",
			r.Container.Version, r.Container.Kind, r.Container.ContentHash, verified)
	}
	for _, s := range r.Queries {
		fmt.Fprintf(&b, "query %q: %s, %d states, %d reachable, %d unreachable, %d dead transitions",
			s.Name, s.Form, s.States, s.Reachable, len(s.Unreachable), s.DeadTransitions)
		if s.NonCoaccessible < 0 {
			fmt.Fprintf(&b, ", coaccessibility skipped (>%d states)", vetCoaccessLimit)
		} else {
			fmt.Fprintf(&b, ", %d non-coaccessible", s.NonCoaccessible)
		}
		b.WriteByte('\n')
	}
	for _, i := range r.Issues {
		b.WriteString(i.Level)
		b.WriteString(": ")
		if i.Query != "" {
			fmt.Fprintf(&b, "query %q: ", i.Query)
		}
		b.WriteString(i.Msg)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "vet: %d errors, %d warnings\n", r.Errors(), r.Warnings())
	return b.String()
}

// VetBytes verifies a serialized artifact — a bundle or a standalone
// compiled query container.  A container that does not decode is rejected
// with an error; a container that decodes is vetted and the findings
// returned in the report (structural errors included), never panicking on
// any input.
func VetBytes(data []byte) (*VetReport, error) {
	r, err := format.NewReader(data)
	if err != nil {
		return nil, err
	}
	container := VetContainer{Version: r.Version(), Kind: r.Kind()}
	if h, ok := r.ContentHash(); ok {
		container.ContentHash, container.HashVerified = hex.EncodeToString(h[:]), true
	} else {
		sum := format.Checksum(data)
		container.ContentHash = hex.EncodeToString(sum[:])
	}
	var rep *VetReport
	switch r.Kind() {
	case format.KindBundle:
		b, err := UnmarshalBundle(data)
		if err != nil {
			return nil, err
		}
		rep = VetBundle(b)
	case format.KindDNWA, format.KindNNWA:
		q, err := UnmarshalQuery(data)
		if err != nil {
			return nil, err
		}
		rep = &VetReport{}
		vetQuery(rep, "query", q)
	case format.KindProduct:
		p, err := UnmarshalProduct(data)
		if err != nil {
			return nil, err
		}
		rep = &VetReport{}
		vetProduct(rep, "product", p)
	default:
		return nil, fmt.Errorf("query: container kind %d is not a vettable artifact", r.Kind())
	}
	rep.Container = container
	if !container.HashVerified {
		rep.add("", VetWarning, fmt.Sprintf(
			"container is unhashed version %d — re-marshal to version %d so fleets can verify it before mapping",
			r.Version(), format.VersionHashed))
	}
	return rep, nil
}

// VetBundle verifies an in-memory bundle: the bundle's demux and coverage
// rule (checkCover), each product and query under its structural validator,
// the cross-representation checks, and the reachability/coaccessibility
// analysis.  A bundle that breaks the cover rule gets that one error and no
// per-query pass, since its slots cannot be trusted to name their queries.
func VetBundle(b *Bundle) *VetReport {
	rep := &VetReport{}
	if len(b.queries) == 0 {
		rep.add("", VetWarning, "bundle holds no queries")
	}
	if err := b.checkCover(); err != nil {
		rep.add("", VetError, err.Error())
		return rep
	}
	for gi, g := range b.groups {
		vetProduct(rep, fmt.Sprintf("group %d", gi+1), g.Product)
	}
	for i, q := range b.queries {
		if q != nil {
			vetQuery(rep, b.names[i], q)
		}
	}
	return rep
}

// vetProduct verifies a product-compiled cluster: its validator (interior
// automaton included), the cross-representation agreement between the
// accept mask and the interior's accept table, and the interior's own
// cross-representation and semantic passes, reported under the
// "product-dnwa"/"product-nnwa" forms.
func vetProduct(rep *VetReport, name string, p *CompiledProduct) {
	if err := p.validate(); err != nil {
		rep.add(name, VetError, err.Error())
		return
	}
	switch c := p.inner.(type) {
	case *Compiled:
		// The shared automaton accepts exactly where some member does, i.e.
		// where the state's mask row is non-empty.
		for s := 0; s < c.num; s++ {
			if c.accept[s] != bitset.Slab(p.mask, s, p.maskW).Any() {
				rep.add(name, VetError, fmt.Sprintf("state %d acceptance disagrees with its accept-mask row", s))
				return
			}
		}
	case *CompiledN:
		// The union's accept row is exactly the union of the per-member
		// verdict rows.
		union := bitset.New(c.num)
		for q := 0; q < p.nq; q++ {
			union.Or(bitset.Slab(p.mask, q, p.maskW))
		}
		if !union.Equal(c.acceptRow) {
			rep.add(name, VetError, "the union of the member verdict rows disagrees with the accept row")
			return
		}
	}
	vetValid(rep, name, "product-", p.inner)
}

// vetQuery verifies one compiled query: its validator, then vetValid.
// Unknown Query implementations fail the validator (only the serializable
// compiled forms have vettable tables).
func vetQuery(rep *VetReport, name string, q Query) {
	if err := validateQuery(q); err != nil {
		rep.add(name, VetError, err.Error())
		return
	}
	vetValid(rep, name, "", q)
}

// vetValid runs the cross-representation and semantic passes over a query
// that passed its validator; form prefixes the reported form name.
func vetValid(rep *VetReport, name, form string, q Query) {
	switch c := q.(type) {
	case *Compiled:
		c.vetSink(rep, name)
		vetSemantics(rep, name, form+"dnwa", dnwaGraph{c}, int(c.dead), c.countDeadTransitions)
	case *CompiledN:
		if c.vetRows(rep, name) {
			vetSemantics(rep, name, form+"nnwa", nnwaGraph{c}, -1, c.countDeadTransitions)
		}
	}
}

// --- cross-representation checks ------------------------------------------

// vetSink checks the determinism/totality property the validator cannot
// see: the designated dead state must be a sink, or the compiled automaton
// silently resurrects rejected runs.
func (c *Compiled) vetSink(rep *VetReport, name string) {
	// Acceptance at the sink is legal — a complemented query (the DSL's
	// "no x after y", or any "not") accepts exactly where the original
	// automaton died, out-of-alphabet symbols included, which keeps the
	// complement law not(Q) ≡ !Q exact — but it is worth surfacing, because
	// on a never-negated query it usually means a corrupted accept mask.
	dead := int(c.dead)
	if c.accept[dead] {
		rep.add(name, VetWarning, fmt.Sprintf("dead state %d is accepting (complemented query, or a corrupted accept mask)", dead))
	}
	for sym := 0; sym < c.syms; sym++ {
		i := dead*c.syms + sym
		if c.callLin[i] != c.dead || c.internT[i] != c.dead {
			rep.add(name, VetError, fmt.Sprintf("dead state %d has an outgoing transition on symbol %d (not a sink)", dead, sym))
			break
		}
	}
	c.eachReturnEdge(func(lin, hier, sym, to int) {
		if lin == dead && to != dead {
			rep.add(name, VetError, fmt.Sprintf("dead state %d returns to live state %d (not a sink)", dead, to))
		}
	})
}

// eachReturnEdge enumerates the defined (non-dead-target) return transitions
// of either return representation.
func (c *Compiled) eachReturnEdge(f func(lin, hier, sym, to int)) {
	if c.dense {
		for lin := 0; lin < c.num; lin++ {
			for hier := 0; hier < c.num; hier++ {
				base := (lin*c.num + hier) * c.syms
				for sym := 0; sym < c.syms; sym++ {
					if to := c.returnT[base+sym]; to != c.dead {
						f(lin, hier, sym, int(to))
					}
				}
			}
		}
		return
	}
	for i, key := range c.sparseR.keys {
		if to := c.sparseR.vals[i]; to != c.dead {
			idx := int(key)
			sym := idx % c.syms
			lh := idx / c.syms
			f(lh/c.num, lh%c.num, sym, int(to))
		}
	}
}

// vetRows checks what CompiledN stores twice: the start/accept rows must
// mirror the starts list and accept table, and the per-symbol bitmask slabs
// must agree, row by row and bit by bit, with the CSR adjacency, because
// the bitset runner steps through the masks while the return stitch
// enumerates the CSR — a disagreement makes the two halves of one runner
// simulate different automata.  It reports whether the masks agree, which
// the semantic pass needs.
func (c *CompiledN) vetRows(rep *VetReport, name string) bool {
	if !c.startRow.Equal(packStateRow(c.num, c.starts)) {
		rep.add(name, VetError, "start row disagrees with the start state list")
	}
	if !c.acceptRow.Equal(packAcceptRow(c.accept)) {
		rep.add(name, VetError, "accept row disagrees with the accept table")
	}
	return c.vetMaskConsistency(rep, name)
}

// vetMaskConsistency cross-checks the bitmask slabs against the CSR
// adjacency: for every (symbol, state) the internal mask row must hold
// exactly the internal CSR successors and the call mask row exactly the
// linear call successors.
func (c *CompiledN) vetMaskConsistency(rep *VetReport, name string) bool {
	ok := true
	row := bitset.New(c.num)
	check := func(what string, mask []uint64, succ func(q, sym int) []int32) {
		for sym := 0; sym < c.syms; sym++ {
			for q := 0; q < c.num; q++ {
				row.Zero()
				for _, to := range succ(q, sym) {
					row.Set(int(to))
				}
				if !row.Equal(c.maskRow(mask, sym, q)) {
					rep.add(name, VetError, fmt.Sprintf(
						"%s mask row (sym %d, state %d) disagrees with the CSR adjacency", what, sym, q))
					ok = false
				}
			}
		}
	}
	check("internal", c.intMask, func(q, sym int) []int32 { return c.internalSucc(q, sym) })
	check("call", c.callMask, func(q, sym int) []int32 {
		lin, _ := c.callSucc(q, sym)
		return lin
	})
	return ok
}

// --- semantic analysis ---------------------------------------------------

// dnwaGraph exposes a Compiled's defined transitions (dead-sink targets
// excluded) as a StateGraph for the reachability analysis.
type dnwaGraph struct{ c *Compiled }

func (g dnwaGraph) NumStates() int         { return g.c.num }
func (g dnwaGraph) NumSymbols() int        { return g.c.syms }
func (g dnwaGraph) StartStates() []int     { return []int{int(g.c.start)} }
func (g dnwaGraph) IsAccepting(q int) bool { return g.c.accept[q] }

func (g dnwaGraph) EachCallEdge(q, sym int, f func(linear, hier int)) {
	i := q*g.c.syms + sym
	if lin := g.c.callLin[i]; lin != g.c.dead || g.c.callHier[i] != g.c.dead {
		f(int(lin), int(g.c.callHier[i]))
	}
}

func (g dnwaGraph) EachInternalEdge(q, sym int, f func(to int)) {
	if to := g.c.internT[q*g.c.syms+sym]; to != g.c.dead {
		f(int(to))
	}
}

func (g dnwaGraph) EachReturnEdge(lin, hier, sym int, f func(to int)) {
	if to := g.c.stepReturn(int32(lin), int32(hier), sym); to != g.c.dead {
		f(int(to))
	}
}

// nnwaGraph exposes a CompiledN's CSR adjacency as a StateGraph.
type nnwaGraph struct{ c *CompiledN }

func (g nnwaGraph) NumStates() int  { return g.c.num }
func (g nnwaGraph) NumSymbols() int { return g.c.syms }
func (g nnwaGraph) StartStates() []int {
	out := make([]int, len(g.c.starts))
	for i, q := range g.c.starts {
		out[i] = int(q)
	}
	return out
}
func (g nnwaGraph) IsAccepting(q int) bool { return g.c.accept[q] }

func (g nnwaGraph) EachCallEdge(q, sym int, f func(linear, hier int)) {
	lins, hiers := g.c.callSucc(q, sym)
	for i, lin := range lins {
		f(int(lin), int(hiers[i]))
	}
}

func (g nnwaGraph) EachInternalEdge(q, sym int, f func(to int)) {
	for _, to := range g.c.internalSucc(q, sym) {
		f(int(to))
	}
}

func (g nnwaGraph) EachReturnEdge(lin, hier, sym int, f func(to int)) {
	for _, to := range g.c.returnSucc(int32(lin), int32(hier), sym) {
		f(int(to))
	}
}

// liveSets runs the reachability analysis and derives the hierarchical
// usage and return-edge eligibility sets shared by both compiled forms:
// hierOK[h] is true when a return edge with hierarchical component h can
// fire — h is the hierarchical target of a call from a reachable state, or
// an initial state (pending returns, Section 3.1).
func liveSets(g nwa.StateGraph) (reach, hier, hierOK []bool) {
	reach = nwa.ReachableStates(g)
	hier = nwa.HierarchicalTargets(g, reach)
	hierOK = make([]bool, len(hier))
	copy(hierOK, hier)
	for _, q := range g.StartStates() {
		if q >= 0 && q < len(hierOK) {
			hierOK[q] = true
		}
	}
	return reach, hier, hierOK
}

// vetSemantics runs the reachability/coaccessibility analysis of one query
// and appends its stats and warnings.  deadState is the designated DNWA sink
// (excluded from the dead-weight warnings; -1 for NNWAs), and deadTrans
// counts the defined transitions that cannot fire given the live sets.
func vetSemantics(rep *VetReport, name, form string, g nwa.StateGraph, deadState int, deadTrans func(reach, hierOK []bool) int) {
	reach, hier, hierOK := liveSets(g)
	stats := VetQueryStats{Name: name, Form: form, States: g.NumStates(), NonCoaccessible: -1}
	for q, r := range reach {
		if r {
			stats.Reachable++
		} else if !hier[q] && q != deadState {
			stats.Unreachable = append(stats.Unreachable, q)
		}
	}
	sort.Ints(stats.Unreachable)
	for _, q := range stats.Unreachable {
		rep.add(name, VetWarning, fmt.Sprintf("state %d is unreachable", q))
	}
	stats.DeadTransitions = deadTrans(reach, hierOK)
	if stats.DeadTransitions > 0 {
		rep.add(name, VetWarning, fmt.Sprintf("%d dead transitions can never fire", stats.DeadTransitions))
	}
	if g.NumStates() <= vetCoaccessLimit {
		co := nwa.CoaccessibleStates(g, hierOK)
		stats.NonCoaccessible = 0
		empty := true
		for q, r := range reach {
			if !r || q == deadState {
				continue
			}
			if !co[q] {
				stats.NonCoaccessible++
				rep.add(name, VetWarning, fmt.Sprintf("state %d cannot reach an accepting state", q))
			} else {
				empty = false
			}
		}
		if empty {
			rep.add(name, VetWarning, "query accepts no document (no reachable state is coaccessible)")
		}
	}
	rep.Queries = append(rep.Queries, stats)
}

// countDeadTransitions counts the defined DNWA transitions that cannot fire:
// call and internal cells out of unreachable states, and return edges whose
// linear source is unreachable or whose hierarchical component no reachable
// call (and no pending return) supplies.
func (c *Compiled) countDeadTransitions(reach, hierOK []bool) int {
	dead := 0
	for q := 0; q < c.num; q++ {
		if reach[q] {
			continue
		}
		for sym := 0; sym < c.syms; sym++ {
			i := q*c.syms + sym
			if c.callLin[i] != c.dead || c.callHier[i] != c.dead {
				dead++
			}
			if c.internT[i] != c.dead {
				dead++
			}
		}
	}
	c.eachReturnEdge(func(lin, hier, sym, to int) {
		if !reach[lin] || !hierOK[hier] {
			dead++
		}
	})
	return dead
}

// countDeadTransitions counts the CSR entries of a CompiledN that cannot
// fire, under the same definition as the Compiled form.
func (c *CompiledN) countDeadTransitions(reach, hierOK []bool) int {
	dead := 0
	for q := 0; q < c.num; q++ {
		if reach[q] {
			continue
		}
		for sym := 0; sym < c.syms; sym++ {
			i := q*c.syms + sym
			dead += int(c.callOff[i+1] - c.callOff[i])
			dead += int(c.intOff[i+1] - c.intOff[i])
		}
	}
	c.eachReturnIndex(func(lin, hier, sym, n int) {
		if !reach[lin] || !hierOK[hier] {
			dead += n
		}
	})
	return dead
}

// eachReturnIndex enumerates the populated return index cells of either
// return representation, with the number of targets per cell.
func (c *CompiledN) eachReturnIndex(f func(lin, hier, sym, n int)) {
	decompose := func(idx int) (lin, hier, sym int) {
		sym = idx % c.syms
		lh := idx / c.syms
		return lh / c.num, lh % c.num, sym
	}
	if c.dense {
		for i := 0; i+1 < len(c.retOff); i++ {
			if n := int(c.retOff[i+1] - c.retOff[i]); n > 0 {
				lin, hier, sym := decompose(i)
				f(lin, hier, sym, n)
			}
		}
		return
	}
	for i, key := range c.retKeys {
		if n := int(c.retSpan[i+1] - c.retSpan[i]); n > 0 {
			lin, hier, sym := decompose(int(key))
			f(lin, hier, sym, n)
		}
	}
}
