package query

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/bitset"
	"repro/internal/docstream"
)

// This file is the product-compilation layer: it turns a cluster of compiled
// queries over one shared alphabet into a single automaton that answers all
// of them in one pass, so per-event cost stops scaling with the number of
// registered queries (the ROADMAP's "biggest remaining lever on per-event
// cost at high query counts").
//
// Two shapes exist, matching the two compiled forms:
//
//   - Deterministic clusters (*Compiled members) use the classic product of
//     Section 3.2: a product state is a tuple of member states, transitions
//     go componentwise, and only the tuples actually reachable through the
//     call/internal/return closure are materialized.  The per-event cost of
//     the product runner is that of ONE deterministic runner — two or three
//     indexed loads — regardless of how many members the cluster has.
//   - Nondeterministic clusters (*CompiledN members) use the disjoint union
//     stepped jointly: the members' state spaces are concatenated into one
//     CompiledN whose bitset runner advances every member's state set in the
//     same word-parallel Gather sweeps, amortizing the per-event loop and
//     the per-element stack bookkeeping across the cluster.  Blocks are
//     disjoint — no transition crosses a member boundary — so the union run
//     restricted to member j's block is exactly member j's own run, pending
//     returns included (the Section 3.1 stitch pairs a block state only
//     with that block's own initial states, because cross-block (lin, hier)
//     pairs have no return transitions).
//
// Either way, acceptance is a per-query bitmask (a bitset.Row over member
// indices per product state for the deterministic product; one
// accepting-state row per member for the joint union), and a ProductRunner
// demuxes that mask back into the member verdicts.  Products carry the
// multiplicative state cost the paper proves closure under (Section 3.2),
// which is exactly why CompileProduct takes a state budget: a cluster whose
// reachable product outgrows the budget is rejected with ErrStateBudget, and
// the planner (internal/query/plan) halves the cluster and tries again.

// ErrStateBudget is reported by CompileProduct when the product's state
// space would exceed the caller's budget.  Callers — the planner above all —
// treat it as "split this cluster" rather than as a failure.
var ErrStateBudget = errors.New("query: product exceeds the state budget")

// ProductRunner is the streaming face of a product-compiled cluster: the
// same three Step calls as Runner, but acceptance is a bitmask over the
// cluster's member queries instead of a single verdict.  Like Runner, a
// ProductRunner owns its hierarchical stack and is not safe for concurrent
// use.
type ProductRunner interface {
	// StepCall consumes an element-open event.
	StepCall(sym int)
	// StepInternal consumes a text event.
	StepInternal(sym int)
	// StepReturn consumes an element-close event.  On an empty stack the
	// event is a pending return for every member at once, per Section 3.1.
	StepReturn(sym int)
	// StepEvents consumes a batch of events interned against the product's
	// alphabet — Sym-1 is the compiled symbol ID, as the Step methods take
	// it — exactly as one Step call per event would, in one call.
	StepEvents(evs []docstream.Event)
	// Verdicts overwrites dst — a row of at least QueryCount bits — with
	// the per-member verdicts for the stream consumed so far, viewed as a
	// complete nested word: bit j is member j's verdict.
	Verdicts(dst bitset.Row)
	// Reset returns the runner to the start of a new document, keeping its
	// allocations.
	Reset()
}

// CompiledProduct is an immutable product-compiled query cluster: one
// automaton whose accept structure is a per-query bitmask, answering
// QueryCount member queries at once.  Build one with CompileProduct, wrap
// one query with SoloProduct, or let the planner (internal/query/plan)
// cluster a whole bundle; the engine dispatches one ProductRunner per
// product and demuxes the verdict mask back to the member names.
type CompiledProduct struct {
	inner Query // *Compiled (deterministic product) or *CompiledN (joint union)
	nq    int   // member query count

	// mask is the accept bitmask slab, maskW words per row.  For a
	// deterministic product it has one row per product state, maskW =
	// bitset.Words(nq): bit j of row q means member j accepts in product
	// state q.  For a joint union it has one row per member, maskW =
	// inner.w: row j holds member j's accepting states within the union
	// state space.
	mask  []uint64
	maskW int

	// fmtVersion is the container version this product was decoded from
	// (0 for a freshly compiled one); Marshal re-emits it.
	fmtVersion uint32
}

// Alphabet returns the shared alphabet the cluster was compiled over.
func (p *CompiledProduct) Alphabet() *alphabet.Alphabet { return p.inner.Alphabet() }

// QueryCount returns the number of member queries the product answers.
func (p *CompiledProduct) QueryCount() int { return p.nq }

// NumStates returns the state count of the shared automaton: reachable
// tuples for a deterministic product, the summed member states for a joint
// union.
func (p *CompiledProduct) NumStates() int {
	switch c := p.inner.(type) {
	case *Compiled:
		return c.num
	case *CompiledN:
		return c.num
	}
	return 0
}

// denseReturns reports whether the shared automaton's return table is
// stored densely.
func (p *CompiledProduct) denseReturns() bool {
	switch c := p.inner.(type) {
	case *Compiled:
		return c.dense
	case *CompiledN:
		return c.dense
	}
	return false
}

// Deterministic reports whether the product is a deterministic tuple product
// (as opposed to a jointly-stepped nondeterministic union).
func (p *CompiledProduct) Deterministic() bool {
	_, ok := p.inner.(*Compiled)
	return ok
}

// NewProductRunner returns a fresh runner positioned at the document start.
func (p *CompiledProduct) NewProductRunner() ProductRunner {
	switch c := p.inner.(type) {
	case *Compiled:
		return &detProductRunner{dnwaRunner: dnwaRunner{c: c, state: c.start}, p: p}
	case *CompiledN:
		return &jointProductRunner{nnwaBitsetRunner: c.newBitsetRunner(), p: p}
	}
	return nil
}

// SoloProduct wraps one compiled query as a 1-member product, the 1-fold
// case of the Section 3.2 product, so a single query runs through the same
// ProductRunner as a planned cluster.  Unlike CompileProduct it builds no
// tables: the product shares the member's automaton as-is — possibly
// aliasing a mapped bundle — and adds only its O(states) accept mask (one
// word per state for a *Compiled, a copy of the accepting-state row for a
// *CompiledN).  Any other Query type is rejected.
func SoloProduct(q Query) (*CompiledProduct, error) {
	switch c := q.(type) {
	case *Compiled:
		mask := make([]uint64, c.num)
		for s, ok := range c.accept {
			if ok {
				mask[s] = 1
			}
		}
		return &CompiledProduct{inner: c, nq: 1, mask: mask, maskW: 1}, nil
	case *CompiledN:
		mask := append([]uint64(nil), c.acceptRow...)
		return &CompiledProduct{inner: c, nq: 1, mask: mask, maskW: c.w}, nil
	}
	return nil, fmt.Errorf("query: cannot run %T as a product (want *Compiled or *CompiledN)", q)
}

// CompileProduct compiles a cluster of member queries over one shared
// alphabet into a single CompiledProduct.  All members must be the same
// compiled form: *Compiled members yield the deterministic tuple product,
// *CompiledN members the jointly-stepped union.  budget caps the product's
// state count (≤ 0 means the serialization limit); exceeding it returns
// ErrStateBudget, the signal the planner downgrades on.  Member verdicts are
// preserved exactly: bit j of the runner's verdict mask always equals what
// members[j]'s own runner would report on the same stream.
func CompileProduct(members []Query, budget int) (*CompiledProduct, error) {
	if len(members) == 0 {
		return nil, errors.New("query: product of zero queries")
	}
	if len(members) > maxStates {
		return nil, fmt.Errorf("query: product of %d queries exceeds %d", len(members), maxStates)
	}
	if budget <= 0 || budget > maxStates {
		budget = maxStates
	}
	alpha := members[0].Alphabet()
	for i, m := range members[1:] {
		if !alpha.Equal(m.Alphabet()) {
			return nil, fmt.Errorf("query: product member %d uses alphabet %v, member 0 uses %v",
				i+1, m.Alphabet(), alpha)
		}
	}
	switch members[0].(type) {
	case *Compiled:
		ms := make([]*Compiled, len(members))
		for i, m := range members {
			c, ok := m.(*Compiled)
			if !ok {
				return nil, fmt.Errorf("query: product members mix compiled forms (member 0 is %T, member %d is %T)",
					members[0], i, m)
			}
			ms[i] = c
		}
		return compileDetProduct(ms, budget)
	case *CompiledN:
		ms := make([]*CompiledN, len(members))
		for i, m := range members {
			c, ok := m.(*CompiledN)
			if !ok {
				return nil, fmt.Errorf("query: product members mix compiled forms (member 0 is %T, member %d is %T)",
					members[0], i, m)
			}
			ms[i] = c
		}
		return compileJointProduct(ms, budget)
	}
	return nil, fmt.Errorf("query: cannot product-compile %T", members[0])
}

// --- deterministic tuple product ----------------------------------------

// detBuilder is the working state of the deterministic product construction:
// an interning table from packed member-state tuples to product state IDs,
// the list of tuples discovered so far, and the subset of them that can
// appear as hierarchical data on a return edge.
type detBuilder struct {
	ms     []*Compiled
	k      int // member count
	syms   int
	budget int
	err    error

	ids    map[string]int32
	tuples []int32 // flat: tuple of state id at [id*k : (id+1)*k]
	key    []byte  // scratch: packed little-endian tuple key
	isHier []bool
	hiers  []int32 // hier-capable ids in discovery order (start tuple first)

	lin, hier, tmp []int32 // scratch tuples
}

func (b *detBuilder) count() int { return len(b.tuples) / b.k }

func (b *detBuilder) tuple(id int32) []int32 {
	return b.tuples[int(id)*b.k : (int(id)+1)*b.k]
}

// intern returns the product state ID of a tuple, discovering it if new.  On
// budget overflow it records ErrStateBudget and returns 0; the caller's loop
// terminates via the err field.
func (b *detBuilder) intern(t []int32) int32 {
	if b.err != nil {
		return 0
	}
	b.key = b.key[:0]
	for _, q := range t {
		b.key = binary.LittleEndian.AppendUint32(b.key, uint32(q))
	}
	if id, ok := b.ids[string(b.key)]; ok {
		return id
	}
	if b.count() >= b.budget {
		b.err = ErrStateBudget
		return 0
	}
	id := int32(b.count())
	b.ids[string(b.key)] = id
	b.tuples = append(b.tuples, t...)
	b.isHier = append(b.isHier, false)
	return id
}

// markHier records that a tuple can appear as hierarchical data on a return
// edge (a call's hier target, or the start tuple standing in for −∞ on
// pending returns, Section 3.1).
func (b *detBuilder) markHier(id int32) {
	if b.err != nil || b.isHier[id] {
		return
	}
	b.isHier[id] = true
	b.hiers = append(b.hiers, id)
}

// pairRet interns the componentwise return targets of one (lin, hier) state
// pair across every symbol.
func (b *detBuilder) pairRet(d, h int32) {
	dt, ht := b.tuple(d), b.tuple(h)
	for sym := 0; sym < b.syms; sym++ {
		for j, m := range b.ms {
			b.tmp[j] = m.stepReturn(dt[j], ht[j], sym)
		}
		b.intern(b.tmp)
	}
}

// compileDetProduct runs the reachable-product construction: a worklist
// fixpoint that expands call and internal transitions componentwise per
// discovered tuple, and pairs every discovered tuple with every
// hier-capable tuple for the return relation (new states are paired with
// all known hiers, new hiers with all processed states, so each pair is
// covered exactly once).  A second pass rebuilds the componentwise targets
// into the dense/sparse Compiled tables and packs the per-state accept
// bitmask.
func compileDetProduct(ms []*Compiled, budget int) (*CompiledProduct, error) {
	k := len(ms)
	syms := ms[0].syms
	b := &detBuilder{
		ms:     ms,
		k:      k,
		syms:   syms,
		budget: budget,
		ids:    make(map[string]int32),
		lin:    make([]int32, k),
		hier:   make([]int32, k),
		tmp:    make([]int32, k),
	}

	// Seed: the start tuple (ID 0, hier-capable for pending returns) and
	// the all-dead tuple (the product's dead state; every componentwise
	// step out of it stays in it because member tables are dead-completed).
	for j, m := range ms {
		b.tmp[j] = m.start
	}
	startID := b.intern(b.tmp)
	b.markHier(startID)
	for j, m := range ms {
		b.tmp[j] = m.dead
	}
	deadID := b.intern(b.tmp)

	// Fixpoint: ps states have had their calls/internals expanded and been
	// paired (as lin) with hiers[0:current]; ph hiers have been paired with
	// states [0, ps).  Both inner loops grow the other's frontier, so the
	// outer loop runs until neither has work left.
	ps, ph := 0, 0
	for b.err == nil && (ps < b.count() || ph < len(b.hiers)) {
		for ps < b.count() && b.err == nil {
			d := int32(ps)
			ps++
			dt := b.tuple(d)
			for sym := 0; sym < syms; sym++ {
				for j, m := range ms {
					i := int(dt[j])*syms + sym
					b.lin[j] = m.callLin[i]
					b.hier[j] = m.callHier[i]
					b.tmp[j] = m.internT[i]
				}
				b.intern(b.lin)
				b.markHier(b.intern(b.hier))
				b.intern(b.tmp)
			}
			for hi := 0; hi < ph; hi++ {
				b.pairRet(d, b.hiers[hi])
			}
		}
		for ph < len(b.hiers) && b.err == nil {
			h := b.hiers[ph]
			ph++
			for d := 0; d < ps; d++ {
				b.pairRet(int32(d), h)
			}
		}
	}
	if b.err != nil {
		return nil, b.err
	}

	// Second pass: materialize the tables over the now-fixed state space.
	// Every componentwise target below was already interned by the fixpoint,
	// so intern only looks up.
	num := b.count()
	c := &Compiled{
		alpha:  ms[0].alpha,
		num:    num,
		syms:   syms,
		start:  startID,
		dead:   deadID,
		accept: make([]bool, num),
	}
	maskW := bitset.Words(k)
	mask := make([]uint64, num*maskW)
	for q := 0; q < num; q++ {
		t := b.tuple(int32(q))
		row := bitset.Slab(mask, q, maskW)
		for j, m := range ms {
			if m.accept[t[j]] {
				row.Set(j)
				c.accept[q] = true
			}
		}
	}
	c.callLin = make([]int32, num*syms)
	c.callHier = make([]int32, num*syms)
	c.internT = make([]int32, num*syms)
	for q := 0; q < num; q++ {
		t := b.tuple(int32(q))
		for sym := 0; sym < syms; sym++ {
			for j, m := range ms {
				i := int(t[j])*syms + sym
				b.lin[j] = m.callLin[i]
				b.hier[j] = m.callHier[i]
				b.tmp[j] = m.internT[i]
			}
			i := q*syms + sym
			c.callLin[i] = b.intern(b.lin)
			c.callHier[i] = b.intern(b.hier)
			c.internT[i] = b.intern(b.tmp)
		}
	}
	// Return table: only (lin ∈ states, hier ∈ hier-capable) pairs can occur
	// at run time (the runner's hier is either a pushed call target or the
	// start state), so all other rows stay at the dead prefill.
	if size := num * num * syms; size <= denseReturnLimit {
		c.dense = true
		c.returnT = filled(size, c.dead)
		for q := 0; q < num; q++ {
			for _, h := range b.hiers {
				ht := b.tuple(h)
				t := b.tuple(int32(q))
				for sym := 0; sym < syms; sym++ {
					for j, m := range ms {
						b.tmp[j] = m.stepReturn(t[j], ht[j], sym)
					}
					c.returnT[(q*num+int(h))*syms+sym] = b.intern(b.tmp)
				}
			}
		}
	} else {
		var entries []sparseEntry
		for q := 0; q < num; q++ {
			for _, h := range b.hiers {
				ht := b.tuple(h)
				t := b.tuple(int32(q))
				for sym := 0; sym < syms; sym++ {
					for j, m := range ms {
						b.tmp[j] = m.stepReturn(t[j], ht[j], sym)
					}
					if to := b.intern(b.tmp); to != deadID {
						entries = append(entries, sparseEntry{c.returnKey(int32(q), h, sym), to})
					}
				}
			}
		}
		c.sparseR = buildSparse(entries)
	}
	if b.err != nil {
		// Unreachable unless the fixpoint missed a pair; surface rather
		// than ship a table with dangling targets.
		return nil, b.err
	}
	return &CompiledProduct{inner: c, nq: k, mask: mask, maskW: maskW}, nil
}

// --- jointly-stepped nondeterministic union ------------------------------

// compileJointProduct concatenates the members' state spaces into one
// CompiledN — member j's states shifted by the block base — and packs each
// member's accepting states into one bitmask row, so a single bitset runner
// answers all members and Verdicts is one Intersects per member.
func compileJointProduct(ms []*CompiledN, budget int) (*CompiledProduct, error) {
	k := len(ms)
	syms := ms[0].syms
	num := 0
	bases := make([]int32, k)
	for j, m := range ms {
		bases[j] = int32(num)
		num += m.num
	}
	if num > budget {
		return nil, ErrStateBudget
	}

	u := &CompiledN{
		alpha:  ms[0].alpha,
		num:    num,
		syms:   syms,
		accept: make([]bool, num),
	}
	for j, m := range ms {
		base := bases[j]
		for _, q := range m.starts {
			u.starts = append(u.starts, base+q)
		}
		copy(u.accept[base:], m.accept)
	}

	// Call and internal adjacency: member CSR spans concatenate directly,
	// because the union index (base+q)*syms+sym enumerates in exactly the
	// member-major, state-major, symbol-major order we iterate in.
	u.callOff = make([]int32, num*syms+1)
	u.intOff = make([]int32, num*syms+1)
	i := 0
	for j, m := range ms {
		base := bases[j]
		for q := 0; q < m.num; q++ {
			for sym := 0; sym < syms; sym++ {
				lins, hiers := m.callSucc(q, sym)
				for t := range lins {
					u.callLin = append(u.callLin, base+lins[t])
					u.callHier = append(u.callHier, base+hiers[t])
				}
				for _, to := range m.internalSucc(q, sym) {
					u.intTo = append(u.intTo, base+to)
				}
				i++
				u.callOff[i] = int32(len(u.callLin))
				u.intOff[i] = int32(len(u.intTo))
			}
		}
	}

	// Return adjacency over the union's quadratic index.  Cross-block
	// (lin, hier) pairs simply have no entries, which is what makes the
	// union's pending-return stitch (over all union starts) coincide with
	// each member's own stitch.
	if size := num * num * syms; size <= denseReturnLimit {
		u.dense = true
		retCount := make([]int32, size)
		for j, m := range ms {
			base := int(bases[j])
			m.eachReturn(func(lin, hier int32, sym int, _ int32) {
				retCount[((int(lin)+base)*num+int(hier)+base)*syms+sym]++
			})
		}
		u.retOff = prefixSums(retCount)
		u.retTo = make([]int32, u.retOff[len(u.retOff)-1])
		retFill := make([]int32, size)
		for j, m := range ms {
			base := int(bases[j])
			m.eachReturn(func(lin, hier int32, sym int, to int32) {
				idx := ((int(lin)+base)*num + int(hier) + base) * syms
				idx += sym
				u.retTo[u.retOff[idx]+retFill[idx]] = int32(base) + to
				retFill[idx]++
			})
		}
	} else {
		var entries []sparseEntry
		for j, m := range ms {
			base := int(bases[j])
			m.eachReturn(func(lin, hier int32, sym int, to int32) {
				key := uint64(((int(lin)+base)*num + int(hier) + base) * syms)
				key += uint64(sym)
				entries = append(entries, sparseEntry{key, int32(base) + to})
			})
		}
		u.retKeys, u.retSpan, u.retTo = buildReturnSpans(entries)
	}

	// Bitset layout: the per-symbol successor masks, the start/accept rows,
	// and the per-member accept-mask slab all share the union width.
	u.w = bitset.Words(num)
	u.packRows()
	u.intMask = make([]uint64, syms*num*u.w)
	u.callMask = make([]uint64, syms*num*u.w)
	mask := make([]uint64, k*u.w)
	for j, m := range ms {
		base := int(bases[j])
		row := bitset.Slab(mask, j, u.w)
		for q := 0; q < m.num; q++ {
			if m.accept[q] {
				row.Set(base + q)
			}
			for sym := 0; sym < syms; sym++ {
				for _, to := range m.internalSucc(q, sym) {
					u.maskRow(u.intMask, sym, base+q).Set(base + int(to))
				}
				lins, _ := m.callSucc(q, sym)
				for _, lin := range lins {
					u.maskRow(u.callMask, sym, base+q).Set(base + int(lin))
				}
			}
		}
	}
	return &CompiledProduct{inner: u, nq: k, mask: mask, maskW: u.w}, nil
}

// --- runners -------------------------------------------------------------

// detProductRunner is the single-query dnwaRunner stepping the product's
// shared automaton — two or three indexed loads per event — plus a Verdicts
// that reads all member verdicts off the current state's accept-mask row.
type detProductRunner struct {
	dnwaRunner
	p *CompiledProduct
}

//nwvet:hotpath
func (r *detProductRunner) Verdicts(dst bitset.Row) {
	dst.Zero()
	dst.Or(bitset.Slab(r.p.mask, int(r.state), r.p.maskW))
}

// jointProductRunner is the bitset state-set runner stepping the member
// union, plus a Verdicts where verdict j is "does the reachable set meet
// member j's accepting states" — one Intersects sweep per member.
type jointProductRunner struct {
	*nnwaBitsetRunner
	p *CompiledProduct
}

//nwvet:hotpath
func (j *jointProductRunner) Verdicts(dst bitset.Row) {
	dst.Zero()
	for q := 0; q < j.p.nq; q++ {
		if j.R.Intersects(bitset.Slab(j.p.mask, q, j.p.maskW)) {
			dst.Set(q)
		}
	}
}
