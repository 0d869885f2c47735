package query

import (
	"sort"

	"repro/internal/alphabet"
	"repro/internal/bitset"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// CompiledN is an immutable compiled nondeterministic NWA.  Its transition
// relations are stored twice, for two different access patterns:
//
//   - prefix-offset adjacency (CSR) tables indexed by state*numSymbols+sym —
//     the relational analogue of the Compiled dense slices, with the
//     quadratic return index subject to the same dense/sparse threshold —
//     used wherever individual successors must be enumerated (the return
//     stitch, the reference runner);
//   - per-symbol successor bitmasks: for every (sym, state) pair one
//     bitset row of ⌈num/64⌉ uint64 words holding the internal successors
//     (intMask) and the linear call successors (callMask), so advancing a
//     whole state set through a symbol is a word-parallel Gather instead of
//     a per-successor branch.
//
// CompiledN implements Query, so the engine fans its runners out next to
// deterministic ones; the runners simulate the automaton on line with the
// subset-of-pairs construction of Section 3.2, keeping one summary set per
// stack frame.  NewRunner returns the bitset runner; the older []bool
// matrix runner is kept behind NewReferenceRunner as the
// differential-testing oracle and the E24 baseline.
type CompiledN struct {
	alpha  *alphabet.Alphabet
	num    int
	syms   int // alphabet size + 1 (the out-of-alphabet column)
	starts []int32
	accept []bool

	// Call and internal adjacency, indexed q*syms+sym.
	callOff  []int32
	callLin  []int32
	callHier []int32
	intOff   []int32
	intTo    []int32

	// Return adjacency over the quadratic index (lin*num+hier)*syms+sym:
	// dense prefix offsets below the threshold, sorted key spans above it.
	dense   bool
	retOff  []int32
	retTo   []int32
	retKeys []uint64 // sparse: sorted packed keys
	retSpan []int32  // sparse: len(retKeys)+1 prefix offsets into retTo

	// Bitset layout: w words per row; per-symbol successor masks are flat
	// num-row tables sliced at (sym*num+q)*w, so one symbol's table is
	// contiguous and Gather walks it in order.
	w         int
	startRow  bitset.Row
	acceptRow bitset.Row
	intMask   []uint64 // syms*num rows: internal successors of q on sym
	callMask  []uint64 // syms*num rows: linear call successors of q on sym

	// fmtVersion is the container version this automaton was decoded from
	// (0 for a freshly compiled one); Marshal re-emits it.
	fmtVersion uint32
}

// CompileN flattens a nondeterministic NWA into its compiled form.  Like
// Compile, the result is immutable and safe for concurrent use.
func CompileN(n *nwa.NNWA) *CompiledN {
	alpha := n.Alphabet()
	num := n.NumStates()
	syms := alpha.Size() + 1
	c := &CompiledN{
		alpha:  alpha,
		num:    num,
		syms:   syms,
		accept: make([]bool, num),
	}
	for _, q := range n.StartStates() {
		c.starts = append(c.starts, int32(q))
	}
	for q := 0; q < num; q++ {
		c.accept[q] = n.IsAccepting(q)
	}

	// Call adjacency.
	callCount := make([]int32, num*syms)
	n.EachCall(func(state, sym, _, _ int) { callCount[state*syms+sym]++ })
	c.callOff = prefixSums(callCount)
	c.callLin = make([]int32, c.callOff[len(c.callOff)-1])
	c.callHier = make([]int32, len(c.callLin))
	fill := make([]int32, num*syms)
	n.EachCall(func(state, sym, linear, hier int) {
		i := state*syms + sym
		at := c.callOff[i] + fill[i]
		fill[i]++
		c.callLin[at] = int32(linear)
		c.callHier[at] = int32(hier)
	})

	// Internal adjacency.
	intCount := make([]int32, num*syms)
	n.EachInternal(func(state, sym, _ int) { intCount[state*syms+sym]++ })
	c.intOff = prefixSums(intCount)
	c.intTo = make([]int32, c.intOff[len(c.intOff)-1])
	for i := range fill {
		fill[i] = 0
	}
	n.EachInternal(func(state, sym, to int) {
		i := state*syms + sym
		c.intTo[c.intOff[i]+fill[i]] = int32(to)
		fill[i]++
	})

	// Return adjacency.
	if size := num * num * syms; size <= denseReturnLimit {
		c.dense = true
		retCount := make([]int32, size)
		n.EachReturn(func(lin, hier, sym, _ int) {
			retCount[(lin*num+hier)*syms+sym]++
		})
		c.retOff = prefixSums(retCount)
		c.retTo = make([]int32, c.retOff[len(c.retOff)-1])
		retFill := make([]int32, size)
		n.EachReturn(func(lin, hier, sym, to int) {
			i := (lin*num+hier)*syms + sym
			c.retTo[c.retOff[i]+retFill[i]] = int32(to)
			retFill[i]++
		})
	} else {
		entries := make([]sparseEntry, 0, n.NumReturnTransitions())
		n.EachReturn(func(lin, hier, sym, to int) {
			key := uint64((lin*num+hier)*syms + sym)
			entries = append(entries, sparseEntry{key, int32(to)})
		})
		c.retKeys, c.retSpan, c.retTo = buildReturnSpans(entries)
	}

	// Per-symbol successor bitmasks, precomputed once so every runner's
	// internal and call steps are pure Gather sweeps.
	c.w = bitset.Words(num)
	c.packRows()
	c.intMask = make([]uint64, syms*num*c.w)
	c.callMask = make([]uint64, syms*num*c.w)
	n.EachInternal(func(state, sym, to int) {
		c.maskRow(c.intMask, sym, state).Set(to)
	})
	n.EachCall(func(state, sym, linear, _ int) {
		c.maskRow(c.callMask, sym, state).Set(linear)
	})
	return c
}

// maskRow slices one state's successor row out of a per-symbol mask table.
func (c *CompiledN) maskRow(table []uint64, sym, q int) bitset.Row {
	return bitset.Slab(table, sym*c.num+q, c.w)
}

// symTable slices one symbol's whole num-row mask table, in the flat layout
// bitset.Gather expects.
func (c *CompiledN) symTable(table []uint64, sym int) []uint64 {
	return table[sym*c.num*c.w : (sym+1)*c.num*c.w]
}

func prefixSums(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// buildReturnSpans sorts sparse return entries and packs them into the
// deduplicated keys / prefix-span / targets triple of the CompiledN sparse
// form.  Shared by CompileN and the product union builder.
func buildReturnSpans(entries []sparseEntry) (keys []uint64, span, to []int32) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	to = make([]int32, len(entries))
	for i, e := range entries {
		if len(keys) == 0 || keys[len(keys)-1] != e.key {
			keys = append(keys, e.key)
			span = append(span, int32(i))
		}
		to[i] = e.val
	}
	span = append(span, int32(len(entries)))
	return keys, span, to
}

// packRows builds the start and accept rows from the starts list and the
// accept table — shared by CompileN, the product union builder, and the
// decode path, which calls it only once the validator has checked every
// start state against num.
func (c *CompiledN) packRows() {
	c.startRow, c.acceptRow = packStateRow(c.num, c.starts), packAcceptRow(c.accept)
}

// packStateRow packs a list of state IDs into a fresh bitset row over num
// states.
func packStateRow(num int, states []int32) bitset.Row {
	r := bitset.New(num)
	for _, q := range states {
		r.Set(int(q))
	}
	return r
}

// packAcceptRow packs a []bool accept vector into a fresh bitset row.
func packAcceptRow(accept []bool) bitset.Row {
	r := bitset.New(len(accept))
	for q, ok := range accept {
		if ok {
			r.Set(q)
		}
	}
	return r
}

// eachReturn enumerates every return transition with its target — the
// relational analogue of EachReturn on the source automaton, reconstructed
// from whichever adjacency form the table is stored in.  The product union
// builder re-keys these edges into the concatenated state space.
func (c *CompiledN) eachReturn(f func(lin, hier int32, sym int, to int32)) {
	if c.dense {
		for idx := 0; idx < c.num*c.num*c.syms; idx++ {
			for _, to := range c.retTo[c.retOff[idx]:c.retOff[idx+1]] {
				rest := idx / c.syms
				f(int32(rest/c.num), int32(rest%c.num), idx%c.syms, to)
			}
		}
		return
	}
	for i, key := range c.retKeys {
		idx := int(key)
		rest := idx / c.syms
		for _, to := range c.retTo[c.retSpan[i]:c.retSpan[i+1]] {
			f(int32(rest/c.num), int32(rest%c.num), idx%c.syms, to)
		}
	}
}

// Alphabet returns the alphabet the compiled symbol IDs refer to.
func (c *CompiledN) Alphabet() *alphabet.Alphabet { return c.alpha }

// NumStates returns the number of states.
func (c *CompiledN) NumStates() int { return c.num }

// Dense reports whether the return adjacency is indexed densely.
func (c *CompiledN) Dense() bool { return c.dense }

// OutOfAlphabet returns the dedicated out-of-alphabet symbol ID.
func (c *CompiledN) OutOfAlphabet() int { return c.syms - 1 }

func (c *CompiledN) callSucc(q, sym int) (lin, hier []int32) {
	i := q*c.syms + sym
	return c.callLin[c.callOff[i]:c.callOff[i+1]], c.callHier[c.callOff[i]:c.callOff[i+1]]
}

func (c *CompiledN) internalSucc(q, sym int) []int32 {
	i := q*c.syms + sym
	return c.intTo[c.intOff[i]:c.intOff[i+1]]
}

func (c *CompiledN) returnSucc(lin, hier int32, sym int) []int32 {
	idx := (int(lin)*c.num+int(hier))*c.syms + sym
	if c.dense {
		return c.retTo[c.retOff[idx]:c.retOff[idx+1]]
	}
	key := uint64(idx)
	i := sort.Search(len(c.retKeys), func(i int) bool { return c.retKeys[i] >= key })
	if i < len(c.retKeys) && c.retKeys[i] == key {
		return c.retTo[c.retSpan[i]:c.retSpan[i+1]]
	}
	return nil
}

// NewRunner returns a fresh nondeterministic state-set runner, the bitset
// implementation.
func (c *CompiledN) NewRunner() Runner { return c.newBitsetRunner() }

// newBitsetRunner mints the concrete bitset runner; split from NewRunner so
// the product layer's joint runner can hold it without the interface hop.
func (c *CompiledN) newBitsetRunner() *nnwaBitsetRunner {
	r := &nnwaBitsetRunner{c: c, w: c.w}
	r.S = make([]uint64, c.num*c.w)
	r.R = bitset.New(c.num)
	r.T = make([]uint64, c.num*c.w)
	r.sel = bitset.New(c.num)
	r.Reset()
	return r
}

// NewReferenceRunner returns the []bool matrix implementation of the
// state-set runner.  It computes exactly the same summary and reachable
// sets as NewRunner one boolean at a time; it exists as the oracle for the
// differential tests and fuzz targets and as the baseline side of
// experiment E24, not for production use.
func (c *CompiledN) NewReferenceRunner() Runner {
	r := &nnwaMatrixRunner{c: c}
	r.S = make([]bool, c.num*c.num)
	r.R = make([]bool, c.num)
	r.Reset()
	return r
}

// Accepts runs the compiled automaton over a nested word, interning each
// symbol on the fly; it agrees with the source NNWA's Accepts.
func (c *CompiledN) Accepts(n *nestedword.NestedWord) bool {
	return RunWord(c.NewRunner(), c.alpha, n)
}

// --- bitset state-set runner -------------------------------------------
//
// The runner keeps the Section 3.2 subset-of-pairs simulation in packed
// rows: S is num rows of w = ⌈num/64⌉ uint64 words (row `from` holding the
// set of states q′ with a summary run from → q′ since the innermost pending
// call) and R is one w-word row (the states reachable from a start state
// over the whole prefix).  Each step is then a composition
//
//	S′[from] = ⋃_{mid ∈ S[from]} rows[mid]
//
// where rows is a precomputed per-symbol mask table (internal step) or a
// per-event table T stitched from the call/return adjacency (return step) —
// one bitset.Gather per live row, 64 states per OR.

// nnwaBitsetFrame is what the runner keeps per open element: the packed
// summary and reachable sets as they stood just before the call, plus the
// call symbol — the data the subset-of-pairs determinization propagates
// along a hierarchical edge.
type nnwaBitsetFrame struct {
	S   []uint64   // num rows × w words of summary pairs
	R   bitset.Row // reachable set
	sym int        // interned call symbol
}

// nnwaBitsetRunner is the production nondeterministic runner.  Memory is
// O(num·⌈num/64⌉ words · depth) — 64× fewer bits than the matrix form's
// num² bools per frame — and popped frames are recycled through a free
// list, so steady-state streaming does not allocate per element.
type nnwaBitsetRunner struct {
	c     *CompiledN
	w     int
	S     []uint64
	R     bitset.Row
	T     []uint64   // scratch: per-mid composed rows for the return stitch
	sel   bitset.Row // scratch: union of live mids for the return stitch
	stack []nnwaBitsetFrame
	free  []nnwaBitsetFrame
}

// fresh returns zeroed S and R buffers, reusing a recycled frame when one
// is available.
func (r *nnwaBitsetRunner) fresh() ([]uint64, bitset.Row) {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		clearWords(f.S)
		f.R.Zero()
		return f.S, f.R
	}
	return make([]uint64, r.c.num*r.w), bitset.New(r.c.num)
}

func (r *nnwaBitsetRunner) recycle(S []uint64, R bitset.Row) {
	r.free = append(r.free, nnwaBitsetFrame{S: S, R: R})
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// row slices row i of a num×w matrix.
func (r *nnwaBitsetRunner) row(m []uint64, i int) bitset.Row {
	return bitset.Slab(m, i, r.w)
}

// compose sets dst[from] = ⋃_{mid ∈ src[from]} rows[mid] for every from,
// skipping empty source rows.
func (r *nnwaBitsetRunner) compose(dst, src, rows []uint64) {
	for from := 0; from < r.c.num; from++ {
		srow := r.row(src, from)
		if !srow.Any() {
			continue
		}
		bitset.Gather(r.row(dst, from), srow, rows, r.w)
	}
}

//nwvet:hotpath
func (r *nnwaBitsetRunner) StepCall(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	below := nnwaBitsetFrame{S: r.S, R: r.R, sym: sym}
	r.stack = append(r.stack, below)
	S, R := r.fresh()
	// A new context opens: the summary resets to the identity and the
	// reachable set advances through the linear call successors.
	for q := 0; q < c.num; q++ {
		r.row(S, q).Set(q)
	}
	bitset.Gather(R, below.R, c.symTable(c.callMask, sym), r.w)
	r.S, r.R = S, R
}

//nwvet:hotpath
func (r *nnwaBitsetRunner) StepInternal(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	S, R := r.fresh()
	table := c.symTable(c.intMask, sym)
	r.compose(S, r.S, table)
	bitset.Gather(R, r.R, table, r.w)
	r.recycle(r.S, r.R)
	r.S, r.R = S, R
}

// stitch fills the scratch table T with the per-mid return rows for this
// event: T[mid] is the set of states some run reaches after the return when
// the pre-call stretch ended in mid.  Only the mids live in sel (the union
// of the source rows and reachable set) are built.  For a matched return
// the row composes call edge, inner summary, and return edge; for a pending
// return the hierarchical edge is labelled with the initial states, as in
// Section 3.1.
func (r *nnwaBitsetRunner) stitch(sel bitset.Row, matched bool, callSym, sym int) {
	c := r.c
	clearWords(r.T)
	for mid := sel.NextSet(0); mid >= 0; mid = sel.NextSet(mid + 1) {
		trow := r.row(r.T, mid)
		if matched {
			lins, hiers := c.callSucc(mid, callSym)
			for i, lin := range lins {
				hier := hiers[i]
				inner := r.row(r.S, int(lin))
				for to2 := inner.NextSet(0); to2 >= 0; to2 = inner.NextSet(to2 + 1) {
					for _, to := range c.returnSucc(int32(to2), hier, sym) {
						trow.Set(int(to))
					}
				}
			}
		} else {
			for _, q0 := range c.starts {
				for _, to := range c.returnSucc(int32(mid), q0, sym) {
					trow.Set(int(to))
				}
			}
		}
	}
}

//nwvet:hotpath
func (r *nnwaBitsetRunner) StepReturn(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	S, R := r.fresh()
	if n := len(r.stack); n == 0 {
		// Pending return: stitch from the current sets directly.
		r.liveMids(r.S, r.R)
		r.stitch(r.sel, false, 0, sym)
		r.compose(S, r.S, r.T)
		bitset.Gather(R, r.R, r.T, r.w)
	} else {
		below := r.stack[n-1]
		r.stack = r.stack[:n-1]
		// Matched return: stitch the context below the call to the summary
		// inside it through the call and return relations, then compose the
		// frame's sets through the stitched rows.
		r.liveMids(below.S, below.R)
		r.stitch(r.sel, true, below.sym, sym)
		r.compose(S, below.S, r.T)
		bitset.Gather(R, below.R, r.T, r.w)
		r.recycle(below.S, below.R)
	}
	r.recycle(r.S, r.R)
	r.S, r.R = S, R
}

// StepEvents consumes a batch of interned events (Sym-1 is the compiled
// symbol ID) through the Step methods, statically dispatched, so a batch
// costs one dynamic call instead of one per event.
//
//nwvet:hotpath
func (r *nnwaBitsetRunner) StepEvents(evs []docstream.Event) {
	for i := range evs {
		sym := evs[i].Sym - 1
		switch evs[i].Kind {
		case nestedword.Call:
			r.StepCall(sym)
		case nestedword.Return:
			r.StepReturn(sym)
		default:
			r.StepInternal(sym)
		}
	}
}

// liveMids collects into sel the union of every row of S plus R — the mids
// the return stitch can actually reach, so stitch skips dead states.
func (r *nnwaBitsetRunner) liveMids(S []uint64, R bitset.Row) {
	r.sel.Zero()
	for q := 0; q < r.c.num; q++ {
		r.sel.Or(r.row(S, q))
	}
	r.sel.Or(R)
}

//nwvet:hotpath
func (r *nnwaBitsetRunner) Accepting() bool {
	return r.R.Intersects(r.c.acceptRow)
}

func (r *nnwaBitsetRunner) Reset() {
	for n := len(r.stack); n > 0; n = len(r.stack) {
		f := r.stack[n-1]
		r.stack = r.stack[:n-1]
		r.recycle(f.S, f.R)
	}
	clearWords(r.S)
	r.R.Zero()
	for q := 0; q < r.c.num; q++ {
		r.row(r.S, q).Set(q)
	}
	r.R.Or(r.c.startRow)
}

// --- reference []bool matrix runner ------------------------------------

// nnwaMatrixFrame is the matrix runner's per-open-element snapshot: the
// summary and reachable sets as they stood just before the call, plus the
// call symbol.
type nnwaMatrixFrame struct {
	S   []bool // num×num summary pairs
	R   []bool // reachable set
	sym int    // interned call symbol
}

// nnwaMatrixRunner simulates a nondeterministic NWA on line with unpacked
// []bool sets.  S holds the summary pairs (q, q′) — some run moves the
// automaton from q to q′ across the stretch since the innermost pending
// call — and R the states reachable from an initial state over the whole
// prefix; each stack frame snapshots both sets at its call.  The memory is
// O(numStates² · depth), still bounded by the document depth, and popped
// frames are recycled through a free list.  It is the reference
// implementation the bitset runner is differentially tested against.
type nnwaMatrixRunner struct {
	c     *CompiledN
	S     []bool
	R     []bool
	stack []nnwaMatrixFrame
	free  []nnwaMatrixFrame
}

// fresh returns zeroed S and R buffers, reusing a recycled frame when one is
// available.
func (r *nnwaMatrixRunner) fresh() ([]bool, []bool) {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		clearBools(f.S)
		clearBools(f.R)
		return f.S, f.R
	}
	return make([]bool, r.c.num*r.c.num), make([]bool, r.c.num)
}

func (r *nnwaMatrixRunner) recycle(S, R []bool) {
	r.free = append(r.free, nnwaMatrixFrame{S: S, R: R})
}

func clearBools(b []bool) {
	for i := range b {
		b[i] = false
	}
}

func (r *nnwaMatrixRunner) StepCall(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	below := nnwaMatrixFrame{S: r.S, R: r.R, sym: sym}
	r.stack = append(r.stack, below)
	S, R := r.fresh()
	// A new context opens: the summary resets to the identity and the
	// reachable set advances through the linear call successors.
	for q := 0; q < c.num; q++ {
		S[q*c.num+q] = true
	}
	for q := 0; q < c.num; q++ {
		if !below.R[q] {
			continue
		}
		lins, _ := c.callSucc(q, sym)
		for _, lin := range lins {
			R[lin] = true
		}
	}
	r.S, r.R = S, R
}

func (r *nnwaMatrixRunner) StepInternal(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	S, R := r.fresh()
	num := c.num
	for from := 0; from < num; from++ {
		row := r.S[from*num : (from+1)*num]
		for mid, ok := range row {
			if !ok {
				continue
			}
			for _, to := range c.internalSucc(mid, sym) {
				S[from*num+int(to)] = true
			}
		}
	}
	for q := 0; q < num; q++ {
		if !r.R[q] {
			continue
		}
		for _, to := range c.internalSucc(q, sym) {
			R[to] = true
		}
	}
	r.recycle(r.S, r.R)
	r.S, r.R = S, R
}

func (r *nnwaMatrixRunner) StepReturn(sym int) {
	c := r.c
	sym = clampSym(sym, c.syms)
	num := c.num
	S, R := r.fresh()
	if n := len(r.stack); n == 0 {
		// Pending return: the hierarchical edge is labelled with an initial
		// state.
		for from := 0; from < num; from++ {
			row := r.S[from*num : (from+1)*num]
			for mid, ok := range row {
				if !ok {
					continue
				}
				for _, q0 := range c.starts {
					for _, to := range c.returnSucc(int32(mid), q0, sym) {
						S[from*num+int(to)] = true
					}
				}
			}
		}
		for q := 0; q < num; q++ {
			if !r.R[q] {
				continue
			}
			for _, q0 := range c.starts {
				for _, to := range c.returnSucc(int32(q), q0, sym) {
					R[to] = true
				}
			}
		}
	} else {
		below := r.stack[n-1]
		r.stack = r.stack[:n-1]
		// Matched return: stitch the context below the call to the summary
		// inside it through the call and return relations.
		for from := 0; from < num; from++ {
			row := below.S[from*num : (from+1)*num]
			for mid, ok := range row {
				if !ok {
					continue
				}
				lins, hiers := c.callSucc(mid, below.sym)
				for i, lin := range lins {
					inner := r.S[int(lin)*num : (int(lin)+1)*num]
					for to2, ok2 := range inner {
						if !ok2 {
							continue
						}
						for _, to := range c.returnSucc(int32(to2), hiers[i], sym) {
							S[from*num+int(to)] = true
						}
					}
				}
			}
		}
		for q := 0; q < num; q++ {
			if !below.R[q] {
				continue
			}
			lins, hiers := c.callSucc(q, below.sym)
			for i, lin := range lins {
				inner := r.S[int(lin)*num : (int(lin)+1)*num]
				for to2, ok2 := range inner {
					if !ok2 {
						continue
					}
					for _, to := range c.returnSucc(int32(to2), hiers[i], sym) {
						R[to] = true
					}
				}
			}
		}
		r.recycle(below.S, below.R)
	}
	r.recycle(r.S, r.R)
	r.S, r.R = S, R
}

func (r *nnwaMatrixRunner) Accepting() bool {
	for q := 0; q < r.c.num; q++ {
		if r.R[q] && r.c.accept[q] {
			return true
		}
	}
	return false
}

func (r *nnwaMatrixRunner) Reset() {
	for n := len(r.stack); n > 0; n = len(r.stack) {
		f := r.stack[n-1]
		r.stack = r.stack[:n-1]
		r.recycle(f.S, f.R)
	}
	clearBools(r.S)
	clearBools(r.R)
	for q := 0; q < r.c.num; q++ {
		r.S[q*r.c.num+q] = true
	}
	for _, q := range r.c.starts {
		r.R[q] = true
	}
}
