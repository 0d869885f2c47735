package query

import (
	"sort"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// This file is the compiled half of the package: it turns the map-backed
// automata of the nwa package into immutable, index-addressed tables that the
// engine's hot loop can step through without hashing a single string.
//
// Symbol IDs.  A compiled automaton over an alphabet Σ uses the dense symbol
// IDs 0..|Σ|-1 of the alphabet package, plus one extra dedicated ID |Σ| — the
// out-of-alphabet ID returned by SymID for labels the queries have never
// heard of.  Every transition table has |Σ|+1 columns and the out-of-alphabet
// column is entirely dead (respectively empty), so an unknown label is
// handled by exactly the same indexed load as a known one: no branch, no
// warning path, no special case.  Tokenizers intern labels to these IDs once
// at the edge (docstream.NewInterningTokenizer), so N fanned-out queries pay
// one map lookup per event in total instead of one per event per query.
//
// Dense vs sparse.  Call and internal transitions always live in flat dense
// slices indexed by state*numSymbols+sym: their size is linear in the number
// of states.  Return transitions are indexed by (lin*numStates+hier) — a
// table quadratic in the number of states — so they are stored densely only
// while numStates²·numSymbols stays at or below denseReturnLimit entries;
// above the threshold the defined transitions are kept in a key-sorted
// sparse table probed by binary search, and absent keys fall back to the
// dead state exactly as the dense form's prefilled entries do.

// Runner is the streaming face of a compiled query: one Step call per
// document event, with the symbol already interned to a compiled ID
// (SymID / docstream interning).  A Runner owns its stack of hierarchical
// data, so the caller only dispatches on the event kind.  Runners are not
// safe for concurrent use; create one per concurrent pass.
type Runner interface {
	// StepCall consumes an element-open event.
	StepCall(sym int)
	// StepInternal consumes a text event.
	StepInternal(sym int)
	// StepReturn consumes an element-close event.  On an empty stack the
	// event is a pending return: the hierarchical edge comes from −∞ and is
	// labelled with the initial state(s), as in Section 3.1.
	StepReturn(sym int)
	// Accepting reports whether the stream consumed so far, viewed as a
	// complete nested word, is accepted.
	Accepting() bool
	// Reset returns the runner to the start of a new document, keeping its
	// allocations.
	Reset()
}

// Query is what the engine registers: any compiled automaton — deterministic
// or nondeterministic — that can mint fresh runners over a fixed alphabet.
type Query interface {
	// Alphabet returns the alphabet the compiled symbol IDs refer to.
	Alphabet() *alphabet.Alphabet
	// NewRunner returns a fresh runner positioned at the document start.
	NewRunner() Runner
}

// denseReturnLimit is the largest dense return table Compile, CompileN and
// CompileProduct will allocate, in entries (int32 each, so the default caps
// the table at 16 MiB).  Automata whose numStates²·(|Σ|+1) exceeds it get
// the sparse sorted-lookup form instead.  A variable rather than a constant
// so tests can force the sparse path on small automata.
var denseReturnLimit = 1 << 22

// DenseStates returns the largest state count n whose return table over
// alpha is stored densely: n²·(|Σ|+1) ≤ denseReturnLimit.  Compile,
// CompileN and CompileProduct all store returns densely exactly up to this
// count; one state more and every return becomes a binary search.
func DenseStates(alpha *alphabet.Alphabet) int {
	syms := alpha.Size() + 1
	n := 0
	for (n+1)*(n+1)*syms <= denseReturnLimit {
		n++
	}
	return n
}

// sparseTable maps packed transition keys to targets via binary search over
// a sorted key slice — the compiled fallback for return tables too large to
// store densely.
type sparseTable struct {
	keys []uint64
	vals []int32
}

func (t *sparseTable) lookup(key uint64) (int32, bool) {
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
	if i < len(t.keys) && t.keys[i] == key {
		return t.vals[i], true
	}
	return 0, false
}

// Compiled is an immutable compiled deterministic NWA.  It implements Query;
// its runners step with two or three indexed loads per event and no
// allocation beyond amortized stack growth.
type Compiled struct {
	alpha  *alphabet.Alphabet
	num    int // states, including the dead state
	syms   int // alphabet size + 1 (the out-of-alphabet column)
	start  int32
	dead   int32
	accept []bool

	callLin  []int32 // num*syms, dead-completed
	callHier []int32 // num*syms
	internT  []int32 // num*syms

	dense   bool
	returnT []int32     // dense form: num*num*syms, index (lin*num+hier)*syms+sym
	sparseR sparseTable // sparse form: defined return transitions only

	// fmtVersion is the container version this automaton was decoded from
	// (0 for a freshly compiled one).  Marshal re-emits it, so a decoded
	// container round-trips byte-identically across format versions.
	fmtVersion uint32
}

// Compile flattens a deterministic NWA into its compiled form.  The source
// automaton is not retained; compiled automata are immutable and safe for
// concurrent use.
func Compile(d *nwa.DNWA) *Compiled {
	alpha := d.Alphabet()
	num := d.NumStates()
	syms := alpha.Size() + 1
	c := &Compiled{
		alpha:  alpha,
		num:    num,
		syms:   syms,
		start:  int32(d.Start()),
		dead:   int32(d.Dead()),
		accept: make([]bool, num),
	}
	for q := 0; q < num; q++ {
		c.accept[q] = d.IsAccepting(q)
	}
	c.callLin = filled(num*syms, c.dead)
	c.callHier = filled(num*syms, c.dead)
	c.internT = filled(num*syms, c.dead)
	d.EachCall(func(state, sym, linear, hier int) {
		i := state*syms + sym
		c.callLin[i] = int32(linear)
		c.callHier[i] = int32(hier)
	})
	d.EachInternal(func(state, sym, to int) {
		c.internT[state*syms+sym] = int32(to)
	})
	if size := num * num * syms; size <= denseReturnLimit {
		c.dense = true
		c.returnT = filled(size, c.dead)
		d.EachReturn(func(lin, hier, sym, to int) {
			c.returnT[(lin*num+hier)*syms+sym] = int32(to)
		})
	} else {
		entries := make([]sparseEntry, 0, d.NumReturnTransitions())
		d.EachReturn(func(lin, hier, sym, to int) {
			entries = append(entries, sparseEntry{c.returnKey(int32(lin), int32(hier), sym), int32(to)})
		})
		c.sparseR = buildSparse(entries)
	}
	return c
}

type sparseEntry struct {
	key uint64
	val int32
}

func buildSparse(entries []sparseEntry) sparseTable {
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	t := sparseTable{
		keys: make([]uint64, len(entries)),
		vals: make([]int32, len(entries)),
	}
	for i, e := range entries {
		t.keys[i] = e.key
		t.vals[i] = e.val
	}
	return t
}

func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func (c *Compiled) returnKey(lin, hier int32, sym int) uint64 {
	return uint64((int(lin)*c.num+int(hier))*c.syms + sym)
}

// Alphabet returns the alphabet the compiled symbol IDs refer to.
func (c *Compiled) Alphabet() *alphabet.Alphabet { return c.alpha }

// NumStates returns the number of states, including the dead state.
func (c *Compiled) NumStates() int { return c.num }

// Dense reports whether the return table is stored densely (it is sparse
// above the size threshold described in the package documentation).
func (c *Compiled) Dense() bool { return c.dense }

// OutOfAlphabet returns the dedicated symbol ID assigned to labels outside
// the alphabet; it equals Alphabet().Size().
func (c *Compiled) OutOfAlphabet() int { return c.syms - 1 }

// SymID interns a label: its alphabet index, or the out-of-alphabet ID.
func (c *Compiled) SymID(label string) int {
	if i, ok := c.alpha.Index(label); ok {
		return i
	}
	return c.syms - 1
}

// clampSym folds any ID outside the compiled range onto the out-of-alphabet
// column, so a Runner fed a stray ID behaves like one fed an unknown label.
func clampSym(sym, syms int) int {
	if uint(sym) >= uint(syms) {
		return syms - 1
	}
	return sym
}

func (c *Compiled) stepReturn(lin, hier int32, sym int) int32 {
	if c.dense {
		return c.returnT[(int(lin)*c.num+int(hier))*c.syms+sym]
	}
	if v, ok := c.sparseR.lookup(c.returnKey(lin, hier, sym)); ok {
		return v
	}
	return c.dead
}

// NewRunner returns a fresh deterministic runner.
func (c *Compiled) NewRunner() Runner {
	return &dnwaRunner{c: c, state: c.start}
}

// Accepts runs the compiled automaton over a nested word, interning each
// symbol on the fly.  It is the batch counterpart of NewRunner and agrees
// with the source DNWA's Accepts on every word.
func (c *Compiled) Accepts(n *nestedword.NestedWord) bool {
	r := c.NewRunner()
	return RunWord(r, c.alpha, n)
}

// dnwaRunner is the compiled deterministic runner: a linear state plus one
// hierarchical state per open element.  Every step is a slice load (or a
// binary search in the sparse form); nothing allocates once the stack has
// grown to the document depth.
type dnwaRunner struct {
	c     *Compiled
	state int32
	stack []int32
}

//nwvet:hotpath
func (r *dnwaRunner) StepCall(sym int) {
	c := r.c
	i := int(r.state)*c.syms + clampSym(sym, c.syms)
	r.stack = append(r.stack, c.callHier[i])
	r.state = c.callLin[i]
}

//nwvet:hotpath
func (r *dnwaRunner) StepInternal(sym int) {
	c := r.c
	r.state = c.internT[int(r.state)*c.syms+clampSym(sym, c.syms)]
}

//nwvet:hotpath
func (r *dnwaRunner) StepReturn(sym int) {
	hier := r.c.start
	if n := len(r.stack); n > 0 {
		hier = r.stack[n-1]
		r.stack = r.stack[:n-1]
	}
	r.state = r.c.stepReturn(r.state, hier, clampSym(sym, r.c.syms))
}

// StepEvents consumes a batch of interned events (Sym-1 is the compiled
// symbol ID, clamped like the Step methods').  It is the three Step
// methods fused into one loop with the state, stack and tables in locals,
// so a batch costs one call instead of one per event.
//
//nwvet:hotpath
func (r *dnwaRunner) StepEvents(evs []docstream.Event) {
	c := r.c
	syms, num, dense := c.syms, c.num, c.dense
	callLin, callHier, internT, returnT := c.callLin, c.callHier, c.internT, c.returnT
	state, stack := r.state, r.stack
	for i := range evs {
		sym := evs[i].Sym - 1
		if uint(sym) >= uint(syms) {
			sym = syms - 1
		}
		switch evs[i].Kind {
		case nestedword.Call:
			j := int(state)*syms + sym
			stack = append(stack, callHier[j])
			state = callLin[j]
		case nestedword.Return:
			hier := c.start
			if n := len(stack); n > 0 {
				hier = stack[n-1]
				stack = stack[:n-1]
			}
			if dense {
				state = returnT[(int(state)*num+int(hier))*syms+sym]
			} else {
				state = c.stepReturn(state, hier, sym)
			}
		default:
			state = internT[int(state)*syms+sym]
		}
	}
	r.state, r.stack = state, stack
}

//nwvet:hotpath
func (r *dnwaRunner) Accepting() bool { return r.c.accept[r.state] }

func (r *dnwaRunner) Reset() {
	r.state = r.c.start
	r.stack = r.stack[:0]
}

// RunWord drives a runner over a whole nested word, interning every symbol
// against alpha, and reports acceptance.  The runner is reset first, so it
// can be reused across calls.
func RunWord(r Runner, alpha *alphabet.Alphabet, n *nestedword.NestedWord) bool {
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
	return r.Accepting()
}
