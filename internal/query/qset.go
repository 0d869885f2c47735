package query

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/bitset"
	"repro/internal/query/format"
)

// This file serializes the compiled automata: compiled tables are immutable
// and deterministic, so once a query set is compiled it can be written to
// disk as a versioned little-endian artifact and booted by any number of
// front-end processes without recompiling — the "compiled-query persistence"
// direction of the roadmap.  The container layout (header, section
// directory, 8-byte-aligned payloads) lives in the format subpackage; this
// file owns the section registry and the semantic validation.
//
// Three object kinds exist:
//
//   - a Compiled DNWA (format.KindDNWA): meta, alphabet, accept bytes, the
//     dense call/internal tables, and either the dense return table or the
//     sorted sparse key/value pair;
//   - a CompiledN NNWA (format.KindNNWA): meta, alphabet, starts, accept
//     bytes, the CSR call/internal/return adjacency, and the per-symbol
//     successor bitmask slabs;
//   - a Bundle (format.KindBundle): one shared alphabet, the query names,
//     and one embedded per-query blob (a full KindDNWA/KindNNWA container
//     minus its alphabet section) per query.
//
// Unmarshal* copy every table out of the input; LoadQueryMapped /
// LoadBundleMapped point the int32/uint64 table slices directly into the
// provided byte region via checked reinterpretation, and OpenBundle maps a
// file read-only (mmap where available) and loads zero-copy — the cold-boot
// path experiment E25 measures against parse+compile.
//
// Every decode path reads a container's sections into its struct and then
// runs that form's validator — (*Compiled).validate, (*CompiledN).validate,
// (*CompiledProduct).validate, and (*Bundle).checkCover for a bundle's demux
// table — before a runner can touch the tables: lengths against num/syms,
// targets against the state range, offsets monotonic, sparse keys strictly
// ascending inside the return index, mask bits beyond the state range
// clear, every bundle name answered exactly once.  nwtool vet runs the same
// validators, so there is one statement of each rule.  The decoder itself
// keeps only what a struct cannot express: section presence, meta lengths,
// meta values too large for their field, accept bytes other than 0/1, and
// the solo-index bound and repeat check a planned bundle needs before it
// fills a slot.  Arbitrary bytes fail with an error rather than a panic,
// and no allocation is sized by attacker-controlled fields beyond the input
// length.

// Section tags of the serialized compiled-query containers.  Tags are
// stable; new sections may be added in later versions but existing ones
// never change meaning.
const (
	secMeta     = 1  // uint64s: kind-specific dimensions and flags
	secAlphabet = 2  // string list: alphabet symbols in index order
	secAccept   = 3  // bytes: one 0/1 byte per state
	secCallLin  = 4  // int32s: linear call targets
	secCallHier = 5  // int32s: hierarchical call targets
	secInternal = 6  // int32s: internal targets (DNWA dense table)
	secReturnT  = 7  // int32s: DNWA dense return table
	secRetKeys  = 8  // uint64s: sparse return keys, strictly ascending
	secRetVals  = 9  // int32s: DNWA sparse return values
	secStarts   = 10 // int32s: NNWA start states
	secCallOff  = 11 // int32s: NNWA call CSR prefix offsets
	secIntOff   = 12 // int32s: NNWA internal CSR prefix offsets
	secIntTo    = 13 // int32s: NNWA internal CSR targets
	secRetOff   = 14 // int32s: NNWA dense return CSR prefix offsets
	secRetTo    = 15 // int32s: NNWA return CSR targets
	secRetSpan  = 16 // int32s: NNWA sparse return key spans
	secIntMask  = 17 // uint64s: NNWA per-symbol internal successor slab
	secCallMask = 18 // uint64s: NNWA per-symbol call successor slab
	secNames    = 19 // string list: bundle query names
	secQuery    = 20 // bytes: one embedded query container per bundle query

	// Product-compiled cluster sections (format.KindProduct, PR 9).
	secAcceptMask = 21 // uint64s: per-query accept bitmask slab
	secGroupIdx   = 22 // int32s: bundle indices the product's mask bits demux to
	secSolo       = 23 // int32s: bundle indices served by fanned-out secQuery blobs
	secProduct    = 24 // bytes: one embedded KindProduct container per cluster
)

// Decode limits: far beyond any automaton this repository compiles, but
// small enough that no validation product overflows and no runner index
// computation wraps.
const (
	maxStates  = 1 << 22
	maxSymbols = 1 << 20
)

// mul returns a*b, reporting overflow or a negative operand as !ok.
func mul(a, b int) (int, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b {
		return 0, false
	}
	return p, true
}

func boolBytes(v []bool) []byte {
	b := make([]byte, len(v))
	for i, x := range v {
		if x {
			b[i] = 1
		}
	}
	return b
}

// marshalVersion maps a decoded-from container version to the version
// Marshal should emit: a freshly built object (0) serializes as
// VersionHashed so every new artifact carries a content hash, while a
// decoded object re-emits the version it came from so golden v1 bytes
// round-trip byte-identically.
func marshalVersion(v uint32) uint32 {
	if v == 0 {
		return format.VersionHashed
	}
	return v
}

// Marshal serializes the compiled automaton, alphabet included, into a
// standalone KindDNWA container (hashed, unless decoded from a v1 one).
func (c *Compiled) Marshal() []byte { return c.encode(true, marshalVersion(c.fmtVersion)) }

func (c *Compiled) encode(includeAlpha bool, version uint32) []byte {
	w := format.NewWriter(format.KindDNWA)
	w.SetVersion(version)
	dense := uint64(0)
	if c.dense {
		dense = 1
	}
	w.Uint64s(secMeta, []uint64{uint64(c.num), uint64(c.syms), uint64(c.start), uint64(c.dead), dense})
	if includeAlpha {
		w.Strings(secAlphabet, c.alpha.Symbols())
	}
	w.Bytes(secAccept, boolBytes(c.accept))
	w.Int32s(secCallLin, c.callLin)
	w.Int32s(secCallHier, c.callHier)
	w.Int32s(secInternal, c.internT)
	if c.dense {
		w.Int32s(secReturnT, c.returnT)
	} else {
		w.Uint64s(secRetKeys, c.sparseR.keys)
		w.Int32s(secRetVals, c.sparseR.vals)
	}
	return w.Finish()
}

// Marshal serializes the compiled automaton, alphabet included, into a
// standalone KindNNWA container (hashed, unless decoded from a v1 one).
func (c *CompiledN) Marshal() []byte { return c.encode(true, marshalVersion(c.fmtVersion)) }

func (c *CompiledN) encode(includeAlpha bool, version uint32) []byte {
	w := format.NewWriter(format.KindNNWA)
	w.SetVersion(version)
	dense := uint64(0)
	if c.dense {
		dense = 1
	}
	w.Uint64s(secMeta, []uint64{uint64(c.num), uint64(c.syms), dense})
	if includeAlpha {
		w.Strings(secAlphabet, c.alpha.Symbols())
	}
	w.Int32s(secStarts, c.starts)
	w.Bytes(secAccept, boolBytes(c.accept))
	w.Int32s(secCallOff, c.callOff)
	w.Int32s(secCallLin, c.callLin)
	w.Int32s(secCallHier, c.callHier)
	w.Int32s(secIntOff, c.intOff)
	w.Int32s(secIntTo, c.intTo)
	if c.dense {
		w.Int32s(secRetOff, c.retOff)
	} else {
		w.Uint64s(secRetKeys, c.retKeys)
		w.Int32s(secRetSpan, c.retSpan)
	}
	w.Int32s(secRetTo, c.retTo)
	w.Uint64s(secIntMask, c.intMask)
	w.Uint64s(secCallMask, c.callMask)
	return w.Finish()
}

// decodeState holds what a single query decode needs: the parsed container,
// the alphabet (shared by a bundle, or read from the blob's own section),
// and whether table slices may alias the input bytes.
type decodeState struct {
	r        *format.Reader
	alpha    *alphabet.Alphabet
	zeroCopy bool
	err      error // first failure of readInt32s/readUint64s
}

func (d *decodeState) section(tag uint32, what string) ([]byte, error) {
	b, ok := d.r.Section(tag)
	if !ok {
		return nil, fmt.Errorf("query: serialized automaton is missing its %s section", what)
	}
	return b, nil
}

func (d *decodeState) int32s(tag uint32, what string) ([]int32, error) {
	b, err := d.section(tag, what)
	if err != nil {
		return nil, err
	}
	v, err := format.Int32s(b, d.zeroCopy)
	if err != nil {
		return nil, fmt.Errorf("query: %s section: %w", what, err)
	}
	return v, nil
}

// readInt32s reads an int32 section into dst unless an earlier read of the
// run failed; the first failure sticks in d.err.
func (d *decodeState) readInt32s(dst *[]int32, tag uint32, what string) {
	if d.err == nil {
		*dst, d.err = d.int32s(tag, what)
	}
}

// readUint64s is readInt32s for uint64 sections.
func (d *decodeState) readUint64s(dst *[]uint64, tag uint32, what string) {
	if d.err == nil {
		*dst, d.err = d.uint64s(tag, what)
	}
}

func (d *decodeState) uint64s(tag uint32, what string) ([]uint64, error) {
	b, err := d.section(tag, what)
	if err != nil {
		return nil, err
	}
	v, err := format.Uint64s(b, d.zeroCopy)
	if err != nil {
		return nil, fmt.Errorf("query: %s section: %w", what, err)
	}
	return v, nil
}

// loadAlphabet reads the container's own alphabet section when no shared
// alphabet was supplied.  Product containers call it before reading their
// embedded automaton, which shares it; the validators check its size
// against the symbol column count.
func (d *decodeState) loadAlphabet() error {
	if d.alpha != nil {
		return nil
	}
	b, err := d.section(secAlphabet, "alphabet")
	if err != nil {
		return err
	}
	symbols, err := format.Strings(b)
	if err != nil {
		return fmt.Errorf("query: alphabet section: %w", err)
	}
	d.alpha = alphabet.New(symbols...)
	if d.alpha.Size() != len(symbols) {
		return fmt.Errorf("query: serialized alphabet repeats a symbol (%d listed, %d distinct)",
			len(symbols), d.alpha.Size())
	}
	return nil
}

// decodeAccept reads the per-state accept bytes (always copied — []bool
// cannot alias arbitrary bytes safely).  Only 0 and 1 are bytes a []bool
// can hold; the count is the validator's to check.
func (d *decodeState) decodeAccept() ([]bool, error) {
	b, err := d.section(secAccept, "accept")
	if err != nil {
		return nil, err
	}
	accept := make([]bool, len(b))
	for i, x := range b {
		if x > 1 {
			return nil, fmt.Errorf("query: accept byte %d is %d, want 0 or 1", i, x)
		}
		accept[i] = x == 1
	}
	return accept, nil
}

// decodeMeta reads the meta section, which must hold at least n values, and
// refuses any of its first fields values that would not fit the int32-sized
// struct fields they fill.
func (d *decodeState) decodeMeta(what string, n, fields int) ([]uint64, error) {
	meta, err := d.uint64s(secMeta, "meta")
	if err != nil {
		return nil, err
	}
	if len(meta) < n {
		return nil, fmt.Errorf("query: %s meta section holds %d values, want %d", what, len(meta), n)
	}
	for i, v := range meta[:fields] {
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("query: %s meta value %d is %d, beyond its field", what, i, v)
		}
	}
	return meta, nil
}

// --- structural validation ----------------------------------------------
//
// Each compiled form has one validator, the single statement of what makes
// its tables a nested-word automaton in the sense of Section 3: transition
// functions total over num states and |Σ|+1 symbol columns, every call,
// internal and return target a state.  The decoder runs it on every loaded
// container and nwtool vet on every in-memory object, so a validator never
// panics on any struct contents: it checks each range and length before it
// indexes anything.

// checkAlphabet verifies the alphabet matches the symbol column count (the
// alphabet plus the out-of-alphabet column).
func checkAlphabet(alpha *alphabet.Alphabet, syms int) error {
	if alpha == nil {
		return fmt.Errorf("query: automaton has no alphabet")
	}
	if alpha.Size()+1 != syms {
		return fmt.Errorf("query: automaton compiled over %d symbols, alphabet has %d", syms-1, alpha.Size())
	}
	return nil
}

// checkDims verifies the state and symbol-column counts and returns the
// transition cell count num×syms.
func checkDims(num, syms int) (int, error) {
	if num < 1 || num > maxStates {
		return 0, fmt.Errorf("query: %d states outside [1, %d]", num, maxStates)
	}
	if syms < 1 || syms > maxSymbols {
		return 0, fmt.Errorf("query: %d symbol columns outside [1, %d]", syms, maxSymbols)
	}
	cells, ok := mul(num, syms)
	if !ok {
		return 0, fmt.Errorf("query: %d×%d transition cells overflow", num, syms)
	}
	return cells, nil
}

// checkTargets verifies every entry of a target table lies in [0, num).
func checkTargets(what string, t []int32, num int) error {
	for i, v := range t {
		if v < 0 || int(v) >= num {
			return fmt.Errorf("query: %s[%d] = %d outside the %d states", what, i, v, num)
		}
	}
	return nil
}

// checkOffsets verifies a CSR prefix-offset table: the right length,
// starting at zero, monotone, and ending exactly at the target count.
func checkOffsets(what string, off []int32, cells, targets int) error {
	if len(off) != cells+1 {
		return fmt.Errorf("query: %s has %d offsets, want %d", what, len(off), cells+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("query: %s starts at %d, want 0", what, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("query: %s decreases at %d (%d < %d)", what, i, off[i], off[i-1])
		}
	}
	if int(off[len(off)-1]) != targets {
		return fmt.Errorf("query: %s ends at %d, targets hold %d entries", what, off[len(off)-1], targets)
	}
	return nil
}

// checkAscending verifies sparse return keys are strictly ascending (the
// binary-search invariant) and index the quadratic return space
// (lin*num+hier)*syms+sym of num states over cells = num×syms columns, so a
// key always decomposes back into two states and a symbol.
func checkAscending(keys []uint64, num, cells int) error {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("query: sparse return keys not strictly ascending at %d", i)
		}
	}
	limit := uint64(math.MaxInt64)
	if n, ok := mul(num, cells); ok {
		limit = uint64(n)
	}
	if n := len(keys); n > 0 && keys[n-1] >= limit {
		return fmt.Errorf("query: sparse return key %d outside the %d-state return index", keys[n-1], num)
	}
	return nil
}

// checkMaskBits rejects mask slabs with bits set beyond the state range:
// a phantom high bit would make NextSet yield a state ≥ num and index the
// adjacency tables out of range.  w must be at least 1.
func checkMaskBits(what string, slab []uint64, num, w int) error {
	rem := uint(num) & 63
	if rem == 0 {
		return nil
	}
	high := ^uint64(0) << rem
	for row := 0; row < len(slab)/w; row++ {
		if slab[row*w+w-1]&high != 0 {
			return fmt.Errorf("query: %s row %d sets bits beyond the %d states", what, row, num)
		}
	}
	return nil
}

// validate checks the Compiled invariants: dimensions in range, start and
// dead states inside them, the accept table and the dense call/internal
// tables num×syms long, the return table dense over num×num×syms cells or
// sparse with strictly ascending in-range keys paired with values, and every
// target a state.
func (c *Compiled) validate() error {
	cells, err := checkDims(c.num, c.syms)
	if err != nil {
		return err
	}
	if err := checkAlphabet(c.alpha, c.syms); err != nil {
		return err
	}
	if c.start < 0 || int(c.start) >= c.num || c.dead < 0 || int(c.dead) >= c.num {
		return fmt.Errorf("query: start %d / dead %d outside the %d states", c.start, c.dead, c.num)
	}
	if len(c.accept) != c.num {
		return fmt.Errorf("query: accept table holds %d states, automaton has %d", len(c.accept), c.num)
	}
	for _, t := range []struct {
		what string
		tab  []int32
	}{
		{"call linear", c.callLin},
		{"call hierarchical", c.callHier},
		{"internal", c.internT},
	} {
		if len(t.tab) != cells {
			return fmt.Errorf("query: %s table holds %d cells, want %d", t.what, len(t.tab), cells)
		}
		if err := checkTargets(t.what, t.tab, c.num); err != nil {
			return err
		}
	}
	if c.dense {
		retCells, ok := mul(c.num, cells)
		if !ok || len(c.returnT) != retCells {
			return fmt.Errorf("query: dense return table holds %d cells, want %d×%d×%d",
				len(c.returnT), c.num, c.num, c.syms)
		}
		return checkTargets("dense return", c.returnT, c.num)
	}
	if len(c.sparseR.keys) != len(c.sparseR.vals) {
		return fmt.Errorf("query: %d sparse return keys vs %d values", len(c.sparseR.keys), len(c.sparseR.vals))
	}
	if err := checkAscending(c.sparseR.keys, c.num, cells); err != nil {
		return err
	}
	return checkTargets("sparse return", c.sparseR.vals, c.num)
}

// validate checks the CompiledN invariants: dimensions in range, the accept
// table num long, every start state and CSR target a state, each CSR offset
// table monotone over exactly its cells and targets (the return index dense
// over num×num×syms cells or sparse over strictly ascending in-range keys),
// and both successor mask slabs num×syms rows of bitset.Words(num) words
// with no bit past num.  The start/accept rows and the mask/CSR agreement
// are cross-representation properties left to vet.
func (c *CompiledN) validate() error {
	cells, err := checkDims(c.num, c.syms)
	if err != nil {
		return err
	}
	if err := checkAlphabet(c.alpha, c.syms); err != nil {
		return err
	}
	if len(c.accept) != c.num {
		return fmt.Errorf("query: accept table holds %d states, automaton has %d", len(c.accept), c.num)
	}
	if err := checkTargets("start states", c.starts, c.num); err != nil {
		return err
	}
	if len(c.callHier) != len(c.callLin) {
		return fmt.Errorf("query: %d call linear targets vs %d hierarchical", len(c.callLin), len(c.callHier))
	}
	if err := firstError(
		checkOffsets("call offsets", c.callOff, cells, len(c.callLin)),
		checkTargets("call linear", c.callLin, c.num),
		checkTargets("call hierarchical", c.callHier, c.num),
		checkOffsets("internal offsets", c.intOff, cells, len(c.intTo)),
		checkTargets("internal targets", c.intTo, c.num),
		checkTargets("return targets", c.retTo, c.num),
	); err != nil {
		return err
	}
	if c.dense {
		retCells, ok := mul(c.num, cells)
		if !ok {
			return fmt.Errorf("query: dense return index for %d states overflows", c.num)
		}
		if err := checkOffsets("return offsets", c.retOff, retCells, len(c.retTo)); err != nil {
			return err
		}
	} else {
		if err := checkAscending(c.retKeys, c.num, cells); err != nil {
			return err
		}
		if err := checkOffsets("sparse return spans", c.retSpan, len(c.retKeys), len(c.retTo)); err != nil {
			return err
		}
	}
	if c.w != bitset.Words(c.num) {
		return fmt.Errorf("query: mask rows hold %d words, %d states need %d", c.w, c.num, bitset.Words(c.num))
	}
	slab, ok := mul(cells, c.w)
	if !ok || len(c.intMask) != slab || len(c.callMask) != slab {
		return fmt.Errorf("query: mask slabs hold %d/%d words, want %d×%d", len(c.intMask), len(c.callMask), cells, c.w)
	}
	if err := checkMaskBits("internal mask", c.intMask, c.num, c.w); err != nil {
		return err
	}
	return checkMaskBits("call mask", c.callMask, c.num, c.w)
}

// firstError returns the first non-nil error of a run of independent checks.
func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// validateQuery runs the validator of either compiled form; any other Query
// implementation has no tables to serialize or vet.
func validateQuery(q Query) error {
	switch c := q.(type) {
	case *Compiled:
		return c.validate()
	case *CompiledN:
		return c.validate()
	}
	return fmt.Errorf("query: %T is not a compiled query (want *Compiled or *CompiledN)", q)
}

// --- decoding ------------------------------------------------------------

// readCompiled reads a KindDNWA container into a Compiled without
// validating it.
func readCompiled(d *decodeState) (*Compiled, error) {
	meta, err := d.decodeMeta("DNWA", 5, 4)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		num:        int(meta[0]),
		syms:       int(meta[1]),
		start:      int32(meta[2]),
		dead:       int32(meta[3]),
		dense:      meta[4] == 1,
		fmtVersion: d.r.Version(),
	}
	if err := d.loadAlphabet(); err != nil {
		return nil, err
	}
	c.alpha = d.alpha
	if c.accept, err = d.decodeAccept(); err != nil {
		return nil, err
	}
	d.readInt32s(&c.callLin, secCallLin, "call linear")
	d.readInt32s(&c.callHier, secCallHier, "call hierarchical")
	d.readInt32s(&c.internT, secInternal, "internal")
	if c.dense {
		d.readInt32s(&c.returnT, secReturnT, "dense return")
	} else {
		d.readUint64s(&c.sparseR.keys, secRetKeys, "sparse return keys")
		d.readInt32s(&c.sparseR.vals, secRetVals, "sparse return values")
	}
	if d.err != nil {
		return nil, d.err
	}
	return c, nil
}

// readCompiledN reads a KindNNWA container into a CompiledN without
// validating it or building its start/accept rows.
func readCompiledN(d *decodeState) (*CompiledN, error) {
	meta, err := d.decodeMeta("NNWA", 3, 2)
	if err != nil {
		return nil, err
	}
	num := int(meta[0])
	c := &CompiledN{num: num, syms: int(meta[1]), dense: meta[2] == 1, w: bitset.Words(num), fmtVersion: d.r.Version()}
	if err := d.loadAlphabet(); err != nil {
		return nil, err
	}
	c.alpha = d.alpha
	if c.accept, err = d.decodeAccept(); err != nil {
		return nil, err
	}
	d.readInt32s(&c.starts, secStarts, "start states")
	d.readInt32s(&c.callOff, secCallOff, "call offsets")
	d.readInt32s(&c.callLin, secCallLin, "call linear")
	d.readInt32s(&c.callHier, secCallHier, "call hierarchical")
	d.readInt32s(&c.intOff, secIntOff, "internal offsets")
	d.readInt32s(&c.intTo, secIntTo, "internal targets")
	d.readInt32s(&c.retTo, secRetTo, "return targets")
	if c.dense {
		d.readInt32s(&c.retOff, secRetOff, "return offsets")
	} else {
		d.readUint64s(&c.retKeys, secRetKeys, "sparse return keys")
		d.readInt32s(&c.retSpan, secRetSpan, "sparse return spans")
	}
	d.readUint64s(&c.intMask, secIntMask, "internal mask")
	d.readUint64s(&c.callMask, secCallMask, "call mask")
	if d.err != nil {
		return nil, d.err
	}
	return c, nil
}

// readQuery reads either compiled form from its container without
// validating it; decodeQuery and decodeProduct validate what it returns.
func readQuery(data []byte, alpha *alphabet.Alphabet, zeroCopy bool) (Query, error) {
	r, err := format.NewReader(data)
	if err != nil {
		return nil, err
	}
	d := &decodeState{r: r, alpha: alpha, zeroCopy: zeroCopy}
	switch r.Kind() {
	case format.KindDNWA:
		return readCompiled(d)
	case format.KindNNWA:
		return readCompiledN(d)
	default:
		return nil, fmt.Errorf("query: container kind %d is not a compiled query", r.Kind())
	}
}

// decodeQuery reads either compiled form, validates it, and builds the
// derived start/accept rows of a CompiledN.
func decodeQuery(data []byte, alpha *alphabet.Alphabet, zeroCopy bool) (Query, error) {
	q, err := readQuery(data, alpha, zeroCopy)
	if err == nil {
		err = validateQuery(q)
	}
	if err != nil {
		return nil, err
	}
	if c, ok := q.(*CompiledN); ok {
		c.packRows()
	}
	return q, nil
}

// UnmarshalCompiled decodes a standalone serialized compiled DNWA, copying
// every table out of data (data may be reused or mutated afterwards).
func UnmarshalCompiled(data []byte) (*Compiled, error) {
	q, err := decodeQuery(data, nil, false)
	if err != nil {
		return nil, err
	}
	c, ok := q.(*Compiled)
	if !ok {
		return nil, fmt.Errorf("query: container holds a nondeterministic automaton, want a compiled DNWA")
	}
	return c, nil
}

// UnmarshalCompiledN decodes a standalone serialized compiled NNWA, copying
// every table out of data.
func UnmarshalCompiledN(data []byte) (*CompiledN, error) {
	q, err := decodeQuery(data, nil, false)
	if err != nil {
		return nil, err
	}
	c, ok := q.(*CompiledN)
	if !ok {
		return nil, fmt.Errorf("query: container holds a deterministic automaton, want a compiled NNWA")
	}
	return c, nil
}

// UnmarshalQuery decodes either serialized compiled form, copying every
// table out of data.
func UnmarshalQuery(data []byte) (Query, error) { return decodeQuery(data, nil, false) }

// LoadQueryMapped decodes either serialized compiled form zero-copy: the
// transition tables and mask slabs alias data directly (checked
// reinterpretation of the little-endian sections), so data must stay valid
// and unmodified — typically an mmap'd read-only region — for as long as
// the query is in use.
func LoadQueryMapped(data []byte) (Query, error) { return decodeQuery(data, nil, true) }

// Marshal serializes the product cluster, alphabet included, into a
// standalone KindProduct container: meta ({query count, joint-mode flag}),
// the accept bitmask slab, and the shared automaton as an embedded
// KindDNWA/KindNNWA blob.
func (p *CompiledProduct) Marshal() []byte {
	return p.encode(true, nil, marshalVersion(p.fmtVersion))
}

func (p *CompiledProduct) encode(includeAlpha bool, groupIdx []int32, version uint32) []byte {
	w := format.NewWriter(format.KindProduct)
	w.SetVersion(version)
	mode := uint64(0)
	if !p.Deterministic() {
		mode = 1
	}
	w.Uint64s(secMeta, []uint64{uint64(p.nq), mode})
	if includeAlpha {
		w.Strings(secAlphabet, p.Alphabet().Symbols())
	}
	if groupIdx != nil {
		w.Int32s(secGroupIdx, groupIdx)
	}
	w.Uint64s(secAcceptMask, p.mask)
	switch c := p.inner.(type) {
	case *Compiled:
		w.Bytes(secQuery, c.encode(false, format.Version1))
	case *CompiledN:
		w.Bytes(secQuery, c.encode(false, format.Version1))
	}
	return w.Finish()
}

// maskShape returns the accept-mask geometry the product's interior
// implies: rows of width words each, with bits usable columns per row — one
// bitset.Words(nq)-word row of member bits per state of a deterministic
// product, one union-width row of states per member of a joint one.
func (p *CompiledProduct) maskShape() (rows, width, bits int) {
	if c, ok := p.inner.(*CompiledN); ok {
		return p.nq, c.w, c.num
	}
	if c, ok := p.inner.(*Compiled); ok {
		return c.num, bitset.Words(p.nq), p.nq
	}
	return 0, 0, 0
}

// validate checks the CompiledProduct invariants: the query count in range,
// the interior automaton valid under its own validator, and the accept mask
// exactly the shape maskShape implies with no bit beyond the query count
// (deterministic) or state count (joint) — the "mask width == query count"
// guarantee the runners and nwtool vet rely on.
func (p *CompiledProduct) validate() error {
	if p.nq < 1 || p.nq > maxStates {
		return fmt.Errorf("query: product over %d queries outside [1, %d]", p.nq, maxStates)
	}
	if err := validateQuery(p.inner); err != nil {
		return fmt.Errorf("query: product automaton: %w", err)
	}
	rows, width, bits := p.maskShape()
	if p.maskW != width {
		return fmt.Errorf("query: product mask rows hold %d words, want %d", p.maskW, width)
	}
	if n, ok := mul(rows, width); !ok || len(p.mask) != n {
		return fmt.Errorf("query: product accept mask holds %d words, want %d×%d", len(p.mask), rows, width)
	}
	return checkMaskBits("accept mask", p.mask, bits, width)
}

// decodeProduct rebuilds a CompiledProduct from a KindProduct container,
// returning the demux indices of its group-index section when present (a
// bundle-embedded product names the bundle slots its mask bits answer; the
// bundle's checkCover holds them to the query count).  The embedded
// automaton is read unvalidated and checked once, by the product's
// validator.
func decodeProduct(d *decodeState) (*CompiledProduct, []int32, error) {
	if d.r.Kind() != format.KindProduct {
		return nil, nil, fmt.Errorf("query: container kind %d is not a product cluster", d.r.Kind())
	}
	meta, err := d.decodeMeta("product", 2, 1)
	if err != nil {
		return nil, nil, err
	}
	mode := meta[1]
	if mode > 1 {
		return nil, nil, fmt.Errorf("query: product mode %d is neither deterministic (0) nor joint (1)", mode)
	}
	if err := d.loadAlphabet(); err != nil {
		return nil, nil, err
	}
	var groupIdx []int32
	if _, ok := d.r.Section(secGroupIdx); ok {
		if groupIdx, err = d.int32s(secGroupIdx, "group index"); err != nil {
			return nil, nil, err
		}
	}
	blob, err := d.section(secQuery, "embedded automaton")
	if err != nil {
		return nil, nil, err
	}
	inner, err := readQuery(blob, d.alpha, d.zeroCopy)
	if err != nil {
		return nil, nil, fmt.Errorf("query: product automaton: %w", err)
	}
	p := &CompiledProduct{inner: inner, nq: int(meta[0]), fmtVersion: d.r.Version()}
	if p.Deterministic() != (mode == 0) {
		return nil, nil, fmt.Errorf("query: product mode %d does not match its embedded %T", mode, inner)
	}
	if p.mask, err = d.uint64s(secAcceptMask, "accept mask"); err != nil {
		return nil, nil, err
	}
	_, p.maskW, _ = p.maskShape()
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	if c, ok := inner.(*CompiledN); ok {
		c.packRows()
	}
	return p, groupIdx, nil
}

// UnmarshalProduct decodes a standalone serialized product cluster, copying
// every table out of data.
func UnmarshalProduct(data []byte) (*CompiledProduct, error) {
	r, err := format.NewReader(data)
	if err != nil {
		return nil, err
	}
	p, _, err := decodeProduct(&decodeState{r: r})
	return p, err
}

// Bundle is a named, ordered set of compiled queries over one shared
// alphabet — the serializable unit a fleet of front-ends boots from.  Build
// one with NewBundle/Add and Marshal it, or load one with UnmarshalBundle,
// LoadBundleMapped, or OpenBundle and hand it to engine.RegisterBundle (or
// serve.NewPoolFromBundle).
//
// A bundle may additionally be planned (plan.Bundle or NewPlannedBundle):
// some queries then live inside product-compiled clusters instead of the
// per-query slice — Query returns nil at those indices and Groups says
// which product answers them — while names, order, and verdict semantics
// stay exactly those of the unplanned bundle.
type Bundle struct {
	alpha   *alphabet.Alphabet
	names   []string
	queries []Query // nil at indices covered by a product group
	groups  []ProductGroup
	close   func() error

	// Identity of the container this bundle was decoded from, for serving
	// and cache keying: raw aliases the decode input (the mapped region for
	// OpenBundle), hash is the verified content hash for a VersionHashed
	// container or the plain checksum of the bytes for a Version1 one, and
	// hashed says which.  All three are zero for a bundle built in memory.
	raw        []byte
	hash       [format.HashSize]byte
	hashed     bool
	fmtVersion uint32
}

// ProductGroup is one planned cluster of a bundle: a product-compiled
// automaton plus the bundle indices its mask bits demux to (Indices[j] is
// the bundle slot answered by verdict bit j).
type ProductGroup struct {
	Indices []int32
	Product *CompiledProduct
}

// NewBundle starts an empty bundle over the given alphabet.
func NewBundle(alpha *alphabet.Alphabet) *Bundle { return &Bundle{alpha: alpha} }

// Add appends a compiled query under a display name.  The name must be new
// and the query's alphabet must equal the bundle's (the same invariant
// engine.RegisterQuery enforces, checked here so a bundle cannot be
// serialized in an unbootable state).  Only the serializable compiled forms
// — *Compiled and *CompiledN — are accepted.
func (b *Bundle) Add(name string, q Query) error {
	switch q.(type) {
	case *Compiled, *CompiledN:
	default:
		return fmt.Errorf("query: bundle cannot serialize %T (want *Compiled or *CompiledN)", q)
	}
	for _, n := range b.names {
		if n == name {
			return fmt.Errorf("query: bundle already holds a query named %q", name)
		}
	}
	if !b.alpha.Equal(q.Alphabet()) {
		return fmt.Errorf("query: query %q uses alphabet %v, bundle is over %v", name, q.Alphabet(), b.alpha)
	}
	b.names = append(b.names, name)
	b.queries = append(b.queries, q)
	return nil
}

// Len returns the number of queries in the bundle.
func (b *Bundle) Len() int { return len(b.queries) }

// Alphabet returns the bundle's shared alphabet.
func (b *Bundle) Alphabet() *alphabet.Alphabet { return b.alpha }

// Names returns the query names in index order (a copy).
func (b *Bundle) Names() []string { return append([]string(nil), b.names...) }

// Name returns the i-th query's display name.
func (b *Bundle) Name(i int) string { return b.names[i] }

// Query returns the i-th compiled query, or nil when index i is answered by
// a product group of a planned bundle (see Groups).
func (b *Bundle) Query(i int) Query { return b.queries[i] }

// Groups returns the product-compiled clusters of a planned bundle (empty
// for an unplanned one).  The returned slice is shared; treat it as
// read-only.
func (b *Bundle) Groups() []ProductGroup { return b.groups }

// Raw returns the serialized container this bundle was decoded from, or
// nil for a bundle built in memory.  The slice aliases the decode input —
// for OpenBundle that is the mapped region, invalid after Close — so
// treat it as read-only and copy it before the bundle goes away.
func (b *Bundle) Raw() []byte { return b.raw }

// ContentHash identifies the container this bundle was decoded from:
// the header's verified content hash with verified=true for a
// VersionHashed container, the plain checksum of the bytes with
// verified=false for a Version1 one.  ok is false for a bundle built in
// memory, which has no serialized identity yet (Marshal it first).
func (b *Bundle) ContentHash() (sum [format.HashSize]byte, verified, ok bool) {
	return b.hash, b.hashed, b.raw != nil
}

// Verify checks a detached NWS1 signature envelope against the container
// this bundle was decoded from.  The bundle must come from a
// VersionHashed container (the hash the signature covers is already
// verified against the bytes at decode time); pub is an NWP1 key file or
// bare 32-byte ed25519 key.
func (b *Bundle) Verify(pub, envelope []byte) error {
	if b.raw == nil {
		return fmt.Errorf("query: bundle was built in memory, nothing to verify")
	}
	if !b.hashed {
		return fmt.Errorf("query: version %d bundle carries no content hash to verify", b.fmtVersion)
	}
	return format.VerifyHash(pub, envelope, b.hash)
}

// NewPlannedBundle assembles a planned bundle over the same alphabet,
// names, and order as src: each cluster (a list of src query indices,
// paired positionally with its product) is answered by the product's
// verdict mask, every other query stays fanned out.  Clusters must
// partition a subset of src's indices — in range, disjoint, sized to the
// product's query count — and every product must share src's alphabet; src
// itself must be unplanned.
func NewPlannedBundle(src *Bundle, clusters [][]int, products []*CompiledProduct) (*Bundle, error) {
	if len(src.groups) != 0 {
		return nil, fmt.Errorf("query: bundle is already planned (%d groups)", len(src.groups))
	}
	if len(clusters) != len(products) {
		return nil, fmt.Errorf("query: %d clusters paired with %d products", len(clusters), len(products))
	}
	b := &Bundle{
		alpha:   src.alpha,
		names:   append([]string(nil), src.names...),
		queries: append([]Query(nil), src.queries...),
	}
	for gi, cluster := range clusters {
		g := ProductGroup{Indices: make([]int32, len(cluster)), Product: products[gi]}
		for j, idx := range cluster {
			if idx < 0 || idx >= len(b.queries) {
				return nil, fmt.Errorf("query: cluster %d index %d outside the %d queries", gi, idx, len(b.queries))
			}
			g.Indices[j] = int32(idx)
			b.queries[idx] = nil
		}
		b.groups = append(b.groups, g)
	}
	if err := b.checkCover(); err != nil {
		return nil, err
	}
	return b, nil
}

// checkCover checks the bundle's demux table, the rule that makes a planned
// bundle answer exactly what its unplanned form would: one distinct name
// per query slot, every name answered by exactly one solo query or product
// slot, every demux index in range, every group exactly as wide as its
// product's query count, and every query and product over the bundle
// alphabet.  NewPlannedBundle, decodeBundle and VetBundle all apply it.
func (b *Bundle) checkCover() error {
	if len(b.names) != len(b.queries) {
		return fmt.Errorf("query: bundle names %d queries but holds %d", len(b.names), len(b.queries))
	}
	if dup := firstDuplicate(b.names); dup != "" {
		return fmt.Errorf("query: bundle names repeat %q", dup)
	}
	covered := make([]bool, len(b.queries))
	for gi, g := range b.groups {
		if g.Product == nil || g.Product.inner == nil {
			return fmt.Errorf("query: bundle group %d has no product automaton", gi)
		}
		if len(g.Indices) != g.Product.nq {
			return fmt.Errorf("query: bundle group %d demuxes %d queries, its product answers %d",
				gi, len(g.Indices), g.Product.nq)
		}
		if !b.alpha.Equal(g.Product.Alphabet()) {
			return fmt.Errorf("query: bundle group %d product uses alphabet %v, bundle is over %v",
				gi, g.Product.Alphabet(), b.alpha)
		}
		for _, idx := range g.Indices {
			if idx < 0 || int(idx) >= len(b.queries) {
				return fmt.Errorf("query: bundle group %d index %d outside the %d queries", gi, idx, len(b.queries))
			}
			if covered[idx] {
				return fmt.Errorf("query: bundle demuxes query %q twice", b.names[idx])
			}
			covered[idx] = true
		}
	}
	for i, q := range b.queries {
		switch {
		case q == nil && !covered[i]:
			return fmt.Errorf("query: bundle covers neither solo nor product for query %q", b.names[i])
		case q != nil && covered[i]:
			return fmt.Errorf("query: bundle query %q has both a solo query and a product slot", b.names[i])
		case q != nil && !b.alpha.Equal(q.Alphabet()):
			return fmt.Errorf("query: bundle query %q uses alphabet %v, bundle is over %v",
				b.names[i], q.Alphabet(), b.alpha)
		}
	}
	return nil
}

// Marshal serializes the bundle: the shared alphabet once, the names, and
// one embedded container per query (each without its own alphabet section).
// A planned bundle writes its solo-index section, one embedded container
// per solo query (paired positionally with the solo indices), and one
// embedded KindProduct container per cluster, each carrying its demux
// indices; an unplanned bundle's layout is byte-identical to what it was
// before planning existed.
// Embedded blobs always stay at Version1: the outer container's content
// hash covers their bytes, so a per-blob hash would add 32 bytes per query
// for no extra integrity.
func (b *Bundle) Marshal() []byte {
	w := format.NewWriter(format.KindBundle)
	w.SetVersion(marshalVersion(b.fmtVersion))
	w.Strings(secAlphabet, b.alpha.Symbols())
	w.Strings(secNames, b.names)
	var solo []int32
	for i, q := range b.queries {
		if q != nil && len(b.groups) > 0 {
			solo = append(solo, int32(i))
		}
		switch c := q.(type) {
		case *Compiled:
			w.Bytes(secQuery, c.encode(false, format.Version1))
		case *CompiledN:
			w.Bytes(secQuery, c.encode(false, format.Version1))
		}
	}
	if len(b.groups) > 0 {
		w.Int32s(secSolo, solo)
		for _, g := range b.groups {
			w.Bytes(secProduct, g.Product.encode(false, g.Indices, format.Version1))
		}
	}
	return w.Finish()
}

// Close releases the mapped region backing a bundle from OpenBundle; after
// Close no query of the bundle may be used.  Bundles built in memory or
// loaded with UnmarshalBundle have nothing to release.
func (b *Bundle) Close() error {
	if b.close == nil {
		return nil
	}
	c := b.close
	b.close = nil
	return c()
}

// decodeBundle rebuilds a bundle from a KindBundle container.
func decodeBundle(data []byte, zeroCopy bool) (*Bundle, error) {
	r, err := format.NewReader(data)
	if err != nil {
		return nil, err
	}
	if r.Kind() != format.KindBundle {
		return nil, fmt.Errorf("query: container kind %d is not a bundle", r.Kind())
	}
	alphaSec, ok := r.Section(secAlphabet)
	if !ok {
		return nil, fmt.Errorf("query: bundle is missing its alphabet section")
	}
	symbols, err := format.Strings(alphaSec)
	if err != nil {
		return nil, fmt.Errorf("query: bundle alphabet: %w", err)
	}
	alpha := alphabet.New(symbols...)
	if alpha.Size() != len(symbols) {
		return nil, fmt.Errorf("query: bundle alphabet repeats a symbol (%d listed, %d distinct)",
			len(symbols), alpha.Size())
	}
	namesSec, ok := r.Section(secNames)
	if !ok {
		return nil, fmt.Errorf("query: bundle is missing its names section")
	}
	names, err := format.Strings(namesSec)
	if err != nil {
		return nil, fmt.Errorf("query: bundle names: %w", err)
	}
	blobs := r.Sections(secQuery)
	b := &Bundle{alpha: alpha, names: names, raw: data, fmtVersion: r.Version()}
	if h, ok := r.ContentHash(); ok {
		b.hash, b.hashed = h, true
	} else {
		b.hash = format.Checksum(data)
	}
	soloSec, planned := r.Section(secSolo)
	if !planned {
		// Unplanned layout: one embedded query per name, in order.
		if len(blobs) != len(names) {
			return nil, fmt.Errorf("query: bundle names %d queries but embeds %d", len(names), len(blobs))
		}
		for i, blob := range blobs {
			q, err := decodeQuery(blob, alpha, zeroCopy)
			if err != nil {
				return nil, fmt.Errorf("query: bundle query %q: %w", names[i], err)
			}
			b.queries = append(b.queries, q)
		}
	} else if err := b.decodePlanned(r, soloSec, blobs, zeroCopy); err != nil {
		return nil, err
	}
	if err := b.checkCover(); err != nil {
		return nil, err
	}
	return b, nil
}

// decodePlanned reads a planned bundle's layout: the solo-index section
// pairs positionally with the embedded query blobs, and each product
// container carries its own demux indices.  A solo index is bounded and
// checked for repeats here, before its slot is written; the rest of the
// cover rule is checkCover's.
func (b *Bundle) decodePlanned(r *format.Reader, soloSec []byte, blobs [][]byte, zeroCopy bool) error {
	solo, err := format.Int32s(soloSec, false)
	if err != nil {
		return fmt.Errorf("query: bundle solo indices: %w", err)
	}
	if len(blobs) != len(solo) {
		return fmt.Errorf("query: bundle lists %d solo queries but embeds %d", len(solo), len(blobs))
	}
	b.queries = make([]Query, len(b.names))
	for i, blob := range blobs {
		idx := solo[i]
		if idx < 0 || int(idx) >= len(b.names) {
			return fmt.Errorf("query: bundle solo index %d outside the %d queries", idx, len(b.names))
		}
		if b.queries[idx] != nil {
			return fmt.Errorf("query: bundle lists solo query %q twice", b.names[idx])
		}
		q, err := decodeQuery(blob, b.alpha, zeroCopy)
		if err != nil {
			return fmt.Errorf("query: bundle query %q: %w", b.names[idx], err)
		}
		b.queries[idx] = q
	}
	for gi, blob := range r.Sections(secProduct) {
		pr, err := format.NewReader(blob)
		if err != nil {
			return fmt.Errorf("query: bundle product %d: %w", gi, err)
		}
		p, idx, err := decodeProduct(&decodeState{r: pr, alpha: b.alpha, zeroCopy: zeroCopy})
		if err != nil {
			return fmt.Errorf("query: bundle product %d: %w", gi, err)
		}
		if idx == nil {
			return fmt.Errorf("query: bundle product %d has no demux indices", gi)
		}
		b.groups = append(b.groups, ProductGroup{Indices: idx, Product: p})
	}
	return nil
}

func firstDuplicate(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i]
		}
	}
	return ""
}

// UnmarshalBundle decodes a serialized bundle, copying every table out of
// data.
func UnmarshalBundle(data []byte) (*Bundle, error) { return decodeBundle(data, false) }

// LoadBundleMapped decodes a serialized bundle zero-copy: every query's
// tables alias data directly, so data must stay valid and unmodified for
// the bundle's lifetime (see LoadQueryMapped).
func LoadBundleMapped(data []byte) (*Bundle, error) { return decodeBundle(data, true) }

// OpenBundle maps the file read-only (mmap where the platform provides it,
// a plain read otherwise) and loads the bundle zero-copy: the transition
// tables of every query point straight into the mapped region, so N
// processes opening one bundle share a single resident copy of the compiled
// tables.  Call Close on the bundle to release the mapping.
func OpenBundle(path string) (*Bundle, error) {
	data, closeFn, err := format.Map(path)
	if err != nil {
		return nil, err
	}
	b, err := LoadBundleMapped(data)
	if err != nil {
		closeFn()
		return nil, err
	}
	b.close = closeFn
	return b, nil
}
