package query

import (
	"fmt"
	"testing"

	"repro/internal/query/format"
)

// The decode/vet parity table: every structural rule a compiled form must
// satisfy is planted, one violation at a time, into an in-memory object.
// The same violation must then be caught three ways — by VetBundle on the
// in-memory object, by the copying decoder of its kind on its Version1
// marshal, and by the zero-copy loader of that kind — and the bundle-cover
// violations must also be refused by NewPlannedBundle.  A rule that only one
// path enforces fails here.

// loadFn is one decode path under test, reduced to its error.
type loadFn struct {
	name string
	load func([]byte) error
}

var (
	queryLoaders = []loadFn{
		{"UnmarshalQuery", func(b []byte) error { _, err := UnmarshalQuery(b); return err }},
		{"LoadQueryMapped", func(b []byte) error { _, err := LoadQueryMapped(b); return err }},
	}
	productLoaders = []loadFn{
		{"UnmarshalProduct", func(b []byte) error { _, err := UnmarshalProduct(b); return err }},
	}
	bundleLoaders = []loadFn{
		{"UnmarshalBundle", func(b []byte) error { _, err := UnmarshalBundle(b); return err }},
		{"LoadBundleMapped", func(b []byte) error { _, err := LoadBundleMapped(b); return err }},
	}
)

// runLoad calls one loader, turning a panic into an error-valued report so
// the table can name the path that crashed.
func runLoad(l loadFn, data []byte) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, l.load(data)
}

// expectRejected fails unless every loader refuses data with an error.
func expectRejected(t *testing.T, what string, data []byte, loaders []loadFn) {
	t.Helper()
	for _, l := range loaders {
		p, err := runLoad(l, data)
		if p != nil {
			t.Errorf("%s: %s panicked: %v", what, l.name, p)
		} else if err == nil {
			t.Errorf("%s: %s accepted the violation", what, l.name)
		}
	}
}

// expectAccepted fails unless every loader decodes data: the pristine
// control that keeps the table from passing vacuously.
func expectAccepted(t *testing.T, what string, data []byte, loaders []loadFn) {
	t.Helper()
	for _, l := range loaders {
		if p, err := runLoad(l, data); p != nil || err != nil {
			t.Errorf("%s: %s refused a pristine object: %v %v", what, l.name, err, p)
		}
	}
}

// expectVetError fails unless VetBundle reports at least one error for b.
func expectVetError(t *testing.T, what string, b *Bundle) {
	t.Helper()
	var rep *VetReport
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: VetBundle panicked: %v", what, p)
			}
		}()
		rep = VetBundle(b)
	}()
	if rep != nil && rep.Errors() == 0 {
		t.Errorf("%s: VetBundle reported no error:\n%s", what, rep)
	}
}

// breakMonotone makes a CSR offset table decrease once, past its first
// entry, keeping the length, the leading zero and the final count intact.
func breakMonotone(t *testing.T, off []int32) {
	t.Helper()
	for i := 1; i+1 < len(off)-1; i++ {
		if off[i] < off[i+1] {
			off[i] = off[i+1] + 1
			return
		}
	}
	t.Fatal("fixture changed: offsets have no interior step to break")
}

// widen re-lays a mask slab of w-word rows as (w+1)-word rows.
func widen(slab []uint64, w int) []uint64 {
	rows := len(slab) / w
	out := make([]uint64, 0, rows*(w+1))
	for r := 0; r < rows; r++ {
		out = append(append(out, slab[r*w:(r+1)*w]...), 0)
	}
	return out
}

// soloBundle wraps one query as a Version1 in-memory bundle.
func soloBundle(t *testing.T, q Query) *Bundle {
	t.Helper()
	b := NewBundle(goldenAlphabet())
	if err := b.Add("q", q); err != nil {
		t.Fatal(err)
	}
	b.fmtVersion = format.Version1
	return b
}

// parityDNWA compiles the well-formedness DNWA in the requested return form.
func parityDNWA(t *testing.T, sparse bool) *Compiled {
	t.Helper()
	if sparse {
		defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
		denseReturnLimit = 1
	}
	c := Compile(WellFormed(goldenAlphabet()))
	if c.dense == sparse || (sparse && len(c.sparseR.keys) < 2) {
		t.Fatalf("fixture changed: dense=%v with %d sparse keys", c.dense, len(c.sparseR.keys))
	}
	return c
}

// parityNNWA compiles the golden NNWA in the requested return form.
func parityNNWA(t *testing.T, sparse bool) *CompiledN {
	t.Helper()
	if sparse {
		defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
		denseReturnLimit = 1
	}
	c := CompileN(goldenNNWA())
	if c.dense == sparse || (sparse && len(c.retKeys) < 2) {
		t.Fatalf("fixture changed: dense=%v with %d sparse keys", c.dense, len(c.retKeys))
	}
	return c
}

func TestDecodeVetParityCompiled(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		c := parityDNWA(t, sparse)
		what := fmt.Sprintf("pristine dnwa (sparse=%v)", sparse)
		if rep := VetBundle(soloBundle(t, c)); rep.Errors() != 0 {
			t.Fatalf("%s: vet errors:\n%s", what, rep)
		}
		expectAccepted(t, what, c.encode(true, format.Version1), queryLoaders)
		expectAccepted(t, what, soloBundle(t, c).Marshal(), bundleLoaders)
	}
	cases := []struct {
		name   string
		sparse bool
		mutate func(c *Compiled)
	}{
		{"call target out of range", false, func(c *Compiled) { c.callLin[0] = int32(c.num) }},
		{"negative hierarchical target", false, func(c *Compiled) { c.callHier[1] = -1 }},
		{"internal target out of range", false, func(c *Compiled) { c.internT[c.syms] = int32(c.num) }},
		{"short internal table", false, func(c *Compiled) { c.internT = c.internT[:len(c.internT)-1] }},
		{"short call table", false, func(c *Compiled) { c.callHier = c.callHier[:len(c.callHier)-1] }},
		{"dense return target out of range", false, func(c *Compiled) { c.returnT[len(c.returnT)-1] = int32(c.num) }},
		{"short dense return table", false, func(c *Compiled) { c.returnT = c.returnT[:len(c.returnT)-1] }},
		{"start out of range", false, func(c *Compiled) { c.start = int32(c.num) }},
		{"dead out of range", false, func(c *Compiled) { c.dead = int32(c.num) }},
		{"short accept table", false, func(c *Compiled) { c.accept = c.accept[:c.num-1] }},
		{"unsorted sparse keys", true, func(c *Compiled) {
			k := c.sparseR.keys
			k[0], k[1] = k[1], k[0]
		}},
		{"sparse value out of range", true, func(c *Compiled) { c.sparseR.vals[0] = int32(c.num) }},
		{"sparse keys vs values", true, func(c *Compiled) { c.sparseR.vals = c.sparseR.vals[:len(c.sparseR.vals)-1] }},
		{"sparse key past the return index", true, func(c *Compiled) {
			c.sparseR.keys[len(c.sparseR.keys)-1] = uint64(c.num * c.num * c.syms)
		}},
	}
	for _, tc := range cases {
		c := parityDNWA(t, tc.sparse)
		tc.mutate(c)
		expectVetError(t, tc.name, soloBundle(t, c))
		expectRejected(t, tc.name, c.encode(true, format.Version1), queryLoaders)
		expectRejected(t, tc.name, soloBundle(t, c).Marshal(), bundleLoaders)
	}
}

func TestDecodeVetParityCompiledN(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		c := parityNNWA(t, sparse)
		what := fmt.Sprintf("pristine nnwa (sparse=%v)", sparse)
		if rep := VetBundle(soloBundle(t, c)); rep.Errors() != 0 {
			t.Fatalf("%s: vet errors:\n%s", what, rep)
		}
		expectAccepted(t, what, c.encode(true, format.Version1), queryLoaders)
		expectAccepted(t, what, soloBundle(t, c).Marshal(), bundleLoaders)
	}
	cases := []struct {
		name   string
		sparse bool
		mutate func(t *testing.T, c *CompiledN)
	}{
		{"start state out of range", false, func(_ *testing.T, c *CompiledN) { c.starts[0] = int32(c.num) }},
		{"short accept table", false, func(_ *testing.T, c *CompiledN) { c.accept = c.accept[:c.num-1] }},
		{"call linear vs hierarchical", false, func(_ *testing.T, c *CompiledN) { c.callHier = c.callHier[:len(c.callHier)-1] }},
		{"call target out of range", false, func(_ *testing.T, c *CompiledN) { c.callLin[0] = int32(c.num) }},
		{"non-monotone call offsets", false, func(t *testing.T, c *CompiledN) { breakMonotone(t, c.callOff) }},
		{"short internal offsets", false, func(_ *testing.T, c *CompiledN) { c.intOff = c.intOff[:len(c.intOff)-1] }},
		{"non-monotone internal offsets", false, func(t *testing.T, c *CompiledN) { breakMonotone(t, c.intOff) }},
		{"internal target out of range", false, func(_ *testing.T, c *CompiledN) { c.intTo[0] = int32(c.num) }},
		{"return target out of range", false, func(_ *testing.T, c *CompiledN) { c.retTo[0] = -1 }},
		{"short dense return offsets", false, func(_ *testing.T, c *CompiledN) { c.retOff = c.retOff[:len(c.retOff)-1] }},
		{"unsorted sparse keys", true, func(_ *testing.T, c *CompiledN) {
			c.retKeys[0], c.retKeys[1] = c.retKeys[1], c.retKeys[0]
		}},
		{"non-monotone sparse spans", true, func(t *testing.T, c *CompiledN) { breakMonotone(t, c.retSpan) }},
		{"short sparse spans", true, func(_ *testing.T, c *CompiledN) { c.retSpan = c.retSpan[:len(c.retSpan)-1] }},
		{"sparse key past the return index", true, func(_ *testing.T, c *CompiledN) {
			c.retKeys[len(c.retKeys)-1] = uint64(c.num * c.num * c.syms)
		}},
		{"mask bit past num", false, func(_ *testing.T, c *CompiledN) { c.intMask[c.w-1] |= 1 << 63 }},
		{"short mask slab", false, func(_ *testing.T, c *CompiledN) { c.callMask = c.callMask[:len(c.callMask)-1] }},
		{"wrong mask width", false, func(_ *testing.T, c *CompiledN) {
			c.intMask, c.callMask = widen(c.intMask, c.w), widen(c.callMask, c.w)
			c.w++
		}},
	}
	for _, tc := range cases {
		c := parityNNWA(t, tc.sparse)
		tc.mutate(t, c)
		expectVetError(t, tc.name, soloBundle(t, c))
		expectRejected(t, tc.name, c.encode(true, format.Version1), queryLoaders)
		expectRejected(t, tc.name, soloBundle(t, c).Marshal(), bundleLoaders)
	}
}

// jointPlannedBundle plans two copies of the golden NNWA into one joint
// product group.
func jointPlannedBundle(t *testing.T) *Bundle {
	t.Helper()
	src := NewBundle(goldenAlphabet())
	for _, name := range []string{"n1", "n2"} {
		if err := src.Add(name, CompileN(goldenNNWA())); err != nil {
			t.Fatal(err)
		}
	}
	p, err := CompileProduct([]Query{src.Query(0), src.Query(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlannedBundle(src, [][]int{{0, 1}}, []*CompiledProduct{p})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecodeVetParityProduct(t *testing.T) {
	plans := map[string]func(t *testing.T) *Bundle{
		"det":   plannedGoldenBundle,
		"joint": jointPlannedBundle,
	}
	for form, plan := range plans {
		b := plan(t)
		b.fmtVersion = format.Version1
		what := "pristine " + form + " product"
		if rep := VetBundle(b); rep.Errors() != 0 {
			t.Fatalf("%s: vet errors:\n%s", what, rep)
		}
		expectAccepted(t, what, b.Groups()[0].Product.encode(true, nil, format.Version1), productLoaders)
		expectAccepted(t, what, b.Marshal(), bundleLoaders)
	}
	cases := []struct {
		name   string
		form   string
		mutate func(t *testing.T, p *CompiledProduct)
	}{
		{"nq out of range", "det", func(_ *testing.T, p *CompiledProduct) { p.nq = 0 }},
		{"nq past the mask width", "det", func(_ *testing.T, p *CompiledProduct) { p.nq = 65 }},
		{"wrong mask width", "det", func(_ *testing.T, p *CompiledProduct) {
			p.mask = widen(p.mask, p.maskW)
			p.maskW++
		}},
		{"mask bit past nq", "det", func(_ *testing.T, p *CompiledProduct) { p.mask[0] |= 1 << 10 }},
		{"short mask", "det", func(_ *testing.T, p *CompiledProduct) { p.mask = p.mask[:len(p.mask)-1] }},
		{"inner target out of range", "det", func(_ *testing.T, p *CompiledProduct) {
			c := p.inner.(*Compiled)
			c.internT[0] = int32(c.num)
		}},
		{"inner short table", "det", func(_ *testing.T, p *CompiledProduct) {
			c := p.inner.(*Compiled)
			c.callLin = c.callLin[:len(c.callLin)-1]
		}},
		{"nq out of range", "joint", func(_ *testing.T, p *CompiledProduct) { p.nq = 0 }},
		{"wrong mask width", "joint", func(_ *testing.T, p *CompiledProduct) {
			p.mask = widen(p.mask, p.maskW)
			p.maskW++
		}},
		{"mask bit past num", "joint", func(_ *testing.T, p *CompiledProduct) { p.mask[p.maskW-1] |= 1 << 63 }},
		{"short mask", "joint", func(_ *testing.T, p *CompiledProduct) { p.mask = p.mask[:len(p.mask)-1] }},
		{"inner non-monotone offsets", "joint", func(t *testing.T, p *CompiledProduct) {
			breakMonotone(t, p.inner.(*CompiledN).callOff)
		}},
		{"inner mask bit past num", "joint", func(_ *testing.T, p *CompiledProduct) {
			c := p.inner.(*CompiledN)
			c.callMask[c.w-1] |= 1 << 63
		}},
	}
	for _, tc := range cases {
		what := tc.form + " product: " + tc.name
		b := plans[tc.form](t)
		b.fmtVersion = format.Version1
		p := b.Groups()[0].Product
		tc.mutate(t, p)
		expectVetError(t, what, b)
		expectRejected(t, what, p.encode(true, nil, format.Version1), productLoaders)
		expectRejected(t, what, b.Marshal(), bundleLoaders)
	}
}

func TestDecodeVetParityBundleCover(t *testing.T) {
	src := goldenBundle(t)
	product := func() *CompiledProduct {
		p, err := CompileProduct([]Query{src.Query(0), src.Query(1)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name   string
		mutate func(b *Bundle)
		// clusters, when set, is the NewPlannedBundle input that asks for
		// the same violation (nil where the constructor cannot express it).
		clusters [][]int
	}{
		{"demux index out of range", func(b *Bundle) { b.groups[0].Indices[1] = 9 }, [][]int{{0, 9}}},
		{"negative demux index", func(b *Bundle) { b.groups[0].Indices[0] = -1 }, [][]int{{-1, 1}}},
		{"query demuxed twice", func(b *Bundle) { b.groups[0].Indices[1] = 0 }, [][]int{{0, 0}}},
		{"group width vs product", func(b *Bundle) {
			b.groups[0].Indices = b.groups[0].Indices[:1]
			b.queries[1] = src.Query(1)
		}, [][]int{{0}}},
		{"solo runner on a grouped query", func(b *Bundle) { b.queries[0] = src.Query(0) }, nil},
		{"query covered by nothing", func(b *Bundle) { b.groups = nil }, nil},
		{"repeated name", func(b *Bundle) { b.names[2] = b.names[0] }, nil},
	}
	for _, tc := range cases {
		b := plannedGoldenBundle(t)
		b.fmtVersion = format.Version1
		tc.mutate(b)
		expectVetError(t, tc.name, b)
		expectRejected(t, tc.name, b.Marshal(), bundleLoaders)
		if tc.clusters != nil {
			if _, err := NewPlannedBundle(src, tc.clusters, []*CompiledProduct{product()}); err == nil {
				t.Errorf("%s: NewPlannedBundle accepted the violation", tc.name)
			}
		}
	}
	// A source slot with no query is covered by nothing once planned.
	holey := goldenBundle(t)
	holey.queries[2] = nil
	if _, err := NewPlannedBundle(holey, [][]int{{0, 1}}, []*CompiledProduct{product()}); err == nil {
		t.Error("query covered by nothing: NewPlannedBundle accepted the violation")
	}
}
