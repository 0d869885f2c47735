package alphabet

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestNewDeduplicates(t *testing.T) {
	a := New("a", "b", "a", "c", "b")
	if a.Size() != 3 {
		t.Fatalf("Size = %d, want 3", a.Size())
	}
	if got, want := a.Symbols(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Symbols = %v, want %v", got, want)
	}
}

func TestIndexAndSymbol(t *testing.T) {
	a := New("x", "y")
	if i, ok := a.Index("y"); !ok || i != 1 {
		t.Errorf("Index(y) = (%d,%v), want (1,true)", i, ok)
	}
	if _, ok := a.Index("z"); ok {
		t.Errorf("Index(z) should not be found")
	}
	if a.Symbol(0) != "x" {
		t.Errorf("Symbol(0) = %q, want x", a.Symbol(0))
	}
	if !a.Contains("x") || a.Contains("q") {
		t.Errorf("Contains broken")
	}
	if a.MustIndex("x") != 0 {
		t.Errorf("MustIndex(x) != 0")
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustIndex of an unknown symbol should panic")
		}
	}()
	New("a").MustIndex("b")
}

func TestEqualAndUnion(t *testing.T) {
	a := New("a", "b")
	b := New("a", "b")
	c := New("b", "a")
	if !a.Equal(b) {
		t.Errorf("identical alphabets should be Equal")
	}
	if a.Equal(c) {
		t.Errorf("order matters for Equal")
	}
	u := a.Union(New("b", "c"))
	if got, want := u.Symbols(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
}

func TestStringAndEmpty(t *testing.T) {
	if got := New("a", "b").String(); got != "{a,b}" {
		t.Errorf("String = %q", got)
	}
	e := New()
	if e.Size() != 0 || e.String() != "{}" {
		t.Errorf("empty alphabet broken")
	}
	if !e.Equal(New()) {
		t.Errorf("empty alphabets should be equal")
	}
}

func TestSymbolsCopy(t *testing.T) {
	a := New("a", "b")
	s := a.Symbols()
	s[0] = "mutated"
	if a.Symbol(0) != "a" {
		t.Errorf("Symbols must return a copy")
	}
}

// TestIndexBytesAgreesWithIndex checks the hash table against the plain
// definition of membership: IndexBytes and Index agree with the symbol
// order on every member, and both miss on random non-members — including
// labels that share a member's length and first, middle and last bytes,
// which only the full compare tells apart.
func TestIndexBytesAgreesWithIndex(t *testing.T) {
	syms := []string{"", "a", "b", "c", "axa", "aya", "aza", "abxba", "abyba", "é", "wörd",
		"x" + strings.Repeat("m", 40) + "y", "x" + strings.Repeat("m", 19) + "n" + strings.Repeat("m", 20) + "y"}
	for i := 0; i < 200; i++ {
		syms = append(syms, fmt.Sprintf("s%03dt", i))
	}
	a := New(syms...)
	member := map[string]int{}
	for i, s := range syms {
		member[s] = i
		if got, ok := a.Index(s); !ok || got != i {
			t.Fatalf("Index(%q) = (%d, %v), want (%d, true)", s, got, ok, i)
		}
		if got, ok := a.IndexBytes([]byte(s)); !ok || got != i {
			t.Fatalf("IndexBytes(%q) = (%d, %v), want (%d, true)", s, got, ok, i)
		}
	}
	rng := rand.New(rand.NewSource(3))
	probes := []string{"ab", "awa", "abzba", "s1000t", "s00t", "x" + strings.Repeat("m", 40) + "z",
		"x" + strings.Repeat("n", 40) + "y", "wörd ", "\xff", strings.Repeat("m", 1000)}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(8))
		for j := range b {
			b[j] = "abcstxyz0123é"[rng.Intn(14)]
		}
		probes = append(probes, string(b))
	}
	for _, p := range probes {
		want, in := member[p]
		i, ok := a.Index(p)
		j, okb := a.IndexBytes([]byte(p))
		if ok != in || okb != in || (in && (i != want || j != want)) {
			t.Fatalf("%q: Index = (%d, %v), IndexBytes = (%d, %v), want (%d, %v)", p, i, ok, j, okb, want, in)
		}
	}
}

// TestZeroValueAlphabet checks that the zero-value Alphabet is the empty
// alphabet: every lookup answers "absent".
func TestZeroValueAlphabet(t *testing.T) {
	var a Alphabet
	for _, s := range []string{"", "a", "long label"} {
		if _, ok := a.Index(s); ok {
			t.Errorf("zero Alphabet: Index(%q) found", s)
		}
		if _, ok := a.IndexBytes([]byte(s)); ok {
			t.Errorf("zero Alphabet: IndexBytes(%q) found", s)
		}
		if a.Contains(s) {
			t.Errorf("zero Alphabet: Contains(%q)", s)
		}
	}
	if a.Size() != 0 {
		t.Errorf("zero Alphabet: Size = %d", a.Size())
	}
}

// TestIndexBytesZeroAlloc pins IndexBytes allocation-free on hits, misses
// and over-long labels alike: the tokenizer interns views into its read
// window through it once per event.
func TestIndexBytesZeroAlloc(t *testing.T) {
	a := New("a", "b", "c", "title", "year")
	labels := [][]byte{[]byte("title"), []byte("c"), []byte("yeah"), []byte("much too long a label")}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for _, l := range labels {
			if _, ok := a.IndexBytes(l); ok {
				n++
			}
		}
	}); allocs != 0 {
		t.Errorf("IndexBytes: %v allocs/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("no label was found")
	}
}

// TestProbeChainsStayShort pins the hash quality lookups depend on: a
// family of labels that differ only in a few bytes — here "item000" to
// "item999" — must still spread over the table, so that no lookup walks
// a long probe chain.
func TestProbeChainsStayShort(t *testing.T) {
	var syms []string
	for i := 0; i < 1000; i++ {
		syms = append(syms, fmt.Sprintf("item%03d", i))
	}
	a := New(syms...)
	mask := uint32(len(a.slots) - 1)
	longest := 0
	for _, s := range syms {
		n := 1
		for i := probe(a, s); a.symbols[a.slots[i]-1] != s; i = (i + 1) & mask {
			n++
		}
		longest = max(longest, n)
	}
	if longest > 16 {
		t.Errorf("longest probe chain is %d slots for %d symbols, want ≤ 16", longest, len(syms))
	}
}
