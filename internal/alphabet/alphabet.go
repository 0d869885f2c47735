// Package alphabet provides symbol interning shared by every automaton
// package in this repository.
//
// All automata (word, tree, nested-word, and their pushdown variants) are
// defined over a finite alphabet Σ of symbols.  The experiments of the paper
// measure automaton sizes (numbers of states), so the automaton packages use
// dense integer-indexed transition tables; this package maps symbol strings
// to dense indices and back.
package alphabet

import (
	"fmt"
	"strings"
)

// Alphabet is an immutable, ordered finite set of symbols.  The zero value
// is the empty alphabet.
//
// Lookups go through an open-addressed hash table built once by New: a
// symbol hashes by FNV-1a over all its bytes, the table is kept at most
// half full, a label longer than the longest symbol misses without a
// probe, and a probe ends at an empty slot or a full string compare.  The
// []byte form (IndexBytes) allocates nothing.  The hash reads every byte
// because labels of one family ("item000" … "item999") often differ in
// a few positions only: a hash of sampled bytes collapses such a family
// onto a handful of probe chains.
type Alphabet struct {
	symbols []string
	slots   []int32 // power-of-two hash table of symbol index + 1; 0 is empty
	maxLen  int     // longest symbol, so longer labels miss without a probe
}

// New builds an alphabet from the given symbols.  Duplicates are collapsed
// (keeping the first occurrence's position); the order of first occurrence
// is the index order.
func New(symbols ...string) *Alphabet {
	size := 2
	for size < 2*len(symbols) {
		size *= 2
	}
	a := &Alphabet{slots: make([]int32, size)}
	for _, s := range symbols {
		if _, ok := lookup(a, s); ok {
			continue
		}
		i := probe(a, s)
		for a.slots[i] != 0 {
			i = (i + 1) & uint32(size-1)
		}
		a.symbols = append(a.symbols, s)
		a.slots[i] = int32(len(a.symbols))
		a.maxLen = max(a.maxLen, len(s))
	}
	return a
}

// probe returns the home slot of s: its FNV-1a hash.
func probe[S string | []byte](a *Alphabet, s S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h & uint32(len(a.slots)-1)
}

// lookup finds s in the hash table.
func lookup[S string | []byte](a *Alphabet, s S) (int, bool) {
	if len(s) > a.maxLen || len(a.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(a.slots) - 1)
	for i := probe(a, s); ; i = (i + 1) & mask {
		e := a.slots[i]
		if e == 0 {
			return 0, false
		}
		if string(s) == a.symbols[e-1] {
			return int(e - 1), true
		}
	}
}

// Size returns |Σ|.
func (a *Alphabet) Size() int { return len(a.symbols) }

// Symbols returns the symbols in index order (a copy).
func (a *Alphabet) Symbols() []string { return append([]string(nil), a.symbols...) }

// Symbol returns the symbol with the given index.  It panics if the index is
// out of range, mirroring slice indexing.
func (a *Alphabet) Symbol(i int) string { return a.symbols[i] }

// Index returns the index of the symbol and whether it belongs to the
// alphabet.
func (a *Alphabet) Index(sym string) (int, bool) { return lookup(a, sym) }

// IndexBytes returns the index of the symbol spelled by b and whether it
// belongs to the alphabet, without allocating, so hot tokenizing loops can
// intern a view into their read buffer; pair a hit with Symbol(i) to obtain
// a canonical string for the label.
func (a *Alphabet) IndexBytes(b []byte) (int, bool) { return lookup(a, b) }

// MustIndex returns the index of the symbol and panics when the symbol is
// not part of the alphabet.  It is intended for code paths where membership
// has already been validated.
func (a *Alphabet) MustIndex(sym string) int {
	i, ok := lookup(a, sym)
	if !ok {
		panic(fmt.Sprintf("alphabet: symbol %q not in alphabet {%s}", sym, strings.Join(a.symbols, ",")))
	}
	return i
}

// Contains reports whether the symbol belongs to the alphabet.
func (a *Alphabet) Contains(sym string) bool {
	_, ok := lookup(a, sym)
	return ok
}

// Equal reports whether two alphabets contain the same symbols in the same
// order.
func (a *Alphabet) Equal(b *Alphabet) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, s := range a.symbols {
		if b.symbols[i] != s {
			return false
		}
	}
	return true
}

// Union returns the alphabet containing the symbols of a followed by the
// symbols of b not already present.
func (a *Alphabet) Union(b *Alphabet) *Alphabet {
	return New(append(a.Symbols(), b.Symbols()...)...)
}

// String renders the alphabet as {s1,s2,...}.
func (a *Alphabet) String() string {
	return "{" + strings.Join(a.symbols, ",") + "}"
}
