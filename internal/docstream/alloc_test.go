package docstream

import (
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// TestTokenizerRetokenizeZeroAlloc pins the claim the //nwvet:hotpath
// annotation on the tokenizer loop makes: an interning tokenizer whose
// labels all belong to the alphabet retokenizes document after document —
// Reset plus a full drain — without allocating, because tokens are spelled
// into the reused scratch buffer, interned via alphabet.IndexBytes, and
// labelled with the alphabet's canonical strings.
func TestTokenizerRetokenizeZeroAlloc(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	doc := strings.Repeat("<a> b <c> b b </c> <b></b> c </a> ", 16)
	rd := strings.NewReader(doc)
	tk := NewInterningTokenizer(rd, alpha)

	var tokErr error
	run := func() {
		rd.Reset(doc)
		tk.Reset(rd)
		for {
			_, err := tk.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				tokErr = err
				return
			}
		}
	}
	run() // grow the scratch buffer
	if tokErr != nil {
		t.Fatal(tokErr)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("Tokenizer.Reset+retokenize: %v allocs/op, want 0", allocs)
	}
	if tokErr != nil {
		t.Fatal(tokErr)
	}
}

// TestResetDropsOversizedWindow pins the memory bound of a long-lived
// tokenizer: a document made of one 1 MiB token grows the window to hold
// it, and the next Reset drops the window back to its default size instead
// of pinning a megabyte per shard for the life of the process.
func TestResetDropsOversizedWindow(t *testing.T) {
	huge := strings.Repeat("x", 1<<20)
	tk := NewInterningTokenizer(strings.NewReader("<a> "+huge+" </a>"), alphabet.New("a"))
	var labels []int
	for {
		e, err := tk.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, len(e.Label))
	}
	if want := []int{1, 1 << 20, 1}; !slices.Equal(labels, want) {
		t.Fatalf("label lengths %v, want %v", labels, want)
	}
	if len(tk.buf) < 1<<20 {
		t.Fatalf("window is %d bytes after a 1 MiB token; want it grown to hold the token", len(tk.buf))
	}
	tk.Reset(strings.NewReader("<a> b </a>"))
	if len(tk.buf) != windowSize {
		t.Fatalf("window is %d bytes after Reset, want %d", len(tk.buf), windowSize)
	}
	if e, err := tk.Next(); err != nil || e.Label != "a" {
		t.Fatalf("after Reset: Next = %+v, %v", e, err)
	}
}
