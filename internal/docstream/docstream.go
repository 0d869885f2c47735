// Package docstream connects documents to nested words the way the paper's
// introduction motivates: the SAX representation of an XML document already
// carries open-tag / close-tag / text events, so it can be interpreted as a
// nested word without any preprocessing, and nested word automata can then
// query it in a single left-to-right pass whose memory is bounded by the
// document depth.
package docstream

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
	"repro/internal/nwa"
)

// Event is a single SAX-style event: an element opening, an element closing,
// or a text token.  It corresponds to one position of the nested word.
//
// Sym optionally carries the label already interned against a query
// alphabet, so that N fanned-out compiled queries pay one symbol lookup per
// event in total — at the edge, in the tokenizer — instead of one per event
// per query.  The encoding leaves the zero value meaningful: Sym == 0 means
// "not interned" (the state of every event built without an alphabet), and
// otherwise Sym-1 is the compiled symbol ID — the alphabet index for known
// labels, or the dedicated out-of-alphabet ID alphabet.Size() for labels the
// queries have never heard of (see the query package).  Use SymID and
// Interned rather than decoding Sym by hand, and never mix events interned
// against different alphabets in one stream: a consumer trusts Sym relative
// to its own alphabet (compiled symbol IDs are only meaningful there).
type Event struct {
	Kind  nestedword.Kind
	Label string
	Sym   int
}

// SymID returns the 0-based compiled symbol ID of the event against alpha:
// the alphabet index when the label is known, alpha.Size() — the dedicated
// out-of-alphabet ID — when it is not.  Events already interned (Sym != 0)
// answer without touching the alphabet.
func (e Event) SymID(alpha *alphabet.Alphabet) int {
	if e.Sym != 0 {
		return e.Sym - 1
	}
	if i, ok := alpha.Index(e.Label); ok {
		return i
	}
	return alpha.Size()
}

// Interned returns a copy of the event with Sym resolved against alpha.
func (e Event) Interned(alpha *alphabet.Alphabet) Event {
	e.Sym = e.SymID(alpha) + 1
	return e
}

// OutOfAlphabet reports whether the event's label lies outside alpha.
func (e Event) OutOfAlphabet(alpha *alphabet.Alphabet) bool {
	return e.SymID(alpha) == alpha.Size()
}

// NewEvent builds an event for a label, interned against alpha when one is
// given: in-alphabet labels get their alphabet index, anything else the
// dedicated out-of-alphabet ID alpha.Size().  With a nil alpha the event is
// uninterned (Sym stays 0).  This is THE out-of-alphabet mapping — the
// tokenizer and every adapter route through here (or InternBytes), so a
// label the queries have never heard of gets the same compiled symbol ID no
// matter which event source produced it.
func NewEvent(kind nestedword.Kind, label string, alpha *alphabet.Alphabet) Event {
	if alpha != nil {
		if i, ok := alpha.Index(label); ok {
			return Event{Kind: kind, Label: alpha.Symbol(i), Sym: i + 1}
		}
		return Event{Kind: kind, Label: label, Sym: alpha.Size() + 1}
	}
	return Event{Kind: kind, Label: label}
}

// InternBytes is NewEvent for a label spelled in a reusable byte buffer: the
// in-alphabet fast path looks the name up allocation-free
// (alphabet.IndexBytes) and reuses the alphabet's canonical string, so a
// caller that recycles its scratch buffer pays zero allocations per
// in-alphabet event; out-of-alphabet and uninterned labels materialize one
// fresh string each.
func InternBytes(kind nestedword.Kind, name []byte, alpha *alphabet.Alphabet) Event {
	if alpha != nil {
		if i, ok := alpha.IndexBytes(name); ok {
			return Event{Kind: kind, Label: alpha.Symbol(i), Sym: i + 1}
		}
		return Event{Kind: kind, Label: string(name), Sym: alpha.Size() + 1}
	}
	return Event{Kind: kind, Label: string(name)}
}

// Tokenizer reads the lightweight XML-like syntax incrementally from an
// io.Reader and emits one Event at a time: "<name>" opens an element,
// "</name>" closes one, and any other whitespace-separated token is text.
// Attributes, comments, and character escaping are intentionally out of scope
// — the point is the event stream, not XML conformance.
//
// The tokenizer scans a byte window it refills from the reader.  The window
// starts at 4 KiB and grows only when a single token outgrows it, so a
// document of any length streams through in memory bounded by its longest
// token; combined with the engine package this realizes the paper's
// single-pass, depth-bounded evaluation claim end to end.  The scan works on
// bytes: ASCII bytes are classified by table and '>' is found with
// bytes.IndexByte, and only bytes ≥ 0x80 are decoded as runes, so Unicode
// whitespace such as U+00A0 still separates tokens.  A token holding
// invalid UTF-8 is rewritten with one U+FFFD per bad byte.
//
// Labels are looked up as views into the window (alphabet.IndexBytes), and
// in-alphabet labels reuse the alphabet's canonical strings, so an
// interning tokenizer retokenizes documents whose labels the queries know
// at zero allocations per token after the first document (the claim
// pinned by the hotpath-alloc analyzer and the AllocsPerRun regression
// tests; labels outside the alphabet still materialize one string each).
type Tokenizer struct {
	r     io.Reader
	buf   []byte // the window: buf[pos:end] is read but not yet consumed
	pos   int
	end   int
	rerr  error  // read error waiting behind the buffered bytes
	tok   []byte // scratch for tokens rewritten with U+FFFD, reused across tokens
	err   error  // sticky error (io.EOF after the last token)
	alpha *alphabet.Alphabet
}

const (
	// windowSize is the window a tokenizer starts with.
	windowSize = 4096
	// maxKeptWindow is the largest window (or rewrite scratch) Reset keeps:
	// one huge token grows the window, and Reset drops it back to
	// windowSize so a long-lived tokenizer does not pin it.
	maxKeptWindow = 64 << 10
	// maxEmptyReads is how many reads returning neither bytes nor an error
	// fill accepts in a row before failing with io.ErrNoProgress, as
	// bufio.Reader does.
	maxEmptyReads = 100
)

// Byte classes of the scan.  A text token runs over classText bytes and
// decoded non-space runes; classSpace and classOpen bytes end it.
const (
	classText  = iota // any other ASCII byte
	classSpace        // ASCII whitespace
	classOpen         // '<'
	classHigh         // ≥ 0x80: part of a multi-byte rune, or invalid
)

var byteClass = func() (c [256]uint8) {
	for b := 0x80; b < 0x100; b++ {
		c[b] = classHigh
	}
	for _, b := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		c[b] = classSpace
	}
	c['<'] = classOpen
	return c
}()

// NewTokenizer returns a tokenizer reading from r.  Its events are not
// interned (Event.Sym stays 0); use NewInterningTokenizer when the query
// alphabet is known up front.
func NewTokenizer(r io.Reader) *Tokenizer {
	return NewInterningTokenizer(r, nil)
}

// NewInterningTokenizer returns a tokenizer that additionally resolves every
// event's label against alpha at tokenize time, setting Event.Sym to the
// compiled symbol ID (labels outside alpha get the dedicated out-of-alphabet
// ID).  This pushes symbol interning to the edge of the pipeline: downstream
// compiled runners index their transition tables directly and never look a
// string up again.  A nil alpha yields uninterned events, as NewTokenizer.
func NewInterningTokenizer(r io.Reader, alpha *alphabet.Alphabet) *Tokenizer {
	return &Tokenizer{r: r, buf: make([]byte, windowSize), alpha: alpha}
}

// Reset repoints the tokenizer at a new input, clearing any sticky error
// while keeping its window and alphabet binding.  A long-lived consumer
// serving one document after another — a serve.Pool shard worker holds
// exactly one interning tokenizer — tokenizes every document
// allocation-free after the first.  A window that one oversized token grew
// past 64 KiB is dropped back to the 4 KiB default here, so such a
// document does not pin its size for the life of the tokenizer.
func (t *Tokenizer) Reset(r io.Reader) {
	if t.buf == nil || len(t.buf) > maxKeptWindow {
		t.buf = make([]byte, windowSize)
	}
	if cap(t.tok) > maxKeptWindow {
		t.tok = nil
	}
	t.r = r
	t.pos, t.end = 0, 0
	t.rerr, t.err = nil, nil
}

// Next returns the next event.  At the end of the input it returns io.EOF;
// any other error is a syntax or read error.  After a non-nil error every
// subsequent call returns the same error.
//
//nwvet:hotpath
func (t *Tokenizer) Next() (Event, error) {
	if t.err != nil {
		return Event{}, t.err
	}
	e, err := t.next()
	if err != nil {
		t.err = err
		return Event{}, err
	}
	return e, nil
}

//nwvet:hotpath
func (t *Tokenizer) next() (Event, error) {
	// Skip inter-token whitespace.  Only a byte ≥ 0x80 is decoded, so
	// multi-byte whitespace such as U+00A0 is recognized as well.
	for {
		w := t.buf[t.pos:t.end]
		i := 0
		for i < len(w) && byteClass[w[i]] == classSpace {
			i++
		}
		t.pos += i
		if i == len(w) {
			if !t.fill() {
				return Event{}, t.takeErr() // io.EOF here is the clean end of the stream
			}
			continue
		}
		switch byteClass[w[i]] {
		case classOpen:
			return t.readTag()
		case classHigh:
			if r, size := t.decodeAt(0); unicode.IsSpace(r) {
				t.pos += size
				continue
			}
		}
		return t.readText()
	}
}

// readText consumes a text token starting at t.pos: it runs until
// whitespace, '<', or the end of the input.
//
//nwvet:hotpath
func (t *Tokenizer) readText() (Event, error) {
	i, bad := 0, false // bytes scanned past t.pos; whether any decoded as U+FFFD
	for {
		w := t.buf[t.pos:t.end]
		for i < len(w) && byteClass[w[i]] == classText {
			i++
		}
		if i < len(w) {
			if byteClass[w[i]] != classHigh {
				break // whitespace or '<'
			}
			r, size := t.decodeAt(i)
			if unicode.IsSpace(r) {
				break
			}
			bad = bad || size == 1
			i += size
			continue
		}
		if !t.fill() {
			if err := t.takeErr(); err != io.EOF {
				return Event{}, err
			}
			break
		}
	}
	name := t.buf[t.pos : t.pos+i]
	t.pos += i
	if bad {
		name = t.rewrite(name)
	}
	return InternBytes(nestedword.Internal, name, t.alpha), nil
}

// readTag consumes a tag starting at t.pos, where the window holds '<'.
func (t *Tokenizer) readTag() (Event, error) {
	i := 1 // bytes of the tag scanned past t.pos
	for {
		if j := bytes.IndexByte(t.buf[t.pos+i:t.end], '>'); j >= 0 {
			i += j
			break
		}
		i = t.end - t.pos
		if !t.fill() {
			err := t.takeErr()
			if err == io.EOF {
				tag := t.rewrite(t.buf[t.pos+1 : t.end])
				return Event{}, fmt.Errorf("docstream: unterminated tag in %q", truncate("<"+string(tag)))
			}
			return Event{}, err
		}
	}
	tag := t.buf[t.pos+1 : t.pos+i]
	t.pos += i + 1
	if !utf8.Valid(tag) {
		tag = t.rewrite(tag)
	}
	if len(tag) > 0 && tag[0] == '/' {
		name := bytes.TrimSpace(tag[1:])
		if len(name) == 0 {
			return Event{}, fmt.Errorf("docstream: empty closing tag")
		}
		return InternBytes(nestedword.Return, name, t.alpha), nil
	}
	name := bytes.TrimSpace(tag)
	if len(name) == 0 {
		return Event{}, fmt.Errorf("docstream: empty opening tag")
	}
	return InternBytes(nestedword.Call, name, t.alpha), nil
}

// decodeAt decodes the rune starting i bytes past t.pos.  While the window
// ends inside that rune it reads more input first, so a rune split across
// reads decodes whole; one cut short by the end of the input or a read
// error decodes as U+FFFD, one byte at a time — as bufio.Reader.ReadRune
// does.
func (t *Tokenizer) decodeAt(i int) (rune, int) {
	for !utf8.FullRune(t.buf[t.pos+i:t.end]) && t.fill() {
	}
	return utf8.DecodeRune(t.buf[t.pos+i : t.end])
}

// rewrite copies b into the scratch buffer rune by rune, each invalid byte
// becoming one U+FFFD, and returns the copy.
func (t *Tokenizer) rewrite(b []byte) []byte {
	t.tok = t.tok[:0]
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		t.tok = utf8.AppendRune(t.tok, r)
		b = b[size:]
	}
	return t.tok
}

// fill reads more input into the window.  The unconsumed bytes — the token
// in progress, if any — move to the front first, and the window doubles
// only when that token already fills it.  fill reports whether new bytes
// arrived; when none did, the read error that stopped it waits in t.rerr
// until takeErr hands it out.
func (t *Tokenizer) fill() bool {
	if t.rerr != nil {
		return false
	}
	if t.pos > 0 {
		t.end = copy(t.buf, t.buf[t.pos:t.end])
		t.pos = 0
	}
	if t.end == len(t.buf) {
		grown := make([]byte, 2*len(t.buf))
		copy(grown, t.buf[:t.end])
		t.buf = grown
	}
	for range maxEmptyReads {
		n, err := t.r.Read(t.buf[t.end:])
		if n < 0 || n > len(t.buf)-t.end {
			panic("docstream: reader returned an invalid byte count")
		}
		t.end += n
		if err != nil {
			t.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	t.rerr = io.ErrNoProgress
	return false
}

// takeErr hands out the pending read error and clears it, so — as with
// bufio.Reader — the next fill reads again.
func (t *Tokenizer) takeErr() error {
	err := t.rerr
	t.rerr = nil
	return err
}

// Tokenize parses a whole document into its event slice.  It is a thin
// wrapper over the incremental Tokenizer for callers that already hold the
// document in memory.
func Tokenize(doc string) ([]Event, error) {
	tk := NewTokenizer(strings.NewReader(doc))
	var events []Event
	for {
		e, err := tk.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
}

// truncate shortens error context to at most 20 bytes without splitting a
// UTF-8 rune.
func truncate(s string) string {
	const max = 20
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}

// ToNestedWord converts an event stream to the nested word it denotes.
// Mismatched or missing tags simply become pending calls and returns — one
// of the paper's arguments for nested words over trees is precisely that
// documents that do not parse into a tree can still be represented and
// processed.
func ToNestedWord(events []Event) *nestedword.NestedWord {
	ps := make([]nestedword.Position, len(events))
	for i, e := range events {
		ps[i] = nestedword.Position{Symbol: e.Label, Kind: e.Kind}
	}
	return nestedword.New(ps...)
}

// Parse tokenizes a document and returns its nested word.
func Parse(doc string) (*nestedword.NestedWord, error) {
	events, err := Tokenize(doc)
	if err != nil {
		return nil, err
	}
	return ToNestedWord(events), nil
}

// Render writes a nested word back in the XML-like syntax accepted by
// Tokenize (calls become opening tags, returns closing tags, internals
// text).
func Render(n *nestedword.NestedWord) string {
	var b strings.Builder
	for i := 0; i < n.Len(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch n.KindAt(i) {
		case nestedword.Call:
			b.WriteString("<" + n.SymbolAt(i) + ">")
		case nestedword.Return:
			b.WriteString("</" + n.SymbolAt(i) + ">")
		default:
			b.WriteString(n.SymbolAt(i))
		}
	}
	return b.String()
}

// Stats summarizes a document stream.
type Stats struct {
	Positions      int
	Elements       int
	TextTokens     int
	Depth          int
	WellFormed     bool
	PendingOpens   int
	PendingCloses  int
	DistinctLabels int
}

// Summarize computes document statistics in a single pass.
func Summarize(n *nestedword.NestedWord) Stats {
	calls, internals, _ := n.Counts()
	st := Stats{
		Positions:      n.Len(),
		Elements:       calls,
		TextTokens:     internals,
		Depth:          n.Depth(),
		WellFormed:     n.IsWellMatched(),
		PendingOpens:   len(n.PendingCalls()),
		PendingCloses:  len(n.PendingReturns()),
		DistinctLabels: len(n.Alphabet()),
	}
	return st
}

// StreamingRunner evaluates a deterministic NWA over an event stream one
// event at a time.  Its memory is the automaton state plus one hierarchical
// state per currently open element, i.e. proportional to the document depth
// — the streaming bound highlighted in Section 3.2.
type StreamingRunner struct {
	automaton *nwa.DNWA
	state     int
	stack     []int
}

// NewStreamingRunner creates a runner positioned at the start of a document.
func NewStreamingRunner(a *nwa.DNWA) *StreamingRunner {
	return &StreamingRunner{automaton: a, state: a.Start()}
}

// Feed consumes one event.
func (r *StreamingRunner) Feed(e Event) {
	switch e.Kind {
	case nestedword.Internal:
		r.state = r.automaton.StepInternal(r.state, e.Label)
	case nestedword.Call:
		lin, hier := r.automaton.StepCall(r.state, e.Label)
		r.stack = append(r.stack, hier)
		r.state = lin
	case nestedword.Return:
		hier := r.automaton.Start()
		if len(r.stack) > 0 {
			hier = r.stack[len(r.stack)-1]
			r.stack = r.stack[:len(r.stack)-1]
		}
		r.state = r.automaton.StepReturn(r.state, hier, e.Label)
	}
}

// FeedAll consumes a whole event stream.
func (r *StreamingRunner) FeedAll(events []Event) {
	for _, e := range events {
		r.Feed(e)
	}
}

// Accepting reports whether the automaton accepts the stream consumed so
// far (viewed as a complete nested word).
func (r *StreamingRunner) Accepting() bool { return r.automaton.IsAccepting(r.state) }

// Depth returns the number of currently open elements.
func (r *StreamingRunner) Depth() int { return len(r.stack) }

// Reset returns the runner to the start of a new document.
func (r *StreamingRunner) Reset() {
	r.state = r.automaton.Start()
	r.stack = r.stack[:0]
}
