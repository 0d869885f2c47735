package docstream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"unicode"
	"unicode/utf8"

	"repro/internal/alphabet"
	"repro/internal/nestedword"
)

// refTokenizer is the rune-at-a-time tokenizer the byte-window Tokenizer
// replaced: every rune is pulled through bufio.Reader.ReadRune, classified
// with unicode.IsSpace, and appended to a scratch token.  It is kept here
// as the oracle FuzzTokenizerMatchesReference checks the window scanner
// against, event for event and error string for error string.
type refTokenizer struct {
	r     *bufio.Reader
	tok   []byte
	err   error
	alpha *alphabet.Alphabet
}

func newRefTokenizer(r io.Reader, alpha *alphabet.Alphabet) *refTokenizer {
	return &refTokenizer{r: bufio.NewReader(r), alpha: alpha}
}

func (t *refTokenizer) Next() (Event, error) {
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

func (t *refTokenizer) next() (Event, error) {
	var c rune
	for {
		var err error
		c, _, err = t.r.ReadRune()
		if err != nil {
			return Event{}, err
		}
		if !unicode.IsSpace(c) {
			break
		}
	}
	if c == '<' {
		return t.readTag()
	}
	t.tok = utf8.AppendRune(t.tok[:0], c)
	for {
		c, _, err := t.r.ReadRune()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Event{}, err
		}
		if c == '<' {
			if err := t.r.UnreadRune(); err != nil {
				return Event{}, err
			}
			break
		}
		if unicode.IsSpace(c) {
			break
		}
		t.tok = utf8.AppendRune(t.tok, c)
	}
	return InternBytes(nestedword.Internal, t.tok, t.alpha), nil
}

func (t *refTokenizer) readTag() (Event, error) {
	t.tok = t.tok[:0]
	for {
		c, _, err := t.r.ReadRune()
		if err == io.EOF {
			return Event{}, fmt.Errorf("docstream: unterminated tag in %q", truncate("<"+string(t.tok)))
		}
		if err != nil {
			return Event{}, err
		}
		if c == '>' {
			break
		}
		t.tok = utf8.AppendRune(t.tok, c)
	}
	tag := t.tok
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

// errMidToken is the read error errAfterReader injects.
var errMidToken = errors.New("read failed mid-token")

// errAfterReader yields the first n bytes of its input and then fails with
// errMidToken on every later read — a connection dropping mid-document.
type errAfterReader struct {
	r io.Reader
	n int
}

func (e *errAfterReader) Read(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errMidToken
	}
	if len(p) > e.n {
		p = p[:e.n]
	}
	n, err := e.r.Read(p)
	e.n -= n
	if err == io.EOF {
		return n, errMidToken
	}
	return n, err
}

// eventSource is what the reference comparison drains: both tokenizers.
type eventSource interface {
	Next() (Event, error)
}

// drain collects a source's events and its terminal error string.
func drain(src eventSource) ([]Event, string) {
	var evs []Event
	for {
		e, err := src.Next()
		if err != nil {
			return evs, err.Error()
		}
		evs = append(evs, e)
	}
}

// FuzzTokenizerMatchesReference pins the byte-window Tokenizer to the
// rune-at-a-time refTokenizer: for every document, under a plain reader and
// under readers that split, delay or fail the input, both must produce the
// same events (kind, label and interned symbol) and the same terminal error
// string.
func FuzzTokenizerMatchesReference(f *testing.F) {
	f.Add("<a> hello <b> x </b> </a>")
	f.Add("<a\xff> \xfe\xfftext\xc3 </\xe2\x82a> \xed\xa0\x80 <\xf0\x9f\x98")
	f.Add("<a>\u0085b c <b>　</b> </a> \u0085")
	f.Add(strings.Repeat("x", 4095) + "é <a> " + strings.Repeat("y", 4093) + "€</a>")
	f.Add(strings.Repeat(" ", 4095) + "  <abcdefghij> </abcdefghij>")
	f.Add(strings.Repeat(" ", 4090) + "<abcdefghij> </abcdefghij>")
	f.Add("<" + strings.Repeat("éunterminated", 500))
	f.Add("</> <> < / > text< b >")
	alpha := alphabet.New("a", "b", "hello", "é")
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"plain", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<14 {
			doc = doc[:1<<14]
		}
		check := func(name string, mk func() io.Reader) {
			for _, a := range []*alphabet.Alphabet{nil, alpha} {
				want, wantErr := drain(newRefTokenizer(mk(), a))
				got, gotErr := drain(NewInterningTokenizer(mk(), a))
				if gotErr != wantErr {
					t.Fatalf("%s: error %q, reference %q", name, gotErr, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d events, reference %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: event %d = %+v, reference %+v", name, i, got[i], want[i])
					}
				}
			}
		}
		for _, rd := range readers {
			check(rd.name, func() io.Reader { return rd.wrap(strings.NewReader(doc)) })
		}
		cut := len(doc) / 2
		check("error mid-stream", func() io.Reader {
			return &errAfterReader{r: strings.NewReader(doc), n: cut}
		})
		check("one-byte error mid-stream", func() io.Reader {
			return iotest.OneByteReader(&errAfterReader{r: strings.NewReader(doc), n: cut})
		})
	})
}
