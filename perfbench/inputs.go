package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/query"
)

// doc is one generated request document and the verdicts the oracle
// expects for it.
type doc struct {
	body   []byte
	format string // "" is the native syntax, otherwise an adapter format
	events int    // events the oracle's pass consumed
	want   []bool // expected verdicts, in bundle order
}

// inputs is everything a run sends, generated and rendered to bytes before
// any timing starts.  Request k carries docs[k mod len(docs)] under
// ids[k mod len(ids)]; a batch workload sends batches[k mod len(batches)],
// whose lines are the documents batchDocs lists under the IDs batchIDs
// lists.
type inputs struct {
	names     []string // bundle query names, in verdict order
	docs      []doc
	ids       []string
	batches   [][]byte
	batchDocs [][]int
	batchIDs  [][]string
}

// idCount is how many distinct document IDs a run cycles through.  IDs come
// from the seed alone and are never chosen to balance the hash-routed shards.
const idCount = 4096

// generate builds the workload's inputs for one seed and fills in every
// expected verdict from the oracle.
func generate(w *workload, seed int64, unplanned *query.Bundle) (*inputs, error) {
	in := &inputs{names: unplanned.Names()}
	for i := 0; i < idCount; i++ {
		in.ids = append(in.ids, fmt.Sprintf("s%d-%d", seed, i))
	}
	for i := 0; i < w.docs; i++ {
		docSeed := seed*1_000_003 + int64(i)
		switch {
		case !w.batch:
			in.docs = append(in.docs, doc{body: nativeDoc(docSeed, w.events, w.depth)})
		case i%2 == 0:
			in.docs = append(in.docs, doc{format: "xml", body: xmlDoc(rand.New(rand.NewSource(docSeed)), w.events)})
		default:
			in.docs = append(in.docs, doc{format: "json", body: jsonDoc(rand.New(rand.NewSource(docSeed)), w.events)})
		}
	}
	for j := 0; j < w.batches; j++ {
		var body bytes.Buffer
		var idx []int
		var ids []string
		for l := 0; l < w.lines; l++ {
			k := (j*w.lines + l) % len(in.docs)
			id := fmt.Sprintf("s%d-b%d-%d", seed, j, l)
			line, err := json.Marshal(struct {
				ID     string `json:"id"`
				Doc    string `json:"doc"`
				Format string `json:"format"`
			}{id, string(in.docs[k].body), in.docs[k].format})
			if err != nil {
				return nil, err
			}
			body.Write(line)
			body.WriteByte('\n')
			idx = append(idx, k)
			ids = append(ids, id)
		}
		in.batches = append(in.batches, body.Bytes())
		in.batchDocs = append(in.batchDocs, idx)
		in.batchIDs = append(in.batchIDs, ids)
	}
	if err := expect(in.docs, unplanned); err != nil {
		return nil, err
	}
	return in, nil
}

// nativeDoc renders one generated document in the native syntax, E21's
// generator over the labels a, b, c.
func nativeDoc(seed int64, events, depth int) []byte {
	stream := generator.NewDocumentStream(seed, events, depth, e21Labels)
	var evs []docstream.Event
	for {
		e, err := stream.Next()
		if err != nil {
			break // io.EOF: the generator reports no other error
		}
		evs = append(evs, e)
	}
	return []byte(docstream.Render(docstream.ToNestedWord(evs)))
}

// xmlDoc renders an E27-shaped library of books of about the given number
// of events.  The seed picks per document whether titles precede authors,
// follow them, vary, or are missing, and whether "close" and "write" occur
// in the text, so the DSL set's verdicts differ between documents.
func xmlDoc(rng *rand.Rand, events int) []byte {
	mode := rng.Intn(4)
	words := vocabulary(rng)
	var b bytes.Buffer
	b.WriteString("<library>")
	for n := 2; n < events; n += 10 {
		b.WriteString("<book>")
		title := "<title>" + words[rng.Intn(len(words))] + " " + strconv.Itoa(n) + "</title>"
		author := "<author>" + words[rng.Intn(len(words))] + " m</author>"
		switch {
		case mode == 3:
			title = "<isbn>" + strconv.Itoa(n) + " x</isbn>"
		case mode == 1, mode == 2 && rng.Intn(2) == 0:
			title, author = author, title
		}
		b.WriteString(title)
		b.WriteString(author)
		b.WriteString("</book>")
	}
	b.WriteString("</library>")
	return b.Bytes()
}

// jsonDoc renders an E27-shaped array of records of about the given number
// of events, varied by the seed like xmlDoc.
func jsonDoc(rng *rand.Rand, events int) []byte {
	key := "title"
	if rng.Intn(3) == 0 {
		key = "name"
	}
	words := vocabulary(rng)
	var b bytes.Buffer
	b.WriteByte('[')
	for n := 2; n < events; n += 8 {
		if n > 2 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{%q: %q, "year": %d, %q: true}`,
			key, words[rng.Intn(len(words))], 2007+rng.Intn(7), words[rng.Intn(len(words))])
	}
	b.WriteByte(']')
	return b.Bytes()
}

// vocabulary returns a document's text words; about half the documents may
// mention close and write.
func vocabulary(rng *rand.Rand) []string {
	if rng.Intn(2) == 0 {
		return []string{"nested", "words", "alur", "open", "read"}
	}
	return []string{"nested", "words", "alur", "open", "read", "close", "write"}
}

// expect is the verdict oracle.  It registers the unplanned bundle on an
// engine of its own and runs every document through engine.RunReader (or
// the engine over the document's adapter source), then cross-checks a
// sample against query.RunWord on the materialized nested word, one fresh
// runner per query.
func expect(docs []doc, unplanned *query.Bundle) error {
	eng := engine.New()
	if _, err := eng.RegisterBundle(unplanned); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	alpha := eng.Alphabet()
	for i := range docs {
		d := &docs[i]
		var res *engine.Result
		var err error
		if d.format == "" {
			res, err = eng.RunReader(bytes.NewReader(d.body))
		} else {
			var src adapter.Source
			if src, err = adapter.New(d.format, bytes.NewReader(d.body), alpha); err == nil {
				res, err = eng.Run(src)
			}
		}
		if err != nil {
			return fmt.Errorf("oracle: document %d: %w", i, err)
		}
		d.want, d.events = append([]bool(nil), res.Verdicts...), res.Events
	}
	// The sample stops at 16 documents or half a million events, whichever
	// comes first, and always holds at least one document.
	for i, sampled := 0, 0; i < len(docs) && i < 16 && (i == 0 || sampled < 500_000); i++ {
		sampled += docs[i].events
		evs, err := decode(&docs[i], alpha)
		if err != nil {
			return fmt.Errorf("oracle: document %d: %w", i, err)
		}
		nw := docstream.ToNestedWord(evs)
		for q := 0; q < unplanned.Len(); q++ {
			if got := query.RunWord(unplanned.Query(q).NewRunner(), alpha, nw); got != docs[i].want[q] {
				return fmt.Errorf("oracle: document %d query %q: engine says %v, RunWord says %v",
					i, unplanned.Name(q), docs[i].want[q], got)
			}
		}
	}
	return nil
}

// open returns a document's event source, interned against alpha: the
// native tokenizer, or the adapter for the document's format.
func (d *doc) open(alpha *alphabet.Alphabet) (engine.EventSource, error) {
	if d.format == "" {
		return docstream.NewInterningTokenizer(bytes.NewReader(d.body), alpha), nil
	}
	return adapter.New(d.format, bytes.NewReader(d.body), alpha)
}

// decode materializes a document's interned event stream.
func decode(d *doc, alpha *alphabet.Alphabet) ([]docstream.Event, error) {
	src, err := d.open(alpha)
	if err != nil {
		return nil, err
	}
	return drain(src, nil)
}

// drain reads a source to its end.
func drain(src engine.EventSource, dst []docstream.Event) ([]docstream.Event, error) {
	for {
		e, err := src.Next()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, e)
	}
}
