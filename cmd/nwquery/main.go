// Command nwquery streams XML-like documents through compiled
// nested-word-automaton queries, all evaluated by the engine package in one
// left-to-right pass per document with memory bounded by the document depth
// times the number of queries (Section 3.2 of the paper).
//
// Usage:
//
//	nwquery [-format xml|json|trace] [-labels l1,l2,...]
//	        [-order l1,l2,...] [-path l1,l2,...] [-dsl QUERIES]
//	        [-dir directory] [file ...]
//	nwquery [-format ...] -queryset queries.nwq [-dir directory] [file ...]
//
// Documents come from the positional file arguments and every regular file
// under -dir; with neither, standard input is read as one streamed
// document.  A single document gets one engine pass and its per-query
// verdicts.  Several documents are served through a sharded serve.Pool (its
// default shards and queue depth, routed by a hash of the document name),
// and the report is the per-query accept counts and the throughput.
//
// The registered queries are well-formedness always, plus a linear-order
// query (-order), a hierarchical path query (-path), and semicolon-separated
// textual queries (-dsl, see internal/query/dsl) when given.  They need the
// document alphabet up front.  Pass it with -labels to stay fully streaming
// (labels are interned to compiled symbol IDs at the tokenizer; labels not
// listed map to the dedicated out-of-alphabet ID and are uniformly
// rejected); without -labels every document is decoded once first to
// discover the alphabet, and -order/-path/-dsl labels join it.  With
// -queryset no automaton is compiled at all: the serialized bundle written
// by `nwtool compile` is loaded (mmap'd read-only where available) and its
// alphabet and query set are used as-is, which both stays fully streaming
// and makes cold starts independent of query complexity.
//
// -format routes the input through one of the internal/adapter event
// sources — real XML via encoding/xml, JSON, or an enter/exit program trace
// — instead of the native XML-like tokenizer; everything downstream (the
// engine pass, the queries, the verdicts) is unchanged.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/query/dsl"
	"repro/internal/serve"
)

func main() {
	format := flag.String("format", "", "input format: xml, json, or trace (default: the native XML-like token syntax)")
	labelsFlag := flag.String("labels", "", "comma-separated document alphabet: labels are interned to compiled symbol IDs at the tokenizer and the engine streams the input directly (labels not listed map to the out-of-alphabet ID and are uniformly rejected); without -labels every document is decoded once to discover the alphabet")
	order := flag.String("order", "", "comma-separated labels for a linear-order query")
	path := flag.String("path", "", "comma-separated labels for a hierarchical path query")
	dslFlag := flag.String("dsl", "", "semicolon-separated DSL queries (e.g. 'within book: title before author'); their labels join the alphabet")
	queryset := flag.String("queryset", "", "serialized query bundle from `nwtool compile`: boot from it instead of compiling (-labels/-order/-path/-dsl must not be given; the bundle fixes the alphabet and the queries)")
	dir := flag.String("dir", "", "query every regular file under this directory")
	flag.Parse()

	paths, err := documentPaths(*dir, flag.Args())
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 && (*dir != "" || flag.NArg() > 0) {
		fatal(fmt.Errorf("no documents to query"))
	}

	var in io.Reader = os.Stdin // one document: streamed
	var docs []document         // several documents: buffered for the pool
	switch len(paths) {
	case 0:
	case 1:
		f, err := os.Open(paths[0])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	default:
		for _, p := range paths {
			docs = append(docs, readDocument(p))
		}
	}

	eng := engine.New()
	var alpha *alphabet.Alphabet
	var buffered []docstream.Event
	if *queryset != "" {
		// Bundle boot: the serialized tables are loaded (zero-copy over the
		// mapped file) and registered as-is; no automaton is compiled and the
		// pass is always fully streaming.
		if *labelsFlag != "" || *order != "" || *path != "" || *dslFlag != "" {
			fatal(fmt.Errorf("-queryset carries its own alphabet and queries; drop -labels/-order/-path/-dsl"))
		}
		bundle, err := query.OpenBundle(*queryset)
		if err != nil {
			fatal(err)
		}
		defer bundle.Close()
		if _, err := eng.RegisterBundle(bundle); err != nil {
			fatal(err)
		}
		alpha = bundle.Alphabet()
	} else {
		exprs, err := dsl.ParseList(*dslFlag)
		if err != nil {
			fatal(err)
		}
		labels := query.SplitLabels(*labelsFlag)
		labels = append(labels, query.SplitLabels(*order)...)
		labels = append(labels, query.SplitLabels(*path)...)
		labels = append(labels, dsl.Labels(exprs...)...)

		// Without -labels the alphabet must be discovered first, which costs
		// one buffered pass over the input; with -labels the engine consumes
		// the input directly and nothing proportional to a document is ever
		// stored.
		if *labelsFlag == "" {
			seen := map[string]bool{}
			discover := func(events []docstream.Event) {
				for _, e := range events {
					if !seen[e.Label] {
						seen[e.Label] = true
						labels = append(labels, e.Label)
					}
				}
			}
			if docs == nil {
				if buffered, err = readEvents(*format, in); err != nil {
					fatal(err)
				}
				discover(buffered)
			}
			for _, d := range docs {
				events, err := readEvents(*format, bytes.NewReader(d.body))
				if err != nil {
					fatal(fmt.Errorf("%s: %w", d.name, err))
				}
				discover(events)
			}
		}
		alpha = alphabet.New(labels...)
		names, queries := query.StandardSet(alpha, query.SplitLabels(*order), query.SplitLabels(*path))
		dslNames, dslQueries, err := dsl.Queries(alpha, exprs)
		if err != nil {
			fatal(err)
		}
		names = append(names, dslNames...)
		queries = append(queries, dslQueries...)
		for i, q := range queries {
			if _, err := eng.RegisterQuery(names[i], q); err != nil {
				fatal(err)
			}
		}
	}

	if docs != nil {
		serveAll(eng, *format, docs)
		return
	}

	var res *engine.Result
	var unknown *unknownLabelSource
	if buffered != nil {
		res, err = eng.RunEvents(buffered)
	} else {
		// In streaming mode a label missing from -labels maps to the
		// dedicated out-of-alphabet symbol ID, which drives every automaton
		// to its dead state.  That is uniform and correct, but a false
		// verdict caused by an incomplete -labels list looks exactly like a
		// query rejection, so track the out-of-alphabet labels — the
		// event source has already interned each event, making the check one
		// integer compare — and summarize them once at exit.
		var src engine.EventSource = docstream.NewInterningTokenizer(in, alpha)
		if *format != "" {
			src, err = adapter.New(*format, in, alpha)
			if err != nil {
				fatal(err)
			}
		}
		unknown = &unknownLabelSource{
			src:    src,
			alpha:  alpha,
			counts: map[string]int{},
		}
		res, err = eng.Run(unknown)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("document: %d events, max open elements %d\n", res.Events, res.MaxDepth)
	for i, name := range eng.Names() {
		fmt.Printf("%-30s : %v\n", name, res.Verdicts[i])
	}
	unknown.report(os.Stderr)
}

// document is one unit of a multi-document run: a display name (the
// shard routing key) and the raw bytes.
type document struct {
	name string
	body []byte
}

// documentPaths lists the explicit file arguments followed by every regular
// file under dir.
func documentPaths(dir string, files []string) ([]string, error) {
	paths := append([]string(nil), files...)
	if dir == "" {
		return paths, nil
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, path)
		}
		return err
	})
	return paths, err
}

func readDocument(path string) document {
	body, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return document{name: path, body: body}
}

// serveAll runs every document through a sharded pool with its default
// settings, aggregating the verdicts on the shard workers through the
// result callback, and reports the accept counts and the throughput.
func serveAll(eng *engine.Engine, format string, docs []document) {
	var mu sync.Mutex
	accepted := make([]int, eng.Len())
	var failures []string
	pool, err := serve.NewPool(eng, serve.WithOnResult(func(r serve.Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r.ID, r.Err))
			return
		}
		for i, v := range r.Engine.Verdicts {
			if v {
				accepted[i]++
			}
		}
	}))
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	start := time.Now()
	for _, d := range docs {
		if format != "" {
			// Adapter formats: the shard worker drives the adapter (one per
			// document) interned against the serving alphabet.
			src, err := adapter.New(format, bytes.NewReader(d.body), eng.Alphabet())
			if err == nil {
				_, err = pool.SubmitSource(ctx, d.name, src)
			}
			if err != nil {
				fatal(err)
			}
			continue
		}
		if _, err := pool.Submit(ctx, d.name, bytes.NewReader(d.body)); err != nil {
			fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	st := pool.Stats()
	fmt.Printf("served %d documents (%d events) on %d shards in %v\n",
		st.Served, st.Events, pool.Shards(), elapsed.Round(time.Microsecond))
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("throughput: %.0f docs/s, %.2f Mev/s\n",
			float64(st.Served)/secs, float64(st.Events)/secs/1e6)
	}
	for i, name := range eng.Names() {
		fmt.Printf("%-30s : %d/%d documents\n", name, accepted[i], st.Served-st.Failed)
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		fmt.Fprintf(os.Stderr, "nwquery: %d documents failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}

// unknownLabelSource passes pre-interned events through while tallying, per
// distinct label, the events that carry the out-of-alphabet symbol ID.
type unknownLabelSource struct {
	src    engine.EventSource
	alpha  *alphabet.Alphabet
	counts map[string]int
	total  int
}

func (u *unknownLabelSource) Next() (docstream.Event, error) {
	e, err := u.src.Next()
	if err == nil && e.OutOfAlphabet(u.alpha) {
		u.counts[e.Label]++
		u.total++
	}
	return e, err
}

// report prints one deduplicated summary of the out-of-alphabet traffic: the
// event total, the distinct labels (most frequent first), and a reminder
// that such events are uniformly rejected.
func (u *unknownLabelSource) report(w io.Writer) {
	if u == nil || u.total == 0 {
		return
	}
	labels := make([]string, 0, len(u.counts))
	for l := range u.counts {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if u.counts[labels[i]] != u.counts[labels[j]] {
			return u.counts[labels[i]] > u.counts[labels[j]]
		}
		return labels[i] < labels[j]
	})
	const maxListed = 8
	listed := labels
	if len(listed) > maxListed {
		listed = listed[:maxListed]
	}
	parts := make([]string, len(listed))
	for i, l := range listed {
		parts[i] = fmt.Sprintf("%q×%d", l, u.counts[l])
	}
	suffix := ""
	if len(labels) > maxListed {
		suffix = fmt.Sprintf(", … %d more", len(labels)-maxListed)
	}
	fmt.Fprintf(w,
		"nwquery: warning: %d events carried %d distinct labels missing from -labels (%s%s); queries treat them as out-of-alphabet and reject\n",
		u.total, len(labels), strings.Join(parts, ", "), suffix)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwquery:", err)
	os.Exit(1)
}

// readEvents buffers a whole document as uninterned events — through the
// named adapter, or the native tokenizer when format is empty — for the
// alphabet-discovery pass.
func readEvents(format string, in io.Reader) ([]docstream.Event, error) {
	if format == "" {
		data, err := io.ReadAll(in)
		if err != nil {
			return nil, err
		}
		return docstream.Tokenize(string(data))
	}
	src, err := adapter.New(format, in, nil)
	if err != nil {
		return nil, err
	}
	var events []docstream.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
}
