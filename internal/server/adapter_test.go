package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/query/dsl"
	"repro/internal/serve"
)

// writeAdapterBundle compiles a query set over the labels the adapter
// corpus uses — including DSL queries, one of them a top-level within whose
// nondeterministic automaton must survive the bundle round trip — and
// writes it the way `nwtool compile -dsl` would.
func writeAdapterBundle(t testing.TB) string {
	t.Helper()
	alpha := alphabet.New("library", "book", "title", "author",
		"object", "array", "main", "open", "close", "read", "write")
	names, queries := query.StandardSet(alpha, []string{"title", "author"}, []string{"library", "book"})
	exprs, err := dsl.ParseList(
		"within book: title before author; contains title; no write after close; //object//array")
	if err != nil {
		t.Fatal(err)
	}
	dslNames, dslQueries, err := dsl.Queries(alpha, exprs)
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, dslNames...)
	queries = append(queries, dslQueries...)
	b := query.NewBundle(alpha)
	for i, q := range queries {
		if err := b.Add(names[i], q); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "adapter.nwq")
	if err := os.WriteFile(path, b.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// formatDoc is one corpus entry: real bytes in a named adapter format.
type formatDoc struct {
	format string
	body   string
}

// adapterCorpus builds a deterministic mixed-format corpus: XML with varying
// element order and depth (so the order, path, and within verdicts differ
// across documents), JSON values, and enter/exit traces.
func adapterCorpus(rng *rand.Rand, docs int) []formatDoc {
	var out []formatDoc
	for i := 0; i < docs; i++ {
		switch i % 3 {
		case 0:
			var sb strings.Builder
			sb.WriteString("<library>")
			for b, nb := 0, 1+rng.Intn(3); b < nb; b++ {
				sb.WriteString("<book>")
				if rng.Intn(2) == 0 {
					sb.WriteString("<title>t</title><author>a</author>")
				} else {
					sb.WriteString("<author>a</author><title>t</title>")
				}
				if rng.Intn(3) == 0 {
					sb.WriteString("<book><title>inner</title></book>")
				}
				sb.WriteString("</book>")
			}
			sb.WriteString("</library>")
			out = append(out, formatDoc{"xml", sb.String()})
		case 1:
			out = append(out, formatDoc{"json", fmt.Sprintf(
				`{"library": [{"title": "t", "n": %d}, [%d, true, null]]}`,
				rng.Intn(10), rng.Intn(10))})
		case 2:
			var sb strings.Builder
			sb.WriteString("enter main\n")
			for _, op := range []string{"open", "read", "write", "close"} {
				if rng.Intn(2) == 0 {
					sb.WriteString("enter " + op + "\nexit\n")
				} else {
					sb.WriteString(op + " 1\n")
				}
			}
			sb.WriteString("exit main\n")
			out = append(out, formatDoc{"trace", sb.String()})
		}
	}
	return out
}

// adapterSerialVerdicts evaluates the corpus serially through the adapters
// on an engine booted from the bundle — the ground truth the pool and the
// HTTP paths must match.
func adapterSerialVerdicts(t testing.TB, bundlePath string, corpus []formatDoc) ([]map[string]bool, []string) {
	t.Helper()
	b, err := query.OpenBundle(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		t.Fatal(err)
	}
	names := eng.Names()
	out := make([]map[string]bool, len(corpus))
	for i, d := range corpus {
		src, err := adapter.New(d.format, strings.NewReader(d.body), eng.Alphabet())
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Run(src)
		if err != nil {
			t.Fatalf("doc %d (%s): %v", i, d.format, err)
		}
		out[i] = make(map[string]bool, len(names))
		for q, name := range names {
			out[i][name] = r.Verdicts[q]
		}
	}
	return out, names
}

// TestAdapterPoolAgreesWithSerial: the sharded pool, fed each document
// through SubmitSource with the matching adapter, reports exactly the
// serial verdicts.
func TestAdapterPoolAgreesWithSerial(t *testing.T) {
	bundlePath := writeAdapterBundle(t)
	corpus := adapterCorpus(rand.New(rand.NewSource(23)), 60)
	want, names := adapterSerialVerdicts(t, bundlePath, corpus)

	b, err := query.OpenBundle(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewPool(eng, serve.WithShards(4), serve.WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*serve.Future, len(corpus))
	for i, d := range corpus {
		src, err := adapter.New(d.format, strings.NewReader(d.body), pool.Engine().Alphabet())
		if err != nil {
			t.Fatal(err)
		}
		futs[i], err = pool.SubmitSource(context.Background(), fmt.Sprintf("doc-%d", i), src)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, fut := range futs {
		res, err := fut.Wait(context.Background())
		if err != nil || res.Err != nil {
			t.Fatalf("doc %d: wait %v, result %v", i, err, res.Err)
		}
		for q, name := range names {
			if res.Engine.Verdicts[q] != want[i][name] {
				t.Errorf("doc %d (%s) query %q: pool %v, serial %v",
					i, corpus[i].format, name, res.Engine.Verdicts[q], want[i][name])
			}
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdapterHTTPAgreesWithSerial: POST /v1/documents?format=... and the
// batch endpoint's per-line "format" field both report the serial verdicts
// for every corpus document.
func TestAdapterHTTPAgreesWithSerial(t *testing.T) {
	bundlePath := writeAdapterBundle(t)
	corpus := adapterCorpus(rand.New(rand.NewSource(29)), 45)
	want, _ := adapterSerialVerdicts(t, bundlePath, corpus)
	_, ts := testServer(t, Config{BundlePath: bundlePath, Shards: 3, QueueDepth: 8})

	for i, d := range corpus {
		resp, err := ts.Client().Post(
			fmt.Sprintf("%s/v1/documents?id=doc-%d&format=%s", ts.URL, i, d.format),
			"application/octet-stream", strings.NewReader(d.body))
		if err != nil {
			t.Fatal(err)
		}
		var res DocumentResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("doc %d: status %d, decode %v", i, resp.StatusCode, err)
		}
		if len(res.Verdicts) != len(want[i]) {
			t.Fatalf("doc %d: %d verdicts, want %d", i, len(res.Verdicts), len(want[i]))
		}
		for name, v := range want[i] {
			if res.Verdicts[name] != v {
				t.Errorf("doc %d (%s) query %q: http %v, serial %v", i, d.format, name, res.Verdicts[name], v)
			}
		}
	}

	// The batch endpoint, with per-line formats mixed in one request.
	var req strings.Builder
	enc := json.NewEncoder(&req)
	for i, d := range corpus {
		if err := enc.Encode(batchLine{ID: fmt.Sprintf("doc-%d", i), Doc: d.body, Format: d.format}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(req.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		var res batchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Error != "" {
			t.Fatalf("batch line %d: %s", n, res.Error)
		}
		if res.ID != fmt.Sprintf("doc-%d", n) {
			t.Fatalf("batch line %d out of order: id %q", n, res.ID)
		}
		for name, v := range want[n] {
			if res.Verdicts[name] != v {
				t.Errorf("batch doc %d query %q: http %v, serial %v", n, name, res.Verdicts[name], v)
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(corpus) {
		t.Fatalf("batch returned %d lines, want %d", n, len(corpus))
	}

	// An unknown format is a client error, not a decode attempt.
	resp, err = ts.Client().Post(ts.URL+"/v1/documents?format=yaml", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// TestAdapterOversizedBody: a ?format=xml|json|trace body past MaxBodyBytes
// is refused with 413 on the adapter path, exactly as a native body is,
// while a body of the same format under the cap is served.
func TestAdapterOversizedBody(t *testing.T) {
	const limit = 512
	_, ts := testServer(t, Config{BundlePath: writeAdapterBundle(t), Shards: 1, MaxBodyBytes: limit})
	grow := func(open, item, close string) (small, big string) {
		small = open + item + close
		big = open + strings.Repeat(item, 2*limit/len(item)) + close
		return small, big
	}
	for _, tc := range []struct {
		format            string
		open, item, close string
	}{
		{"xml", "<library>", "<book><title>t</title></book>", "</library>"},
		{"json", `{"library": [`, `{"title": "t"}, `, `null]}`},
		{"trace", "enter main\n", "read 1\n", "exit main\n"},
	} {
		small, big := grow(tc.open, tc.item, tc.close)
		for _, body := range []struct {
			doc  string
			want int
		}{{small, http.StatusOK}, {big, http.StatusRequestEntityTooLarge}} {
			resp, err := ts.Client().Post(ts.URL+"/v1/documents?id=big&format="+tc.format,
				"application/octet-stream", strings.NewReader(body.doc))
			if err != nil {
				t.Fatal(err)
			}
			var e errorBody
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != body.want {
				t.Errorf("%s, %d-byte body: status %d (%q), want %d",
					tc.format, len(body.doc), resp.StatusCode, e.Error, body.want)
			}
			if body.want != http.StatusOK && (err != nil || e.Error == "") {
				t.Errorf("%s, %d-byte body: no error envelope (%v)", tc.format, len(body.doc), err)
			}
		}
	}
}
