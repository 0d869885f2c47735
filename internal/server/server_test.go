package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/query"
	"repro/internal/serve"
)

// writeTestBundle compiles the standard {a,b,c} query set (well-formedness,
// one order query, one path query) and writes it as a bundle file, the way
// `nwtool compile` would.
func writeTestBundle(t testing.TB) string {
	t.Helper()
	alpha := alphabet.New("a", "b", "c")
	names, queries := query.StandardSet(alpha, []string{"a", "b"}, []string{"a", "c"})
	b := query.NewBundle(alpha)
	for i, q := range queries {
		if err := b.Add(names[i], q); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "queries.nwq")
	if err := os.WriteFile(path, b.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testServer boots a Server over a fresh test bundle plus an httptest
// front; both are torn down with the test.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.BundlePath == "" {
		cfg.BundlePath = writeTestBundle(t)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// testCorpus renders well-matched random documents as text, so the same
// bytes can travel over HTTP, into a pool reader, and through the serial
// engine.
func testCorpus(rng *rand.Rand, docs int) []string {
	corpus := make([]string, docs)
	for i := range corpus {
		n := generator.RandomDocument(rng, 20+rng.Intn(120), 8, []string{"a", "b", "c"})
		corpus[i] = docstream.Render(n)
	}
	return corpus
}

// serialVerdicts evaluates the corpus on a serial engine booted from the
// same bundle file — the ground truth all serving paths must match.
func serialVerdicts(t testing.TB, bundlePath string, corpus []string) ([]map[string]bool, []string) {
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
	for i, doc := range corpus {
		r, err := eng.RunReader(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = make(map[string]bool, len(names))
		for q, name := range names {
			out[i][name] = r.Verdicts[q]
		}
	}
	return out, names
}

func postDocument(t testing.TB, client *http.Client, base, id, doc string) (int, DocumentResult, string) {
	t.Helper()
	resp, err := client.Post(base+"/v1/documents?id="+id, "text/plain", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var res DocumentResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("status %d, unparseable body %q: %v", resp.StatusCode, body, err)
		}
	}
	return resp.StatusCode, res, string(body)
}

// TestHTTPDifferential is the serving acceptance test: on a 1200-document
// corpus, verdicts served over HTTP (both the single-document and the
// NDJSON batch endpoint) and verdicts from direct pool submission must be
// identical to serial engine evaluation of the same bytes.
func TestHTTPDifferential(t *testing.T) {
	bundle := writeTestBundle(t)
	rng := rand.New(rand.NewSource(41))
	const docs = 1200
	corpus := testCorpus(rng, docs)
	want, names := serialVerdicts(t, bundle, corpus)

	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 4, QueueDepth: 32})
	_ = srv

	// Path 1: HTTP single-document endpoint.
	client := ts.Client()
	for i, doc := range corpus {
		code, res, body := postDocument(t, client, ts.URL, fmt.Sprintf("doc-%d", i), doc)
		if code != http.StatusOK {
			t.Fatalf("doc %d: status %d, body %s", i, code, body)
		}
		for _, name := range names {
			if res.Verdicts[name] != want[i][name] {
				t.Errorf("doc %d query %q: HTTP %v, serial %v", i, name, res.Verdicts[name], want[i][name])
			}
		}
	}

	// Path 2: HTTP batch endpoint, all documents in one NDJSON stream.
	var req bytes.Buffer
	enc := json.NewEncoder(&req)
	for i, doc := range corpus {
		enc.Encode(map[string]string{"id": fmt.Sprintf("doc-%d", i), "doc": doc})
	}
	resp, err := client.Post(ts.URL+"/v1/batch", "application/x-ndjson", &req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lines := 0
	for sc.Scan() {
		var res struct {
			DocumentResult
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("batch line %d: %v", lines, err)
		}
		if res.Error != "" {
			t.Fatalf("batch line %d (%s): %s", lines, res.ID, res.Error)
		}
		if res.ID != fmt.Sprintf("doc-%d", lines) {
			t.Fatalf("batch line %d out of order: id %q", lines, res.ID)
		}
		for _, name := range names {
			if res.Verdicts[name] != want[lines][name] {
				t.Errorf("batch doc %d query %q: HTTP %v, serial %v", lines, name, res.Verdicts[name], want[lines][name])
			}
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != docs {
		t.Fatalf("batch returned %d lines, want %d", lines, docs)
	}

	// Path 3: direct pool submission from the same bundle file.
	b, err := query.OpenBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pool, err := serve.NewPoolFromBundle(b, serve.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	poolNames := pool.Engine().Names()
	futs := make([]*serve.Future, docs)
	for i, doc := range corpus {
		futs[i], err = pool.Submit(context.Background(), fmt.Sprintf("doc-%d", i), strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range futs {
		res, err := f.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for q, name := range poolNames {
			if res.Engine.Verdicts[q] != want[i][name] {
				t.Errorf("pool doc %d query %q: pool %v, serial %v", i, name, res.Engine.Verdicts[q], want[i][name])
			}
		}
	}
}

// TestReloadUnderLoad races document submissions against bundle reloads:
// client goroutines hammer /v1/documents while the main goroutine swaps
// pools via /v1/reload, and every single response must be a correct
// verdict set — nothing dropped, nothing torn, in-flight documents
// finishing on whichever generation accepted them.  Run under -race this
// also checks the swap publishes safely.
func TestReloadUnderLoad(t *testing.T) {
	bundle := writeTestBundle(t)
	rng := rand.New(rand.NewSource(43))
	corpus := testCorpus(rng, 60)
	want, names := serialVerdicts(t, bundle, corpus)

	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 3, QueueDepth: 16})
	client := ts.Client()

	const workers = 6
	const perWorker = 50
	var served, retried atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for n := 0; n < perWorker; n++ {
				i := rng.Intn(len(corpus))
				for {
					code, res, body := postDocument(t, client, ts.URL, fmt.Sprintf("w%d-n%d", w, n), corpus[i])
					if code == http.StatusTooManyRequests {
						retried.Add(1)
						continue // transient overload: retry until accepted
					}
					if code != http.StatusOK {
						t.Errorf("worker %d doc %d: status %d, body %s", w, n, code, body)
						return
					}
					for _, name := range names {
						if res.Verdicts[name] != want[i][name] {
							t.Errorf("worker %d corpus doc %d query %q: got %v, want %v",
								w, i, name, res.Verdicts[name], want[i][name])
						}
					}
					served.Add(1)
					break
				}
			}
		}(w)
	}

	// Swap generations while the workers hammer the old ones.
	reloads := 0
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if served.Load() != workers*perWorker {
				t.Fatalf("served %d documents, want %d", served.Load(), workers*perWorker)
			}
			if reloads == 0 {
				t.Fatal("no reload ever ran during the load")
			}
			info, err := srv.BundleInfo()
			if err != nil {
				t.Fatal(err)
			}
			if info.Generation != int64(reloads)+1 {
				t.Fatalf("generation %d after %d reloads", info.Generation, reloads)
			}
			t.Logf("served %d documents across %d reloads (%d retries after 429)",
				served.Load(), reloads, retried.Load())
			return
		default:
			resp, err := client.Post(ts.URL+"/v1/reload", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reload status %d", resp.StatusCode)
			}
			reloads++
		}
	}
}

// TestHTTPErrorMapping pins the serve-sentinel-to-status-code contract:
// a full shard queue answers 429 with Retry-After, a closed server 503
// with Retry-After, an oversized body 413, and a malformed document 400 —
// each with a JSON error envelope.
func TestHTTPErrorMapping(t *testing.T) {
	srv, ts := testServer(t, Config{Shards: 1, QueueDepth: 1, MaxBodyBytes: 1 << 20})
	client := ts.Client()

	// Occupy the single worker and the depth-1 queue with two requests
	// whose bodies never finish arriving: the tokenizer blocks reading
	// them, so the next submission finds the queue full.
	type held struct {
		w    *io.PipeWriter
		done chan struct{}
	}
	var holds []held
	for i := 0; i < 2; i++ {
		pr, pw := io.Pipe()
		done := make(chan struct{})
		req, err := http.NewRequest("POST", ts.URL+fmt.Sprintf("/v1/documents?id=hold-%d", i), pr)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(done)
			resp, err := client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		pw.Write([]byte("<a>"))
		holds = append(holds, held{w: pw, done: done})
	}

	// Wait until both held documents are actually inside the pool (one
	// being served, one queued) before expecting 429.
	deadlineOK := false
	for tries := 0; tries < 200; tries++ {
		st, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards[0].QueueDepth >= 1 {
			deadlineOK = true
			break
		}
		code, _, _ := postDocument(t, client, ts.URL, "probe", "<a></a>")
		if code == http.StatusTooManyRequests {
			deadlineOK = true
			break
		}
	}
	if !deadlineOK {
		t.Fatal("never saturated the depth-1 queue")
	}

	resp, err := client.Post(ts.URL+"/v1/documents?id=overflow", "text/plain", strings.NewReader("<a></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Release the held documents and let them finish.
	for _, h := range holds {
		h.w.Write([]byte("</a>"))
		h.w.Close()
		<-h.done
	}

	// Malformed document: 400 with a JSON error envelope.
	code, _, body := postDocument(t, client, ts.URL, "bad", "<a unterminated")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed document: status %d, body %s", code, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("malformed document: body %q is not an error envelope", body)
	}

	// Oversized body: 413.
	srv2, ts2 := testServer(t, Config{Shards: 1, MaxBodyBytes: 64})
	_ = srv2
	big := "<a>" + strings.Repeat("x ", 200) + "</a>"
	code, _, body = postDocument(t, ts2.Client(), ts2.URL, "big", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, body %s", code, body)
	}

	// Closed server: every endpoint answers 503 with Retry-After.
	srv.Close()
	resp, err = client.Post(ts.URL+"/v1/documents?id=late", "text/plain", strings.NewReader("<a></a>"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestStatusAndMetrics checks the observability surfaces: /v1/status
// carries the bundle identity in the same schema `nwtool bundle -json`
// prints plus coherent counters, and /metrics speaks enough Prometheus
// text exposition for a scraper (counter lines, per-shard labels, a
// cumulative latency histogram ending in +Inf).
func TestStatusAndMetrics(t *testing.T) {
	bundle := writeTestBundle(t)
	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 2, QueueDepth: 8})
	client := ts.Client()

	rng := rand.New(rand.NewSource(47))
	corpus := testCorpus(rng, 40)
	for i, doc := range corpus {
		if code, _, body := postDocument(t, client, ts.URL, fmt.Sprintf("doc-%d", i), doc); code != http.StatusOK {
			t.Fatalf("doc %d: status %d, body %s", i, code, body)
		}
	}

	resp, err := client.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Served != int64(len(corpus)) {
		t.Errorf("status served %d, want %d", st.Served, len(corpus))
	}
	if st.BundleInfo.Generation != 1 || st.BundleInfo.Path != bundle {
		t.Errorf("bundle identity %+v", st.BundleInfo)
	}
	if got := len(st.BundleInfo.Bundle.Queries); got != 3 {
		t.Errorf("bundle description has %d queries, want 3", got)
	}
	for _, q := range st.BundleInfo.Bundle.Queries {
		if q.Returns != "dense" {
			t.Errorf("status query %q reports %q returns, want dense", q.Name, q.Returns)
		}
	}
	if len(st.ShardStats) != 2 || st.Shards != 2 || st.QueueCap != 8 {
		t.Errorf("pool shape: %+v", st)
	}
	var shardSum int64
	for _, sh := range st.ShardStats {
		shardSum += sh.Served
	}
	if shardSum != st.Served {
		t.Errorf("per-shard served sums to %d, aggregate %d", shardSum, st.Served)
	}
	if st.LatencyP50Sec <= 0 || st.LatencyP99Sec < st.LatencyP50Sec {
		t.Errorf("latency quantiles: %+v", st)
	}

	// The status bundle description must equal Describe of the file on
	// disk — the one-schema satellite.
	b, err := query.OpenBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := query.Describe(b)
	b.Close()
	if fmt.Sprint(st.BundleInfo.Bundle) != fmt.Sprint(onDisk) {
		t.Errorf("status bundle desc %+v != on-disk desc %+v", st.BundleInfo.Bundle, onDisk)
	}

	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(metrics)
	for _, want := range []string{
		fmt.Sprintf("nwserved_documents_served_total %d", len(corpus)),
		`nwserved_shard_queue_depth{shard="0"}`,
		`nwserved_shard_queue_depth{shard="1"}`,
		"nwserved_bundle_generation 1",
		`nwserved_document_latency_seconds_bucket{le="+Inf"} 40`,
		"nwserved_document_latency_seconds_count 40",
		"# TYPE nwserved_document_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A reload resets per-generation counters and bumps the generation.
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.BundleInfo.Generation != 2 || st.Served != 0 || st.Reloads != 1 {
		t.Errorf("after reload: generation %d served %d reloads %d", st.BundleInfo.Generation, st.Served, st.Reloads)
	}
}

// TestReloadBadBundleKeepsServing checks the failure half of the reload
// contract: when the file on disk has gone bad, Reload fails and the old
// generation keeps serving untouched.
func TestReloadBadBundleKeepsServing(t *testing.T) {
	bundle := writeTestBundle(t)
	srv, ts := testServer(t, Config{BundlePath: bundle, Shards: 2})
	client := ts.Client()

	if err := os.WriteFile(bundle, []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of a corrupt bundle: status %d, want 500", resp.StatusCode)
	}
	info, err := srv.BundleInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 {
		t.Fatalf("generation moved to %d after a failed reload", info.Generation)
	}
	if code, res, body := postDocument(t, client, ts.URL, "still-up", "<a><c>x</c></a>"); code != http.StatusOK || len(res.Verdicts) != 3 {
		t.Fatalf("old generation stopped serving: status %d, body %s", code, body)
	}
}
