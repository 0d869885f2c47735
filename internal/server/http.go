package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/adapter"
	"repro/internal/serve"
)

// DocumentResult is the JSON verdict for one served document: which shard
// ran it, how many events the pass consumed, the maximum nesting depth
// observed, and every registered query's verdict by bundle name.
type DocumentResult struct {
	ID       string          `json:"id"`
	Shard    int             `json:"shard"`
	Events   int             `json:"events"`
	MaxDepth int             `json:"max_depth"`
	Verdicts map[string]bool `json:"verdicts"`
}

// errorBody is the JSON error envelope for every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// Status is the GET /v1/status document: the active bundle generation's
// identity (the same schema `nwtool bundle -json` prints), the pool shape,
// and a snapshot of the serving counters.
type Status struct {
	BundleInfo    BundleInfo  `json:"bundle_info"`
	Shards        int         `json:"shards"`
	QueueCap      int         `json:"queue_cap"`
	UptimeSec     float64     `json:"uptime_sec"`
	Reloads       int64       `json:"reloads"`
	EventsPerSec  float64     `json:"events_per_sec"`
	Served        int64       `json:"served"`
	Failed        int64       `json:"failed"`
	Canceled      int64       `json:"canceled"`
	Rejected      int64       `json:"rejected"`
	Events        int64       `json:"events"`
	ShardStats    []ShardJSON `json:"shard_stats"`
	LatencyP50Sec float64     `json:"latency_p50_sec"`
	LatencyP90Sec float64     `json:"latency_p90_sec"`
	LatencyP99Sec float64     `json:"latency_p99_sec"`
	LatencyMaxSec float64     `json:"latency_max_sec"`
}

// ShardJSON is one shard's row in the Status document.
type ShardJSON struct {
	Shard      int   `json:"shard"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Served     int64 `json:"served"`
	Failed     int64 `json:"failed"`
	Events     int64 `json:"events"`
}

// Handler returns the Server's route table, ready to mount on an
// http.Server (or httptest).  Routes:
//
//	POST /v1/documents[?id=ID][&format=xml|json|trace]
//	                            serve one document (body = document text;
//	                            format routes the body through the matching
//	                            internal/adapter event source instead of the
//	                            native tokenizer)
//	POST /v1/batch              serve an NDJSON stream of documents (a line's
//	                            optional "format" field works like ?format=)
//	POST /v1/reload             swap in a freshly opened bundle
//	GET  /v1/bundle             the active generation's raw NWQ1 container
//	                            (ETag = content hash, If-None-Match → 304) —
//	                            how peers self-provision (docs/DISTRIBUTION.md)
//	GET  /v1/bundle.sig         the generation's detached NWS1 signature
//	                            envelope (404 when the bundle is unsigned)
//	GET  /v1/status             bundle identity + serving counters (JSON)
//	GET  /metrics               Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/documents", s.handleDocument)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("GET /v1/bundle", s.handleBundle)
	mux.HandleFunc("GET /v1/bundle.sig", s.handleBundleSig)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON writes one JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError maps a serving error to its HTTP status and JSON envelope.
// The two serve sentinels get their contract codes — ErrQueueFull is 429
// (transient overload, shed at the edge), ErrClosed and a closed Server
// are 503 (going away, retry elsewhere) — both with Retry-After.  An
// oversized body is 413, everything else (tokenizer errors, malformed
// batch lines) is 400.
func writeError(w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, serve.ErrClosed), errors.Is(err, ErrServerClosed):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.As(err, &maxErr):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// result converts one pool Result into the wire schema using the
// generation's verdict-name table.
func (st *poolState) result(res serve.Result) DocumentResult {
	out := DocumentResult{
		ID:       res.ID,
		Shard:    res.Shard,
		Events:   res.Engine.Events,
		MaxDepth: res.Engine.MaxDepth,
		Verdicts: make(map[string]bool, len(st.names)),
	}
	for i, name := range st.names {
		out.Verdicts[name] = res.Engine.Verdicts[i]
	}
	return out
}

// handleDocument serves POST /v1/documents: the request body is one
// document in the XML-like syntax — or, with ?format=xml|json|trace, in
// that real input format, decoded through the matching internal/adapter
// event source interned against the active generation's alphabet — the
// optional ?id= names it for shard routing, and the response is its
// DocumentResult.  Submission is fail-fast (TrySubmit/TrySubmitSource): a
// full shard queue answers 429 immediately instead of parking the handler
// goroutine — per-request backpressure belongs to the batch endpoint.
func (s *Server) handleDocument(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()

	id := r.URL.Query().Get("id")
	if id == "" {
		id = fmt.Sprintf("doc-%d", s.nextID.Add(1))
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var fut *serve.Future
	if format := r.URL.Query().Get("format"); format != "" {
		// The adapter wraps the request body; the shard worker drives it
		// while this handler blocks on the future, so the body is read
		// from exactly one goroutine at a time.
		src, err := adapter.New(format, body, st.pool.Engine().Alphabet())
		if err != nil {
			writeError(w, err)
			return
		}
		fut, err = st.pool.TrySubmitSource(r.Context(), id, src)
		if err != nil {
			writeError(w, err)
			return
		}
	} else {
		fut, err = st.pool.TrySubmit(r.Context(), id, body)
		if err != nil {
			writeError(w, err)
			return
		}
	}
	res, err := fut.Wait(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st.result(res))
}

// batchLine is one NDJSON request line for POST /v1/batch.  Format, when
// non-empty, decodes Doc through the named internal/adapter event source
// (xml, json, trace) instead of the native tokenizer.
type batchLine struct {
	ID     string `json:"id"`
	Doc    string `json:"doc"`
	Format string `json:"format,omitempty"`
}

// batchResult is one NDJSON response line: a DocumentResult on success, or
// the input ID with an error string when that document failed.  Lines come
// back in input order regardless of which shards ran them.
type batchResult struct {
	DocumentResult
	Error string `json:"error,omitempty"`
}

// handleBatch serves POST /v1/batch: the request body is NDJSON, one
// {"id","doc"} object per line, and the response is NDJSON with one
// batchResult per input line, in input order.  Submission uses the
// blocking path — the pool's bounded queues throttle the body read, so a
// fast client is slowed to the automaton workers' speed instead of
// queueing unboundedly.  Per-document failures become error lines; the
// stream keeps going.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)

	// HTTP/1 closes the unread part of the request body at the first
	// response flush, which would truncate a batch whose lines are still
	// arriving while early verdicts stream out; full-duplex mode keeps the
	// body readable.  (HTTP/2 is full duplex already; an unsupported
	// ResponseWriter just stays half duplex.)
	_ = http.NewResponseController(w).EnableFullDuplex()

	// Pipeline: the reader goroutine submits with backpressure and hands
	// futures down a bounded channel; this goroutine resolves them in
	// order and streams response lines.  Total in-flight work is bounded
	// by the pool queues plus the channel.
	type pending struct {
		id  string
		fut *serve.Future
		err error
	}
	futs := make(chan pending, 2*st.pool.Shards())
	go func() {
		defer close(futs)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64<<10), int(s.cfg.MaxBodyBytes))
		n := 0
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			n++
			var in batchLine
			if err := json.Unmarshal([]byte(line), &in); err != nil {
				futs <- pending{id: fmt.Sprintf("line-%d", n), err: fmt.Errorf("malformed batch line: %w", err)}
				continue
			}
			if in.ID == "" {
				in.ID = fmt.Sprintf("doc-%d", s.nextID.Add(1))
			}
			var fut *serve.Future
			var err error
			if in.Format != "" {
				var src adapter.Source
				src, err = adapter.New(in.Format, strings.NewReader(in.Doc), st.pool.Engine().Alphabet())
				if err == nil {
					fut, err = st.pool.SubmitSource(r.Context(), in.ID, src)
				}
			} else {
				fut, err = st.pool.Submit(r.Context(), in.ID, strings.NewReader(in.Doc))
			}
			futs <- pending{id: in.ID, fut: fut, err: err}
		}
		if err := sc.Err(); err != nil {
			futs <- pending{id: "body", err: err}
		}
	}()

	flusher, _ := w.(http.Flusher)
	for p := range futs {
		line := batchResult{DocumentResult: DocumentResult{ID: p.id}}
		switch {
		case p.err != nil:
			line.Error = p.err.Error()
		default:
			if res, err := p.fut.Wait(r.Context()); err != nil {
				line.Error = err.Error()
			} else {
				line.DocumentResult = st.result(res)
			}
		}
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleReload serves POST /v1/reload: re-open the bundle path, boot a new
// pool, swap.  The response is the new generation's BundleInfo.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	info, err := s.Reload()
	if err != nil {
		if errors.Is(err, ErrServerClosed) {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleBundle serves GET /v1/bundle: the active generation's raw NWQ1
// container bytes, so a peer booted with -queryset-url self-provisions
// from this server.  The ETag is the container's quoted hex content hash —
// the same value the bundlecache keys entries by — and a matching
// If-None-Match answers 304 with no body, so a fleet's periodic refresh
// is one conditional request per worker.  The bytes are written while
// holding a generation reference, so the mapped region cannot be unmapped
// mid-response even if a reload swaps generations.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()
	if st.raw == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "bundle has no serialized form"})
		return
	}
	if st.etag != "" {
		w.Header().Set("ETag", st.etag)
		for _, match := range strings.Split(r.Header.Get("If-None-Match"), ",") {
			if strings.TrimSpace(match) == st.etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(st.raw)))
	w.Write(st.raw)
}

// handleBundleSig serves GET /v1/bundle.sig: the detached NWS1 signature
// envelope that shipped next to the active bundle, or 404 when it was
// loaded unsigned.
func (s *Server) handleBundleSig(w http.ResponseWriter, r *http.Request) {
	st, err := s.acquire()
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.release()
	if len(st.sig) == 0 {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "bundle is unsigned"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(st.sig)))
	w.Write(st.sig)
}

// status assembles the Status document from the active generation.
func (s *Server) status() (Status, error) {
	st, err := s.acquire()
	if err != nil {
		return Status{}, err
	}
	defer st.release()
	stats := st.pool.Stats()
	out := Status{
		BundleInfo:    st.info,
		Shards:        st.pool.Shards(),
		QueueCap:      st.pool.QueueCap(),
		UptimeSec:     time.Since(s.start).Seconds(),
		Reloads:       s.reloads.Load(),
		EventsPerSec:  s.rates.observe(time.Now(), stats.Events),
		Served:        stats.Served,
		Failed:        stats.Failed,
		Canceled:      stats.Canceled,
		Rejected:      stats.Rejected,
		Events:        stats.Events,
		LatencyP50Sec: stats.Latency.P50.Seconds(),
		LatencyP90Sec: stats.Latency.P90.Seconds(),
		LatencyP99Sec: stats.Latency.P99.Seconds(),
		LatencyMaxSec: stats.Latency.Max.Seconds(),
	}
	for _, sh := range stats.Shards {
		out.ShardStats = append(out.ShardStats, ShardJSON{
			Shard:      sh.Shard,
			QueueDepth: sh.QueueDepth,
			QueueCap:   sh.QueueCap,
			Served:     sh.Served,
			Failed:     sh.Failed,
			Events:     sh.Events,
		})
	}
	return out, nil
}

// handleStatus serves GET /v1/status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.status()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
