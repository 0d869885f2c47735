package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval of one request.  Spans of a request share
// Req; Parent names the enclosing span of the same request.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// The spans the benchmark records, outermost first.  body.wait runs from
// the handler's start to the first Read of the request body; on
// POST /v1/documents that Read is the shard worker's first tokenizer
// refill, so body.wait is the queue wait.  body.read runs from that Read to
// EOF: the worker's pass over the document.
const (
	spanClient   = "client"
	spanHandler  = "handler"
	spanBodyWait = "body.wait"
	spanBodyRead = "body.read"
)

// tracer keeps spans in memory while on is set; the benchmark writes them
// out at the end of the run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64 // last request ID handed out

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the trace clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records one span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since returns the spans of requests with IDs from first on.
func (t *tracer) since(first int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Req >= first {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// middleware wraps the server's handler.  While tracing is on it records
// the handler span of every request carrying reqHeader and installs a body
// reader that stamps the first Read and EOF; while it is off the request
// goes straight through.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		body := &stampedBody{rc: r.Body, t: t}
		r.Body = body
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		if id == 0 {
			return
		}
		t.add(span{Name: spanHandler, Req: id, Parent: spanClient, Start: start, End: end})
		if first := body.first.Load(); first != 0 {
			t.add(span{Name: spanBodyWait, Req: id, Parent: spanHandler, Start: start, End: first})
			if eof := body.eof.Load(); eof != 0 {
				t.add(span{Name: spanBodyRead, Req: id, Parent: spanHandler, Start: first, End: eof})
			}
		}
	})
}

// stampedBody is a request body that records when it was first read and
// when it reached EOF.  The reads happen on whichever goroutine consumes
// the body — the shard worker for a single document — so the stamps are
// atomic.
type stampedBody struct {
	rc         io.ReadCloser
	t          *tracer
	first, eof atomic.Int64
}

func (b *stampedBody) Read(p []byte) (int, error) {
	if b.first.Load() == 0 {
		b.first.Store(b.t.now())
	}
	n, err := b.rc.Read(p)
	if err == io.EOF && b.eof.Load() == 0 {
		b.eof.Store(b.t.now())
	}
	return n, err
}

func (b *stampedBody) Close() error { return b.rc.Close() }

// spanStats summarizes one span name over a set of requests.
type spanStats struct {
	n         int
	total     time.Duration // summed duration
	self      time.Duration // summed duration minus child spans
	durations []time.Duration
}

// summarize groups spans by name and computes each one's self time: its
// duration minus the durations of the spans of the same request that name
// it as parent.
func summarize(spans []span) map[string]*spanStats {
	type key struct {
		req  int64
		name string
	}
	children := map[key]time.Duration{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.n++
		st.total += d
		st.self += d - children[key{s.Req, s.Name}]
		st.durations = append(st.durations, d)
	}
	return out
}

// printSpans writes the span summary table.
func printSpans(w io.Writer, title string, stats map[string]*spanStats) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n  %-10s %8s %12s %12s %12s\n", title, "span", "count", "mean_us", "self_us", "p99_us")
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "  %-10s %8d %12.2f %12.2f %12.2f\n", n, s.n,
			us(s.total)/float64(s.n), us(s.self)/float64(s.n), us(quantile(s.durations, 0.99)))
	}
}
