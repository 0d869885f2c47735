package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"repro/internal/adapter"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/nestedword"
	"repro/internal/query"
	"repro/internal/serve"
)

// cost is one station's per-document cost: wall time and heap allocations.
type cost struct {
	ns, allocs, bytes float64
}

func (a cost) minus(b cost) cost { return cost{a.ns - b.ns, a.allocs - b.allocs, a.bytes - b.bytes} }
func (a cost) plus(b cost) cost  { return cost{a.ns + b.ns, a.allocs + b.allocs, a.bytes + b.bytes} }

// replica is the server's bundle opened again and served by a pool of the
// benchmark's own: what the single-goroutine replays run on.
type replica struct {
	bundle *query.Bundle
	eng    *engine.Engine
	pool   *serve.Pool

	openMs, registerMs, poolStartMs float64 // medians over the set-up replays
}

// openReplica times query.OpenBundle, engine registration, and pool start
// on the bundle file reps times each and keeps the last of each.
func openReplica(path string, reps int) (*replica, error) {
	var open, reg, start []float64
	r := &replica{}
	for i := 0; i < reps; i++ {
		if r.pool != nil {
			r.pool.Close()
			r.bundle.Close()
		}
		t0 := time.Now()
		b, err := query.OpenBundle(path)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		eng := engine.New()
		if _, err := eng.RegisterBundle(b); err != nil {
			b.Close()
			return nil, err
		}
		t2 := time.Now()
		pool, err := serve.NewPool(eng)
		if err != nil {
			b.Close()
			return nil, err
		}
		t3 := time.Now()
		r.bundle, r.eng, r.pool = b, eng, pool
		open = append(open, ms(t1.Sub(t0)))
		reg = append(reg, ms(t2.Sub(t1)))
		start = append(start, ms(t3.Sub(t2)))
	}
	r.openMs, r.registerMs, r.poolStartMs = median(open), median(reg), median(start)
	return r, nil
}

func (r *replica) close() {
	r.pool.Close()
	r.bundle.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ledger is the station-by-station cost of one document, measured at
// GOMAXPROCS=1 so that the stations add up to the end-to-end time.
type ledger struct {
	docs                      int     // documents per pass
	eventsPerDoc, bytesPerDoc float64 // means over the ledger's documents

	e2e     cost // client span per document, real HTTP
	net     cost // client span minus handler span
	server  cost // in-process ServeHTTP minus pool Submit+Wait (the batch handler for batches)
	single  cost // the same for POST /v1/documents
	serve   cost // pool Submit+Wait minus Session.Run
	decode  cost // draining the tokenizer or adapter
	engine  cost // Engine.RunEvents minus the runner steps
	run     cost // Engine.RunEvents
	dnwa    cost // summed runner steps, by runner kind
	nnwa    cost
	product cost

	xmlNsPerEvent, jsonNsPerEvent float64
	respBytes                     float64 // POST /v1/documents reply body
}

// stepper is the event-consuming face shared by query.Runner and
// query.ProductRunner.
type stepper interface {
	StepCall(sym int)
	StepInternal(sym int)
	StepReturn(sym int)
	Reset()
}

// step feeds pre-interned events to a runner the way the engine does.
func step(r stepper, evs []docstream.Event) {
	for _, e := range evs {
		sym := e.Sym - 1
		switch e.Kind {
		case nestedword.Call:
			r.StepCall(sym)
		case nestedword.Return:
			r.StepReturn(sym)
		default:
			r.StepInternal(sym)
		}
	}
}

// measureLedger replays the ledger's documents through every station.  It
// runs at GOMAXPROCS=1: the HTTP requests go out one at a time, traced, and
// every replay runs on one goroutine, so the client, handler and workers
// take turns on one CPU and the station costs add up to the end-to-end
// time.  The stations run interleaved, pass after pass, and each derived
// station is the median over passes of a per-pass difference, so a drift in
// the host's speed cancels out.
func measureLedger(w *workload, in *inputs, d *loadgen, rep *replica) (*ledger, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alpha := rep.eng.Alphabet()
	ctx := context.Background()

	// The ledger's units: the first w.ledger documents (request k = u sends
	// document u under ID u), or the first w.ledger batches.  docs lists
	// their documents; of[u] is where unit u's documents sit in docs.
	var docs []int
	of := make([][]int, w.ledger)
	for u := range of {
		unit := []int{u}
		if w.batch {
			unit = in.batchDocs[u]
		}
		for _, i := range unit {
			of[u] = append(of[u], len(docs))
			docs = append(docs, i)
		}
	}
	n := len(docs)
	lg := &ledger{docs: n}
	// Events, request IDs and paths are built before any timing.
	evs := make([][]docstream.Event, n)
	ids := make([]string, n)
	paths := make([]string, n)
	for j, i := range docs {
		var err error
		if evs[j], err = decode(&in.docs[i], alpha); err != nil {
			return nil, err
		}
		lg.eventsPerDoc += float64(len(evs[j])) / float64(n)
		lg.bytesPerDoc += float64(len(in.docs[i].body)) / float64(n)
		ids[j] = fmt.Sprintf("ledger-%d", j)
		paths[j] = documentPath(ids[j], in.docs[i].format)
	}
	wrong := 0
	check := func(j int, verdicts []bool) {
		for q, v := range in.docs[docs[j]].want {
			if verdicts[q] != v {
				wrong++
				return
			}
		}
	}
	h := d.st.srv.Handler()
	serveHTTP := func(path string, body []byte) (int, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("ledger: in-process %s: HTTP %d", path, rec.Code)
		}
		return rec.Body.Len(), nil
	}
	ses := rep.eng.Acquire()
	defer rep.eng.Release(ses)
	tok := docstream.NewInterningTokenizer(nil, alpha)
	// source opens document i the way a shard worker does: the worker's one
	// interning tokenizer Reset onto the body, or a fresh adapter.
	source := func(i int) (engine.EventSource, error) {
		if in.docs[i].format == "" {
			tok.Reset(bytes.NewReader(in.docs[i].body))
			return tok, nil
		}
		return adapter.New(in.docs[i].format, bytes.NewReader(in.docs[i].body), alpha)
	}
	// The runners for the step station, as the engine holds them.
	const batch = 1024 // engine.New's default batch size
	var runners []stepper
	var kinds []int // 0 DNWA, 1 NNWA, 2 product
	b := rep.bundle
	for q := 0; q < b.Len(); q++ {
		switch cq := b.Query(q).(type) {
		case nil: // answered by a product group
		case *query.CompiledN:
			runners, kinds = append(runners, cq.NewRunner()), append(kinds, 1)
		default:
			runners, kinds = append(runners, cq.NewRunner()), append(kinds, 0)
		}
	}
	for _, g := range b.Groups() {
		runners, kinds = append(runners, g.Product.NewProductRunner()), append(kinds, 2)
	}

	c := newConn()
	pass := -1                            // the timed pass running; -1 in the untimed passes
	passOf := map[int64]int{}             // traced request ID -> timed pass
	var kindNs [3][]float64               // DNWA, NNWA and product step time per pass
	var formatNs, formatEvents [2]float64 // xml, json decode time and events
	var respBytes, replies float64
	stations := []struct {
		name string
		run  func(u int) error
	}{
		// End to end and net: real HTTP, one request at a time, traced.
		{"http", func(u int) error {
			if pass >= 0 {
				passOf[d.tr.ids.Load()+1] = pass
			}
			d.send(c, int64(u))
			return nil
		}},
		// The handler in process, on the same bytes.
		{"handler", func(u int) error {
			for _, j := range of[u] {
				b, err := serveHTTP(paths[j], in.docs[docs[j]].body)
				if err != nil {
					return err
				}
				respBytes, replies = respBytes+float64(b), replies+1
			}
			return nil
		}},
		{"batch", func(u int) error {
			if !w.batch {
				return nil
			}
			_, err := serveHTTP("/v1/batch", in.batches[u])
			return err
		}},
		// The pool hand-off: submit to the replica's pool and wait.
		{"pool", func(u int) error {
			for _, j := range of[u] {
				i := docs[j]
				var fut *serve.Future
				var err error
				if f := in.docs[i].format; f == "" {
					fut, err = rep.pool.TrySubmit(ctx, ids[j], bytes.NewReader(in.docs[i].body))
				} else {
					var src adapter.Source
					if src, err = adapter.New(f, bytes.NewReader(in.docs[i].body), alpha); err == nil {
						fut, err = rep.pool.SubmitSource(ctx, ids[j], src)
					}
				}
				if err != nil {
					return err
				}
				res, err := fut.Wait(ctx)
				if err != nil {
					return err
				}
				check(j, res.Engine.Verdicts)
			}
			return nil
		}},
		// One session over a fresh source per document, on this goroutine.
		{"session", func(u int) error {
			for _, j := range of[u] {
				src, err := source(docs[j])
				if err != nil {
					return err
				}
				ses.Reset()
				res, err := ses.Run(src)
				if err != nil {
					return err
				}
				check(j, res.Verdicts)
			}
			return nil
		}},
		// Decoding alone: drain the tokenizer or adapter.
		{"decode", func(u int) error {
			for _, j := range of[u] {
				start := time.Now()
				src, err := source(docs[j])
				if err != nil {
					return err
				}
				for {
					if _, err := src.Next(); err == io.EOF {
						break
					} else if err != nil {
						return err
					}
				}
				if f := in.docs[docs[j]].format; f != "" && pass >= 0 {
					k := 0
					if f == "json" {
						k = 1
					}
					formatNs[k] += float64(time.Since(start))
					formatEvents[k] += float64(len(evs[j]))
				}
			}
			return nil
		}},
		// The engine over pre-interned events.
		{"engine", func(u int) error {
			for _, j := range of[u] {
				res, err := rep.eng.RunEvents(evs[j])
				if err != nil {
					return err
				}
				check(j, res.Verdicts)
			}
			return nil
		}},
		// Each runner alone, fed the same 1024-event chunks as the engine's
		// batches and in the same order, so the events are as cache-hot as
		// in the engine's fan-out; every call is timed on its own.
		{"steps", func(u int) error {
			for _, j := range of[u] {
				for _, r := range runners {
					r.Reset()
				}
				for lo := 0; lo < len(evs[j]); lo += batch {
					chunk := evs[j][lo:min(lo+batch, len(evs[j]))]
					for i, r := range runners {
						start := time.Now()
						step(r, chunk)
						if pass >= 0 {
							kindNs[kinds[i]][pass] += float64(time.Since(start)) / float64(n)
						}
					}
				}
			}
			return nil
		}},
	}

	// Two untimed passes warm every path and then count each station's
	// allocations; the timed passes that follow run every station on one
	// unit after another, so neighbouring stations see the same host
	// conditions.
	allocs := make([]cost, len(stations))
	for _, count := range []bool{false, true} {
		for si, st := range stations {
			m0, b0 := mallocs()
			for u := range of {
				if err := st.run(u); err != nil {
					return nil, err
				}
			}
			m1, b1 := mallocs()
			if count {
				allocs[si] = cost{allocs: float64(m1-m0) / float64(n), bytes: float64(b1-b0) / float64(n)}
			}
		}
	}
	firstTimed := d.tr.ids.Load() + 1
	times := make([][]float64, len(stations)) // [station][pass] ns per document
	for p := 0; p < w.passes; p++ {
		pass = p
		for k := range kindNs {
			kindNs[k] = append(kindNs[k], 0)
		}
		for si := range times {
			times[si] = append(times[si], 0)
		}
		for u := range of {
			for si, st := range stations {
				start := time.Now()
				if err := st.run(u); err != nil {
					return nil, err
				}
				times[si][p] += float64(time.Since(start)) / float64(n)
			}
		}
	}
	if c.t.failed != 0 {
		return nil, fmt.Errorf("ledger: %d of %d documents failed over HTTP", c.t.failed, c.t.attempted)
	}
	if wrong != 0 {
		return nil, fmt.Errorf("ledger: %d replayed documents disagree with the oracle", wrong)
	}

	// The client and handler spans of the timed requests, per pass.
	e2eNs := make([]float64, w.passes)
	netNs := make([]float64, w.passes)
	for _, sp := range d.tr.since(firstTimed) {
		p, ok := passOf[sp.Req]
		if !ok {
			continue
		}
		switch sp.Name {
		case spanClient:
			e2eNs[p] += float64(sp.End-sp.Start) / float64(n)
			netNs[p] += float64(sp.End-sp.Start) / float64(n)
		case spanHandler:
			netNs[p] -= float64(sp.End-sp.Start) / float64(n)
		}
	}

	idx := map[string]int{}
	for si, st := range stations {
		idx[st.name] = si
	}
	// mem is a station's allocations, ns its time per pass, and less the
	// median over passes of one series minus others, pass by pass.
	mem := func(a string) cost { return allocs[idx[a]] }
	ns := func(a string) []float64 { return times[idx[a]] }
	less := func(a []float64, b ...[]float64) float64 {
		d := slices.Clone(a)
		for p := range d {
			for _, s := range b {
				d[p] -= s[p]
			}
		}
		return median(d)
	}
	outer := "handler"
	if w.batch {
		outer = "batch"
	}
	lg.e2e = mem("http")
	lg.e2e.ns = median(e2eNs)
	lg.net = mem("http").minus(mem(outer))
	lg.net.ns = median(netNs)
	lg.server = mem(outer).minus(mem("pool"))
	lg.server.ns = less(ns(outer), ns("pool"))
	lg.single = mem("handler").minus(mem("pool"))
	lg.single.ns = less(ns("handler"), ns("pool"))
	lg.serve = mem("pool").minus(mem("session"))
	lg.serve.ns = less(ns("pool"), ns("session"))
	lg.decode = mem("decode")
	lg.decode.ns = median(ns("decode"))
	lg.run = mem("engine")
	lg.run.ns = median(ns("engine"))
	lg.dnwa.ns, lg.nnwa.ns, lg.product.ns = median(kindNs[0]), median(kindNs[1]), median(kindNs[2])
	lg.engine = lg.run
	lg.engine.ns = less(ns("engine"), kindNs[0], kindNs[1], kindNs[2])
	lg.respBytes = respBytes / replies
	if formatEvents[0] > 0 {
		lg.xmlNsPerEvent = formatNs[0] / formatEvents[0]
	}
	if formatEvents[1] > 0 {
		lg.jsonNsPerEvent = formatNs[1] / formatEvents[1]
	}
	return lg, nil
}

// stations lists the ledger rows in path order.
func (lg *ledger) stations(w *workload) []struct {
	name string
	c    cost
} {
	decode := "docstream"
	if w.batch {
		decode = "adapter"
	}
	return []struct {
		name string
		c    cost
	}{
		{"net", lg.net},
		{"server", lg.server},
		{"serve", lg.serve},
		{decode, lg.decode},
		{"engine", lg.engine},
		{"query", lg.dnwa.plus(lg.nnwa).plus(lg.product)},
	}
}

// sum is the stations' total.
func (lg *ledger) sum(w *workload) cost {
	var s cost
	for _, st := range lg.stations(w) {
		s = s.plus(st.c)
	}
	return s
}

// gap is |end-to-end − Σ stations| / end-to-end.
func (lg *ledger) gap(w *workload) float64 {
	g := (lg.e2e.ns - lg.sum(w).ns) / lg.e2e.ns
	if g < 0 {
		g = -g
	}
	return g
}

// gapTolerance is the ledger gap the benchmark is built to stay within.
const gapTolerance = 0.15

// print writes the ledger table.
func (lg *ledger) print(out io.Writer, w *workload) {
	fmt.Fprintf(out, "ledger %s: %d documents x %d passes at GOMAXPROCS=1, %.0f events and %.0f bytes per document\n",
		w.name, lg.docs, w.passes, lg.eventsPerDoc, lg.bytesPerDoc)
	fmt.Fprintf(out, "  %-12s %12s %12s %12s %14s\n", "station", "us/doc", "ns/event", "allocs/doc", "bytes/doc")
	row := func(name string, c cost) {
		fmt.Fprintf(out, "  %-12s %12.3f %12.2f %12.1f %14.0f\n",
			name, c.ns/1e3, c.ns/lg.eventsPerDoc, c.allocs, c.bytes)
	}
	for _, st := range lg.stations(w) {
		row(st.name, st.c)
	}
	row("sum", lg.sum(w))
	row("end-to-end", lg.e2e)
	fmt.Fprintf(out, "  ledger.gap_ratio %.4f (tolerance %.2f)\n", lg.gap(w), gapTolerance)
}
