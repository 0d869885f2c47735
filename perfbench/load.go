package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// reply is the part of a verdict response the checker reads: a
// /v1/documents body, or one NDJSON line of a /v1/batch body.
type reply struct {
	ID       string          `json:"id"`
	Events   int             `json:"events"`
	Verdicts map[string]bool `json:"verdicts"`
	Error    string          `json:"error"`
}

// tally is what one load phase observed.  Documents are counted one per
// batch line; latencies one per request.
type tally struct {
	attempted, failed, wrong int64
	lat                      []time.Duration
	status                   map[int]int64 // HTTP status counts; 0 is a transport error
	elapsed                  time.Duration
}

// merge folds another connection's tally into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.lat = append(t.lat, o.lat...)
	if t.status == nil {
		t.status = map[int]int64{}
	}
	for code, n := range o.status {
		t.status[code] += n
	}
}

// conn is one client connection's reusable state.
type conn struct {
	buf bytes.Buffer
	rep reply
	t   tally
}

func newConn() *conn { return &conn{t: tally{status: map[int]int64{}}} }

// loadgen sends a workload's requests to a booted stack and checks every
// reply against the oracle.
type loadgen struct {
	w     *workload
	in    *inputs
	st    *stack
	tr    *tracer      // nil for an untraced run
	next  atomic.Int64 // request counter across phases; picks document and ID
	paths []string     // POST /v1/documents path per ID
}

func newLoadgen(w *workload, in *inputs, st *stack, tr *tracer) *loadgen {
	d := &loadgen{w: w, in: in, st: st, tr: tr}
	for _, id := range in.ids {
		d.paths = append(d.paths, documentPath(id, ""))
	}
	return d
}

// send issues request k on c and checks the reply.
func (d *loadgen) send(c *conn, k int64) {
	var path string
	var body []byte
	if d.w.batch {
		path, body = "/v1/batch", d.in.batches[k%int64(len(d.in.batches))]
	} else {
		path, body = d.paths[k%int64(len(d.paths))], d.in.docs[k%int64(len(d.in.docs))].body
	}
	var id, start int64
	if d.tr != nil && d.tr.on.Load() {
		id, start = d.tr.ids.Add(1), d.tr.now()
	}
	code, err := d.st.post(path, body, id, &c.buf)
	if id != 0 {
		d.tr.add(span{Name: spanClient, Req: id, Start: start, End: d.tr.now()})
	}
	if err != nil {
		code = 0
	}
	d.check(c, k, code)
}

// check counts request k's documents as attempted, failed, or wrong.
func (d *loadgen) check(c *conn, k int64, code int) {
	c.t.status[code]++
	if !d.w.batch {
		c.t.attempted++
		i := k % int64(len(d.in.docs))
		if code != http.StatusOK {
			c.t.failed++
		} else if !d.match(c, c.buf.Bytes(), d.in.ids[k%int64(len(d.in.ids))], &d.in.docs[i]) {
			c.t.failed++
			c.t.wrong++
		}
		return
	}
	b := k % int64(len(d.in.batches))
	want, ids := d.in.batchDocs[b], d.in.batchIDs[b]
	c.t.attempted += int64(len(want))
	if code != http.StatusOK {
		c.t.failed += int64(len(want))
		return
	}
	body := c.buf.Bytes()
	var failed, wrong int64
	for l, i := range want {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			failed++ // the reply ended before this line
			continue
		}
		line := body[:nl]
		body = body[nl+1:]
		if !d.match(c, line, ids[l], &d.in.docs[i]) {
			failed++
			if c.rep.Error == "" {
				wrong++
			}
		}
	}
	if len(bytes.TrimSpace(body)) > 0 {
		// Lines beyond the batch's: the reply as a whole cannot be trusted.
		failed, wrong = int64(len(want)), wrong+1
	}
	c.t.failed += failed
	c.t.wrong += wrong
}

// match decodes one reply and compares it with the oracle's verdicts for
// want; id, when set, must match too.  A reply that carries an error does
// not match.
func (d *loadgen) match(c *conn, raw []byte, id string, want *doc) bool {
	clear(c.rep.Verdicts)
	c.rep = reply{Verdicts: c.rep.Verdicts}
	if err := json.Unmarshal(raw, &c.rep); err != nil || c.rep.Error != "" {
		if c.rep.Error == "" {
			c.rep.Error = "malformed reply"
		}
		return false
	}
	if (id != "" && c.rep.ID != id) || c.rep.Events != want.events || len(c.rep.Verdicts) != len(d.in.names) {
		return false
	}
	for q, name := range d.in.names {
		if v, ok := c.rep.Verdicts[name]; !ok || v != want.want[q] {
			return false
		}
	}
	return true
}

// load runs the closed loop for dur: each connection sends its next request
// when the previous reply is in.  Latency runs from the send.
func (d *loadgen) load(dur time.Duration) tally {
	start := time.Now()
	end := start.Add(dur)
	return d.spread(start, func(c *conn) {
		for sent := time.Now(); sent.Before(end); {
			d.send(c, d.next.Add(1)-1)
			done := time.Now()
			c.t.lat = append(c.t.lat, done.Sub(sent))
			sent = done
		}
	})
}

// spread runs loop on one goroutine per connection, waits for all of them,
// and merges their tallies.
func (d *loadgen) spread(start time.Time, loop func(c *conn)) tally {
	conns := make([]*conn, connections)
	var wg sync.WaitGroup
	for i := range conns {
		conns[i] = newConn()
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			loop(c)
		}(conns[i])
	}
	wg.Wait()
	var t tally
	for _, c := range conns {
		t.merge(&c.t)
	}
	t.elapsed = time.Since(start)
	return t
}
