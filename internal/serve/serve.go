// Package serve is the multi-document serving layer on top of the engine
// package: where an engine.Engine answers N registered queries over one
// document in one pass, a serve.Pool answers them over a stream of many
// documents concurrently, one engine session per shard.
//
// A Pool owns a fixed set of shards (default runtime.GOMAXPROCS(0)), each a
// worker goroutine that has checked one engine.Session out of the shared
// engine for its lifetime and holds one reusable interning tokenizer, so the
// steady state serves documents with no per-document allocation beyond the
// submission bookkeeping.  Incoming documents are routed to shards by the
// FNV-1a hash of their ID, so all submissions of one document ID serialize
// on one shard, keeping per-document ordering.
//
// Backpressure is a bounded queue per shard: Submit blocks once the target
// shard's queue is full, which throttles the producer (typically a
// tokenizer-side loop) to the speed of the automaton workers instead of
// buffering without bound.  Submission respects context cancellation while
// blocked, and each document's context is checked again at dequeue time and
// periodically mid-pass, so a cancelled request stops consuming its shard.
//
// Results come back through a Future (Wait/Done) and, when the pool was
// built WithOnResult, through a callback invoked on the shard worker —
// aggregation loops need no per-document future bookkeeping.  Close drains
// gracefully: it rejects new submissions, lets every queued document finish,
// and waits for the workers to exit.
package serve

import (
	"context"
	"errors"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/query"
)

// ErrClosed is returned by Submit variants after Close has begun.  A
// network front-end maps it to 503 Service Unavailable with a Retry-After
// hint: the process is going away (or swapping pools) and the client
// should try again elsewhere.
var ErrClosed = errors.New("serve: pool closed")

// ErrQueueFull is returned by the TrySubmit variants when the target
// shard's bounded queue is full.  Unlike ErrClosed this is a transient
// overload signal — a network front-end maps it to 429 Too Many Requests
// so load sheds at the edge instead of accumulating blocked handlers.
var ErrQueueFull = errors.New("serve: shard queue full")

// Result is the outcome of serving one document: the engine's per-query
// verdict set, or the error that aborted the pass (tokenization failure,
// context cancellation).  Exactly one of Engine and Err is non-nil.
type Result struct {
	ID     string
	Shard  int
	Engine *engine.Result
	Err    error
}

// Future resolves to the Result of one submitted document.
type Future struct {
	done chan struct{}
	res  Result
}

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the document has been served or ctx is cancelled.  When
// the document itself failed, the Result carries the error both ways: in
// Result.Err and as Wait's error.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.res, f.res.Err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// ShardStats is one shard's live counters: the instantaneous queue depth
// (documents waiting in the bounded queue right now) next to the shard's
// lifetime totals.  Queue depth against capacity is the backpressure
// signal an operator watches — a shard pinned at capacity is the one
// throttling producers.
type ShardStats struct {
	Shard      int   // shard index
	QueueDepth int   // documents queued at snapshot time
	QueueCap   int   // the bounded queue's capacity
	Served     int64 // documents this shard completed, successfully or not
	Failed     int64 // documents whose Result carries an error
	Events     int64 // events consumed by this shard's successful passes
}

// Stats is a snapshot of the pool's aggregate counters, its per-shard
// breakdown, and the per-document latency histogram.
type Stats struct {
	Served   int64 // documents completed, successfully or not
	Failed   int64 // documents whose Result carries an error
	Canceled int64 // subset of Failed: context cancellation or deadline
	Rejected int64 // TrySubmit attempts refused with ErrQueueFull
	Events   int64 // events consumed by successful passes

	Shards  []ShardStats // one entry per shard, in shard order
	Latency LatencyStats // submit-to-result latency, queue wait included
}

// Option configures a Pool.
type Option func(*Pool)

// WithShards sets the number of shards (default runtime.GOMAXPROCS(0)).
// Each shard is one worker goroutine owning one engine session.
func WithShards(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.numShards = n
		}
	}
}

// WithQueueDepth bounds each shard's submission queue (default 64).  A full
// queue blocks Submit — the backpressure that keeps a fast producer from
// buffering unboundedly ahead of the automaton workers.
func WithQueueDepth(n int) Option {
	return func(p *Pool) {
		if n > 0 {
			p.depth = n
		}
	}
}

// WithOnResult installs a callback invoked on the shard worker for every
// completed document, before the document's Future resolves.  It must be
// safe for concurrent calls from different shards.
func WithOnResult(fn func(Result)) Option {
	return func(p *Pool) { p.onResult = fn }
}

// job is one queued document.
type job struct {
	id    string
	ctx   context.Context
	rd    io.Reader          // tokenized on the shard's reusable tokenizer...
	src   engine.EventSource // ...or already an event source (exactly one set)
	fut   *Future
	start time.Time // submission time, for the latency histogram
}

// shardCounters is one shard's lifetime totals, owned by the shard worker
// (written there, read by Stats).
type shardCounters struct {
	served atomic.Int64
	failed atomic.Int64
	events atomic.Int64
}

// Pool serves many documents concurrently against one engine's registered
// query set.  Build it with NewPool, submit documents from any number of
// goroutines, and Close it to drain.
type Pool struct {
	eng       *engine.Engine
	numShards int
	depth     int
	onResult  func(Result)

	shards []chan job

	mu     sync.RWMutex // guards the fields below against concurrent Submit/Close
	closed bool         // guarded by mu
	wg     sync.WaitGroup

	served   atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64
	rejected atomic.Int64
	events   atomic.Int64

	perShard []shardCounters
	hist     histogram
}

// NewPool starts the shard workers for the engine's registered query set.
// The engine must not have further queries registered while the pool is
// live (sessions are checked out for the workers' lifetime).
func NewPool(eng *engine.Engine, opts ...Option) (*Pool, error) {
	if eng == nil {
		return nil, errors.New("serve: nil engine")
	}
	if eng.Len() == 0 {
		return nil, errors.New("serve: engine has no registered queries")
	}
	p := &Pool{
		eng:       eng,
		numShards: runtime.GOMAXPROCS(0),
		depth:     64,
	}
	for _, o := range opts {
		o(p)
	}
	p.shards = make([]chan job, p.numShards)
	p.perShard = make([]shardCounters, p.numShards)
	for i := range p.shards {
		p.shards[i] = make(chan job, p.depth)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p, nil
}

// NewPoolFromBundle boots a pool straight from a loaded query bundle: a
// fresh engine is built, every bundle query is registered under its bundle
// name, and the shard workers start against it.  Combined with
// query.OpenBundle this is the serving cold-start path that skips per-
// process compilation entirely — the tables may alias a read-only mapped
// region shared across processes.  Use Engine to reach the underlying
// engine (verdict names, alphabet) for result aggregation.
func NewPoolFromBundle(b *query.Bundle, opts ...Option) (*Pool, error) {
	if b == nil {
		return nil, errors.New("serve: nil bundle")
	}
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		return nil, err
	}
	return NewPool(eng, opts...)
}

// Engine returns the engine the pool serves against.
func (p *Pool) Engine() *engine.Engine { return p.eng }

// Shards returns the number of shards the pool was built with.
func (p *Pool) Shards() int { return p.numShards }

// QueueCap returns the bounded queue depth each shard was built with.
func (p *Pool) QueueCap() int { return p.depth }

// Stats snapshots the aggregate counters, the per-shard breakdown, and the
// latency histogram.  It may be called while the pool is serving; the
// counters are loaded independently, so a snapshot taken mid-flight is
// consistent only to within in-progress documents.
func (p *Pool) Stats() Stats {
	st := Stats{
		Served:   p.served.Load(),
		Failed:   p.failed.Load(),
		Canceled: p.canceled.Load(),
		Rejected: p.rejected.Load(),
		Events:   p.events.Load(),
		Shards:   make([]ShardStats, len(p.shards)),
		Latency:  p.hist.snapshot(),
	}
	for i := range p.shards {
		st.Shards[i] = ShardStats{
			Shard:      i,
			QueueDepth: len(p.shards[i]),
			QueueCap:   p.depth,
			Served:     p.perShard[i].served.Load(),
			Failed:     p.perShard[i].failed.Load(),
			Events:     p.perShard[i].events.Load(),
		}
	}
	return st
}

// Submit queues a document read from r — tokenized on the target shard's
// reusable interning tokenizer — and returns its Future.  It blocks while
// the shard's queue is full (backpressure) unless ctx is cancelled first,
// and fails with ErrClosed once Close has begun.
func (p *Pool) Submit(ctx context.Context, id string, r io.Reader) (*Future, error) {
	return p.enqueue(job{id: id, ctx: ctx, rd: r}, true)
}

// TrySubmit is Submit without the blocking backpressure: when the target
// shard's queue is full it fails immediately with ErrQueueFull instead of
// waiting for a slot.  A network front-end uses it to shed load at the
// edge — ErrQueueFull maps to 429 Too Many Requests, ErrClosed to 503
// Service Unavailable — rather than accumulate blocked handlers.
func (p *Pool) TrySubmit(ctx context.Context, id string, r io.Reader) (*Future, error) {
	return p.enqueue(job{id: id, ctx: ctx, rd: r}, false)
}

// SubmitSource queues a document already available as an event source.
// Events carrying a pre-interned Sym must have been interned against the
// engine's alphabet (see engine.Session.Feed).
func (p *Pool) SubmitSource(ctx context.Context, id string, src engine.EventSource) (*Future, error) {
	if src == nil {
		return nil, errors.New("serve: nil event source")
	}
	return p.enqueue(job{id: id, ctx: ctx, src: src}, true)
}

// TrySubmitSource is SubmitSource with TrySubmit's fail-fast semantics:
// ErrQueueFull instead of blocking when the target shard's queue is full.
// The network front-end submits adapter-wrapped request bodies through it.
func (p *Pool) TrySubmitSource(ctx context.Context, id string, src engine.EventSource) (*Future, error) {
	if src == nil {
		return nil, errors.New("serve: nil event source")
	}
	return p.enqueue(job{id: id, ctx: ctx, src: src}, false)
}

// route picks the shard for a document ID by its FNV-1a hash.
func (p *Pool) route(id string) int {
	if len(p.shards) == 1 {
		return 0
	}
	h := fnv.New64a()
	io.WriteString(h, id)
	return int(h.Sum64() % uint64(len(p.shards)))
}

func (p *Pool) enqueue(j job, wait bool) (*Future, error) {
	j.fut = &Future{done: make(chan struct{})}
	if j.ctx == nil {
		j.ctx = context.Background()
	}
	j.start = time.Now()
	// The read lock is held across the (possibly blocking) send so Close
	// cannot close the shard channel out from under it; Close's write lock
	// waits for in-flight submissions, and the workers keep draining, so a
	// blocked send always completes or gives up via ctx.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	shard := p.shards[p.route(j.id)]
	if !wait {
		select {
		case shard <- j:
			return j.fut, nil
		default:
			p.rejected.Add(1)
			return nil, ErrQueueFull
		}
	}
	select {
	case shard <- j:
		return j.fut, nil
	case <-j.ctx.Done():
		return nil, j.ctx.Err()
	}
}

// Close drains the pool gracefully: new submissions fail with ErrClosed,
// every already-queued document is served to completion, and Close returns
// once all shard workers have exited and released their sessions.  It is
// safe to call more than once.
func (p *Pool) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, sh := range p.shards {
			close(sh)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// Shutdown is Close bounded by a context: it initiates the same graceful
// drain but gives up waiting when ctx is cancelled, returning ctx.Err()
// while the workers keep draining in the background.
func (p *Pool) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ctxSource aborts a pass when its context is cancelled, checking once per
// checkInterval events so the hot loop stays branch-cheap.
type ctxSource struct {
	ctx context.Context
	src engine.EventSource
	n   int
}

const checkInterval = 1024

func (c *ctxSource) Next() (docstream.Event, error) {
	if c.n%checkInterval == 0 {
		if err := c.ctx.Err(); err != nil {
			return docstream.Event{}, err
		}
	}
	c.n++
	return c.src.Next()
}

// worker is one shard: it checks a session out of the engine once, reuses
// one interning tokenizer, and serves its queue until Close.
func (p *Pool) worker(shard int) {
	defer p.wg.Done()
	ses := p.eng.Acquire()
	defer p.eng.Release(ses)
	// One tokenizer per shard, Reset per document: after the first document
	// the tokenizer's buffered reader is reused, so reader-submitted
	// documents tokenize allocation-free too.  NewPool refuses an engine
	// with no queries, so the engine always has an alphabet.
	tok := docstream.NewInterningTokenizer(nil, p.eng.Alphabet())
	counters := &p.perShard[shard]
	for j := range p.shards[shard] {
		res := Result{ID: j.id, Shard: shard}
		if err := j.ctx.Err(); err != nil {
			// Cancelled while queued: report without touching the session.
			res.Err = err
		} else {
			src := j.src
			if j.rd != nil {
				tok.Reset(j.rd)
				src = tok
			}
			ses.Reset()
			r, err := ses.Run(&ctxSource{ctx: j.ctx, src: src})
			res.Engine, res.Err = r, err
		}
		p.served.Add(1)
		counters.served.Add(1)
		if res.Err != nil {
			p.failed.Add(1)
			counters.failed.Add(1)
			if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
				p.canceled.Add(1)
			}
		} else {
			p.events.Add(int64(res.Engine.Events))
			counters.events.Add(int64(res.Engine.Events))
		}
		p.hist.observe(time.Since(j.start))
		if p.onResult != nil {
			p.onResult(res)
		}
		j.fut.res = res
		close(j.fut.done)
	}
}
