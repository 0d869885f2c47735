package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/nwa"
	"repro/internal/query"
)

// testEngine builds an engine with a mixed query set — deterministic and
// nondeterministic, path, order, and validation — over the {a,b,c} alphabet.
func testEngine(t testing.TB) *engine.Engine {
	t.Helper()
	alpha := alphabet.New("a", "b", "c")
	eng := engine.New()
	eng.MustRegister("well-formed", query.WellFormed(alpha))
	eng.MustRegister("//a//b", query.PathQuery(alpha, "a", "b"))
	eng.MustRegister("order a,b,c", query.LinearOrder(alpha, "a", "b", "c"))
	eng.MustRegister("contains c", query.ContainsLabel(alpha, "c"))
	eng.MustRegister("//c//b//a", query.PathQuery(alpha, "c", "b", "a"))
	return eng
}

// randomEvents builds a random event stream that is deliberately not always
// well matched: returns may be pending, calls may stay open, and labels may
// fall outside the engine alphabet.
func randomEvents(rng *rand.Rand, size int) []docstream.Event {
	labels := []string{"a", "b", "c", "zzz-out-of-alphabet"}
	events := make([]docstream.Event, size)
	for i := range events {
		label := labels[rng.Intn(len(labels))]
		switch rng.Intn(3) {
		case 0:
			events[i] = docstream.Event{Kind: nestedword.Call, Label: label}
		case 1:
			events[i] = docstream.Event{Kind: nestedword.Return, Label: label}
		default:
			events[i] = docstream.Event{Kind: nestedword.Internal, Label: label}
		}
	}
	return events
}

// TestPoolMatchesSerialEngine is the differential acceptance test: on 1200
// random documents — streaming-generator documents and adversarial streams
// with pending calls/returns and out-of-alphabet labels — the pool's verdict
// sets must be identical to serial engine evaluation, for several shard
// counts.
func TestPoolMatchesSerialEngine(t *testing.T) {
	eng := testEngine(t)
	rng := rand.New(rand.NewSource(23))
	const docs = 1200
	corpus := make([][]docstream.Event, docs)
	for i := range corpus {
		if i%2 == 0 {
			stream := generator.NewDocumentStream(int64(i), 40+rng.Intn(400), 12, []string{"a", "b", "c"})
			for {
				e, err := stream.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				corpus[i] = append(corpus[i], e)
			}
		} else {
			corpus[i] = randomEvents(rng, 20+rng.Intn(200))
		}
	}

	serial := make([]*engine.Result, docs)
	for i, events := range corpus {
		r, err := eng.RunEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}

	for _, shards := range []int{1, 3, 8} {
		pool, err := NewPool(eng, WithShards(shards), WithQueueDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		futures := make([]*Future, docs)
		for i, events := range corpus {
			futures[i], err = pool.SubmitSource(context.Background(), fmt.Sprintf("doc-%d", i), engine.Events(events))
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range futures {
			res, err := f.Wait(context.Background())
			if err != nil {
				t.Fatalf("shards=%d doc %d: %v", shards, i, err)
			}
			if got, want := res.Engine.Verdicts, serial[i].Verdicts; len(got) != len(want) {
				t.Fatalf("doc %d: %d verdicts, want %d", i, len(got), len(want))
			} else {
				for q := range want {
					if got[q] != want[q] {
						t.Errorf("shards=%d doc %d query %d: pool %v, serial %v",
							shards, i, q, got[q], want[q])
					}
				}
			}
			if res.Engine.Events != serial[i].Events || res.Engine.MaxDepth != serial[i].MaxDepth {
				t.Errorf("doc %d: pool events/depth %d/%d, serial %d/%d",
					i, res.Engine.Events, res.Engine.MaxDepth, serial[i].Events, serial[i].MaxDepth)
			}
		}
		st := pool.Stats()
		if st.Served != docs || st.Failed != 0 {
			t.Errorf("stats: served %d failed %d, want %d/0", st.Served, st.Failed, docs)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolServesNNWAQuery threads the nondeterministic bitset state-set
// runner through the whole serving stack: a CompileN'd NNWA registered next
// to a compiled DNWA for the same language ("contains label a"), served
// through a sharded pool, must agree with the deterministic query and with
// serial engine evaluation on every document — including adversarial
// streams with pending calls/returns and out-of-alphabet labels.
func TestPoolServesNNWAQuery(t *testing.T) {
	alpha := alphabet.New("a", "b", "c")
	// State 0 = "a not seen", 1 = "a seen"; the linear state carries the
	// flag across calls, so the hierarchical state is irrelevant and the
	// automaton accepts any word with an a-labelled position of any kind.
	seen := func(q int, sym string) int {
		if q == 1 || sym == "a" {
			return 1
		}
		return 0
	}
	n := nwa.NewNNWA(alpha, 2)
	n.AddStart(0).AddAccept(1)
	for q := 0; q < 2; q++ {
		for _, sym := range []string{"a", "b", "c"} {
			n.AddInternal(q, sym, seen(q, sym))
			n.AddCall(q, sym, seen(q, sym), q)
			for h := 0; h < 2; h++ {
				n.AddReturn(q, h, sym, seen(q, sym))
			}
		}
	}
	eng := engine.New()
	eng.MustRegisterQuery("contains a (nnwa)", query.CompileN(n))
	eng.MustRegister("contains a (dnwa)", query.ContainsLabel(alpha, "a"))

	pool, err := NewPool(eng, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(606))
	for d := 0; d < 150; d++ {
		var events []docstream.Event
		if d%2 == 0 {
			stream := generator.NewDocumentStream(int64(d), 20+rng.Intn(200), 8, []string{"a", "b", "c"})
			for {
				e, err := stream.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				events = append(events, e)
			}
		} else {
			events = randomEvents(rng, 10+rng.Intn(150))
		}
		serial, err := eng.RunEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		fut, err := pool.SubmitSource(context.Background(), fmt.Sprintf("doc-%d", d), engine.Events(events))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		nv, err := res.Engine.Verdict(eng, "contains a (nnwa)")
		if err != nil {
			t.Fatal(err)
		}
		dv, err := res.Engine.Verdict(eng, "contains a (dnwa)")
		if err != nil {
			t.Fatal(err)
		}
		if nv != dv {
			t.Fatalf("doc %d: NNWA verdict %v, DNWA verdict %v", d, nv, dv)
		}
		for q := range serial.Verdicts {
			if res.Engine.Verdicts[q] != serial.Verdicts[q] {
				t.Fatalf("doc %d query %d: pool %v, serial %v", d, q, res.Engine.Verdicts[q], serial.Verdicts[q])
			}
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolReaderSubmission drives the per-shard reusable tokenizer path and
// checks it against the engine's own reader path.
func TestPoolReaderSubmission(t *testing.T) {
	eng := testEngine(t)
	docs := []string{
		"<a> <b> c </b> </a>",
		"<c> <b> <a> text </a> </b> </c>",
		"a b c a b c",
		"<a> dangling",
		"</b> stray close",
		"<a><b><c> deep </c></b></a> <unknown> x </unknown>",
	}
	serial := make([]*engine.Result, len(docs))
	for i, d := range docs {
		r, err := eng.RunReader(strings.NewReader(d))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	pool, err := NewPool(eng, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Several rounds so every shard's tokenizer is Reset and reused.
	for round := 0; round < 50; round++ {
		for i, d := range docs {
			f, err := pool.Submit(context.Background(), fmt.Sprintf("r%d-d%d", round, i), strings.NewReader(d))
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for q := range serial[i].Verdicts {
				if res.Engine.Verdicts[q] != serial[i].Verdicts[q] {
					t.Fatalf("round %d doc %d query %d: pool %v, serial %v",
						round, i, q, res.Engine.Verdicts[q], serial[i].Verdicts[q])
				}
			}
		}
	}
}

// TestPoolTokenizeError checks that a malformed document fails its own
// future without poisoning the shard for later documents.
func TestPoolTokenizeError(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	bad, err := pool.Submit(context.Background(), "bad", strings.NewReader("<a> <unterminated"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := bad.Wait(context.Background()); err == nil || res.Err == nil {
		t.Fatalf("malformed document: want error, got %+v", res)
	}
	good, err := pool.Submit(context.Background(), "good", strings.NewReader("<a> c </a>"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := good.Wait(context.Background())
	if err != nil {
		t.Fatalf("document after a failed one: %v", err)
	}
	if res.Engine.Events != 3 {
		t.Fatalf("events = %d, want 3", res.Engine.Events)
	}
}

// TestPoolContextCancellation covers both cancellation points: a document
// cancelled while queued resolves its future with the context error, and a
// Submit blocked on a full queue honours its context.
func TestPoolContextCancellation(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f, err := pool.SubmitSource(cancelled, "pre-cancelled", engine.Events(nil))
	if err != nil {
		// The queue had room, so the send raced the cancellation; either
		// outcome is allowed, but an accepted job must fail at the worker.
		if !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
	} else if res, _ := f.Wait(context.Background()); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("queued-then-cancelled document: got %+v, want context.Canceled", res)
	}

	// Fill the single shard's queue with slow documents, then watch a
	// blocked Submit give up when its context is cancelled.
	block := make(chan struct{})
	slowSrc := func() engine.EventSource { return &blockingSource{release: block} }
	for i := 0; i < 2; i++ { // one being served + one queued = queue full
		if _, err := pool.SubmitSource(context.Background(), fmt.Sprintf("slow-%d", i), slowSrc()); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	if _, err := pool.SubmitSource(ctx, "blocked", slowSrc()); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked submit: %v", err)
	}
	close(block)
}

// blockingSource blocks its first Next until released, then ends the stream.
type blockingSource struct {
	release <-chan struct{}
	done    bool
}

func (b *blockingSource) Next() (docstream.Event, error) {
	if !b.done {
		<-b.release
		b.done = true
	}
	return docstream.Event{}, io.EOF
}

// TestPoolCloseDrains submits a batch, closes, and checks that every queued
// document was served, later submissions fail, and Close is idempotent.
func TestPoolCloseDrains(t *testing.T) {
	eng := testEngine(t)
	var delivered atomic.Int64
	pool, err := NewPool(eng, WithShards(3), WithOnResult(func(Result) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	const docs = 200
	for i := 0; i < docs; i++ {
		if _, err := pool.SubmitSource(context.Background(), fmt.Sprintf("d%d", i), engine.Events(randomEvents(rand.New(rand.NewSource(int64(i))), 50))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != docs {
		t.Fatalf("callback delivered %d results, want %d", got, docs)
	}
	if st := pool.Stats(); st.Served != docs {
		t.Fatalf("served %d, want %d", st.Served, docs)
	}
	if _, err := pool.SubmitSource(context.Background(), "late", engine.Events(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after close: %v", err)
	}
}

// TestPoolHashAffinitySticksToShard checks that one document ID always
// lands on one shard.
func TestPoolHashAffinitySticksToShard(t *testing.T) {
	eng := testEngine(t)
	var mu sync.Mutex
	shards := map[int]bool{}
	pool, err := NewPool(eng, WithShards(4),
		WithOnResult(func(r Result) {
			mu.Lock()
			shards[r.Shard] = true
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := pool.SubmitSource(context.Background(), "same-id", engine.Events(nil)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()
	if len(shards) != 1 {
		t.Errorf("one ID hit %d shards, want 1", len(shards))
	}
}

// TestPoolConcurrentSubmitters hammers one pool from many goroutines under
// the race detector.
func TestPoolConcurrentSubmitters(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(4), WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const submitters, perSubmitter = 8, 50
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSubmitter; i++ {
				f, err := pool.SubmitSource(context.Background(), fmt.Sprintf("g%d-%d", g, i), engine.Events(randomEvents(rng, 30)))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.Wait(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := pool.Stats(); st.Served != submitters*perSubmitter {
		t.Errorf("served %d, want %d", st.Served, submitters*perSubmitter)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewPoolRejectsEmptyEngine checks the constructor's error paths.
func TestNewPoolRejectsEmptyEngine(t *testing.T) {
	if _, err := NewPool(nil); err == nil {
		t.Error("nil engine: want error")
	}
	if _, err := NewPool(engine.New()); err == nil {
		t.Error("empty engine: want error")
	}
}
