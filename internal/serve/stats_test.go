package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestTrySubmitQueueFull pins the two submit-error paths an HTTP front-end
// maps to distinct status codes: a full shard queue fails TrySubmit with
// ErrQueueFull (429) while a closed pool fails every submit variant with
// ErrClosed (503), and the rejection is counted in Stats.
func TestTrySubmitQueueFull(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}

	// Block the single worker, then fill the depth-1 queue: the next
	// TrySubmit has no slot to take.
	block := make(chan struct{})
	var futures []*Future
	for i := 0; i < 2; i++ { // one being served + one queued = queue full
		f, err := pool.SubmitSource(context.Background(), fmt.Sprintf("slow-%d", i), &blockingSource{release: block})
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	if _, err := pool.TrySubmit(context.Background(), "overflow", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmit on a full queue: %v, want ErrQueueFull", err)
	}
	if _, err := pool.TrySubmitSource(context.Background(), "overflow-source", engine.Events(nil)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmitSource on a full queue: %v, want ErrQueueFull", err)
	}
	if got := pool.Stats().Rejected; got != 2 {
		t.Fatalf("Stats().Rejected = %d, want 2", got)
	}

	close(block)
	for _, f := range futures {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	// After Close every variant reports ErrClosed, never ErrQueueFull.
	if _, err := pool.TrySubmit(context.Background(), "late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after close: %v, want ErrClosed", err)
	}
	if _, err := pool.TrySubmitSource(context.Background(), "late", engine.Events(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmitSource after close: %v, want ErrClosed", err)
	}
	if _, err := pool.Submit(context.Background(), "late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: %v, want ErrClosed", err)
	}
	if st := pool.Stats(); st.Rejected != 2 {
		t.Fatalf("Stats().Rejected after close = %d, want 2 (ErrClosed is not a rejection)", st.Rejected)
	}
}

// TestTrySubmitServes checks that the fail-fast variants serve normally when
// the queue has room — same verdicts as the blocking path.
func TestTrySubmitServes(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(2), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		events := randomEvents(rng, 50)
		want, err := eng.RunEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pool.TrySubmitSource(context.Background(), fmt.Sprintf("doc-%d", i), engine.Events(events))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for q := range want.Verdicts {
			if res.Engine.Verdicts[q] != want.Verdicts[q] {
				t.Fatalf("doc %d query %d: try-submitted %v, serial %v", i, q, res.Engine.Verdicts[q], want.Verdicts[q])
			}
		}
	}
}

// TestStatsShardsAndLatency drives a corpus through the pool and checks the
// per-shard breakdown sums to the aggregate counters, queue metadata is
// reported, and the latency histogram saw every document with ordered
// quantiles.
func TestStatsShardsAndLatency(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(3), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const docs = 90
	var futures []*Future
	perShard := make([]int64, 3) // what hash routing sends each shard
	for i := 0; i < docs; i++ {
		id := fmt.Sprintf("doc-%d", i)
		perShard[pool.route(id)]++
		f, err := pool.SubmitSource(context.Background(), id, engine.Events(randomEvents(rng, 100)))
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	for _, f := range futures {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Served != docs {
		t.Fatalf("served %d, want %d", st.Served, docs)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("%d shard entries, want 3", len(st.Shards))
	}
	var served, events int64
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Errorf("shard entry %d labelled %d", i, sh.Shard)
		}
		if sh.QueueCap != 16 {
			t.Errorf("shard %d queue cap %d, want 16", i, sh.QueueCap)
		}
		if sh.QueueDepth < 0 || sh.QueueDepth > sh.QueueCap {
			t.Errorf("shard %d queue depth %d out of range", i, sh.QueueDepth)
		}
		served += sh.Served
		events += sh.Events
	}
	if served != st.Served || events != st.Events {
		t.Errorf("per-shard sums served=%d events=%d, aggregate %d/%d", served, events, st.Served, st.Events)
	}
	// Every shard served exactly the documents its IDs hash to.
	for i, sh := range st.Shards {
		if sh.Served != perShard[i] {
			t.Errorf("shard %d served %d, want %d by ID hash", i, sh.Served, perShard[i])
		}
	}
	lat := st.Latency
	if lat.Count != docs {
		t.Fatalf("latency count %d, want %d", lat.Count, docs)
	}
	if lat.P50 <= 0 || lat.P50 > lat.P90 || lat.P90 > lat.P99 || lat.Max <= 0 {
		t.Errorf("latency quantiles out of order: p50=%v p90=%v p99=%v max=%v", lat.P50, lat.P90, lat.P99, lat.Max)
	}
	if lat.P99 > 2*lat.Max {
		t.Errorf("p99 %v beyond twice the maximum %v", lat.P99, lat.Max)
	}
	if len(lat.Buckets) == 0 {
		t.Fatal("latency histogram has no buckets")
	}
	last := int64(-1)
	for _, b := range lat.Buckets {
		if b.Count < last {
			t.Errorf("bucket counts not cumulative: %v", lat.Buckets)
		}
		last = b.Count
	}
	if lat.Buckets[len(lat.Buckets)-1].Count != docs {
		t.Errorf("final cumulative bucket %d, want %d", lat.Buckets[len(lat.Buckets)-1].Count, docs)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsCanceledCounter submits a pre-cancelled document and checks it is
// classified under Canceled as well as Failed.
func TestStatsCanceledCounter(t *testing.T) {
	eng := testEngine(t)
	pool, err := NewPool(eng, WithShards(1), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Block the worker so the cancelled document is observed at dequeue.
	block := make(chan struct{})
	blocker, err := pool.SubmitSource(context.Background(), "blocker", &blockingSource{release: block})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f, err := pool.SubmitSource(ctx, "doomed", engine.Events(nil))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(block)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res, _ := f.Wait(context.Background()); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("doomed document: %+v, want context.Canceled", res)
	}
	deadline := time.Now().Add(time.Second)
	for {
		st := pool.Stats()
		if st.Canceled == 1 && st.Failed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never recorded the cancellation: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHistogramQuantiles pins the bucket arithmetic directly: known samples
// land in the right power-of-two buckets and the quantile upper bounds
// bracket the true values within the 2x bucket width.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 0; i < 99; i++ {
		h.observe(100 * time.Nanosecond) // bucket [64, 128)
	}
	h.observe(time.Millisecond)
	st := h.snapshot()
	if st.Count != 100 {
		t.Fatalf("count %d, want 100", st.Count)
	}
	if st.Max != time.Millisecond {
		t.Errorf("max %v, want 1ms", st.Max)
	}
	if st.P50 != 128*time.Nanosecond {
		t.Errorf("p50 %v, want the 128ns bucket bound", st.P50)
	}
	if st.P99 != 128*time.Nanosecond {
		t.Errorf("p99 %v, want the 128ns bucket bound (99 of 100 samples)", st.P99)
	}
	if want := time.Duration(1 << 20); st.Buckets[len(st.Buckets)-1].UpperBound != want {
		t.Errorf("top bucket bound %v, want %v", st.Buckets[len(st.Buckets)-1].UpperBound, want)
	}
	if st.Sum != 99*100*time.Nanosecond+time.Millisecond {
		t.Errorf("sum %v", st.Sum)
	}

	var zero histogram
	if st := zero.snapshot(); st.Count != 0 || st.P99 != 0 || len(st.Buckets) != 0 {
		t.Errorf("empty histogram snapshot: %+v", st)
	}
}
