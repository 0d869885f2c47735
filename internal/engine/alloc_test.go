package engine

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/query"
)

// TestSessionStepLoopZeroAlloc pins the claim the //nwvet:hotpath annotation
// on Session.Feed makes: once a session's runners and batch buffer have
// grown to the working depth, streaming a document of pre-interned events
// through compiled DNWA runners allocates nothing.  Result() is deliberately
// not called inside the measurement — it returns a fresh verdict slice by
// contract.
func TestSessionStepLoopZeroAlloc(t *testing.T) {
	alpha := alphabet.New("a", "b")
	e := New()
	e.MustRegisterQuery("wf", query.Compile(query.WellFormed(alpha)))
	e.MustRegisterQuery("path", query.Compile(query.PathQuery(alpha, "a", "b")))

	// A nested document, interned against the engine's alphabet up front —
	// the state a serve shard is in after its interning tokenizer.
	var events []docstream.Event
	intern := func(kind nestedword.Kind, label string) docstream.Event {
		return docstream.Event{Kind: kind, Label: label}.Interned(alpha)
	}
	for i := 0; i < 32; i++ {
		events = append(events, intern(nestedword.Call, "a"))
		events = append(events, intern(nestedword.Internal, "b"))
		events = append(events, intern(nestedword.Call, "b"))
		events = append(events, intern(nestedword.Internal, "a"))
	}
	for i := 0; i < 32; i++ {
		events = append(events, intern(nestedword.Return, "b"))
		events = append(events, intern(nestedword.Return, "a"))
	}

	s := e.Acquire()
	defer e.Release(s)
	run := func() {
		s.Reset()
		for _, ev := range events {
			s.Feed(ev)
		}
		s.flush()
	}
	run() // grow runner stacks and the batch buffer to the working depth
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("compiled-DNWA session step loop: %v allocs/op, want 0", allocs)
	}
}
