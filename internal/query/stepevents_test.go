package query

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/docstream"
	"repro/internal/generator"
	"repro/internal/nestedword"
)

// batchStepper is what TestStepEventsMatchesStep drives: a runner with both
// the per-event and the batch face.
type batchStepper interface {
	StepCall(sym int)
	StepInternal(sym int)
	StepReturn(sym int)
	StepEvents(evs []docstream.Event)
	Reset()
}

// randomEvents builds a stream that is not well matched — returns outnumber
// calls often enough to hit the empty stack — whose Sym fields run from 0
// (uninterned) past the out-of-alphabet ID, so the batch loop's clamp is
// exercised against the Step methods'.
func randomEvents(rng *rand.Rand, n, syms int) []docstream.Event {
	kinds := []nestedword.Kind{nestedword.Call, nestedword.Internal, nestedword.Return}
	evs := make([]docstream.Event, n)
	for i := range evs {
		evs[i] = docstream.Event{Kind: kinds[rng.Intn(3)], Sym: rng.Intn(syms+4) - 1}
	}
	return evs
}

// sameRunState compares the complete run state of two runners of one kind.
func sameRunState(t *testing.T, a, b batchStepper) bool {
	t.Helper()
	switch x := a.(type) {
	case *dnwaRunner:
		y := b.(*dnwaRunner)
		return x.state == y.state && slices.Equal(x.stack, y.stack)
	case *detProductRunner:
		y := b.(*detProductRunner)
		return x.state == y.state && slices.Equal(x.stack, y.stack)
	case *nnwaBitsetRunner:
		return sameBitsetState(x, b.(*nnwaBitsetRunner))
	case *jointProductRunner:
		return sameBitsetState(x.nnwaBitsetRunner, b.(*jointProductRunner).nnwaBitsetRunner)
	}
	t.Fatalf("no state comparison for %T", a)
	return false
}

func sameBitsetState(x, y *nnwaBitsetRunner) bool {
	if !slices.Equal(x.S, y.S) || !slices.Equal(x.R, y.R) || len(x.stack) != len(y.stack) {
		return false
	}
	for i := range x.stack {
		fx, fy := x.stack[i], y.stack[i]
		if fx.sym != fy.sym || !slices.Equal(fx.S, fy.S) || !slices.Equal(fx.R, fy.R) {
			return false
		}
	}
	return true
}

// TestStepEventsMatchesStep pins every StepEvents loop to the Step methods
// it fuses: for the dense and sparse-return DNWA runners, the NNWA bitset
// runner, and the deterministic and joint product runners, a random stream
// cut into random batches — pending returns and out-of-range symbols
// included — must leave exactly the run state (and so the verdicts) that
// one Step call per event leaves, at every batch boundary.
func TestStepEventsMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	type pair struct {
		name          string
		perEvent, bat batchStepper
	}
	var pairs []pair
	for _, limit := range []int{denseReturnLimit, 1} {
		denseReturnLimit = limit
		form := "dense"
		if limit == 1 {
			form = "sparse"
		}
		members, _ := detProductMembers()
		c := members[2].(*Compiled)
		if c.Dense() != (limit > 1) {
			t.Fatalf("%s: member Dense() = %v", form, c.Dense())
		}
		pairs = append(pairs, pair{form + " DNWA", c.NewRunner().(*dnwaRunner), c.NewRunner().(*dnwaRunner)})
		p, err := CompileProduct(members, 0)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{form + " deterministic product",
			p.NewProductRunner().(*detProductRunner), p.NewProductRunner().(*detProductRunner)})

		nq := []Query{CompileN(randomNNWA(rng, 4)), CompileN(randomNNWA(rng, 3)), CompileN(bigNNWA())}
		n := nq[2].(*CompiledN)
		pairs = append(pairs, pair{form + " NNWA bitset", n.newBitsetRunner(), n.newBitsetRunner()})
		jp, err := CompileProduct(nq, 0)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{form + " joint product",
			jp.NewProductRunner().(*jointProductRunner), jp.NewProductRunner().(*jointProductRunner)})
	}
	syms := generator.AB.Size() + 1
	for _, pr := range pairs {
		for trial := 0; trial < 40; trial++ {
			evs := randomEvents(rng, 1+rng.Intn(300), syms)
			pr.perEvent.Reset()
			pr.bat.Reset()
			for rest := evs; len(rest) > 0; {
				k := 1 + rng.Intn(min(len(rest), 64))
				for _, e := range rest[:k] {
					switch e.Kind {
					case nestedword.Call:
						pr.perEvent.StepCall(e.Sym - 1)
					case nestedword.Return:
						pr.perEvent.StepReturn(e.Sym - 1)
					default:
						pr.perEvent.StepInternal(e.Sym - 1)
					}
				}
				pr.bat.StepEvents(rest[:k])
				rest = rest[k:]
				if !sameRunState(t, pr.perEvent, pr.bat) {
					t.Fatalf("%s, trial %d: StepEvents diverges from Step* with %d events left of %v",
						pr.name, trial, len(rest), evs)
				}
			}
			if p, ok := pr.bat.(ProductRunner); ok {
				want, got := bitset.New(64), bitset.New(64)
				pr.perEvent.(ProductRunner).Verdicts(want)
				p.Verdicts(got)
				if !slices.Equal(want, got) {
					t.Fatalf("%s, trial %d: verdicts %v, per-event %v", pr.name, trial, got, want)
				}
			}
		}
	}
}
