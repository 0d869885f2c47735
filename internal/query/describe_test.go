package query

import "testing"

// TestDescribeReturns checks that Describe reports each runner's return
// storage — per solo query and per product group — and that forcing the
// sparse form is what flips it.
func TestDescribeReturns(t *testing.T) {
	defer func(old int) { denseReturnLimit = old }(denseReturnLimit)
	for _, limit := range []int{denseReturnLimit, 1} {
		denseReturnLimit = limit
		want := "dense"
		if limit == 1 {
			want = "sparse"
		}
		d := Describe(plannedGoldenBundle(t))
		if len(d.Groups) != 1 || d.Groups[0].Returns != want {
			t.Errorf("limit %d: groups = %+v, want one with %s returns", limit, d.Groups, want)
		}
		for _, q := range d.Queries {
			wantQ := want
			if q.Kind == "product-member" {
				wantQ = ""
			}
			if q.Returns != wantQ {
				t.Errorf("limit %d: query %q (%s) returns = %q, want %q", limit, q.Name, q.Kind, q.Returns, wantQ)
			}
		}
	}
}
