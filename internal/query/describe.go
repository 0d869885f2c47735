package query

import "encoding/hex"

// QueryDesc is the machine-readable description of one compiled query in a
// bundle: its bundle name, its runner kind ("dnwa" for deterministic
// compiled tables, "nnwa" for the nondeterministic state-set runner,
// "product-member" for a query answered by a shared product automaton), and
// its state count, and how its return table is stored: "dense" (one indexed
// load per return) or "sparse" (a binary search per return).  A product
// member carries no tables of its own — its group does — so States is 0,
// Returns is empty, and Group points (1-based) at the BundleDesc.Groups entry
// that answers it.
type QueryDesc struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	States  int    `json:"states"`
	Returns string `json:"returns,omitempty"`
	Group   int    `json:"group,omitempty"`
}

// GroupDesc is the machine-readable description of one product-compiled
// cluster: the member names in mask-bit order, the shared automaton's kind
// ("product-dnwa" or "product-nnwa"), state count and return-table storage
// ("dense" or "sparse", as for QueryDesc), and the width in uint64 words of
// each accept-bitmask row the verdict demux reads.
type GroupDesc struct {
	Queries   []string `json:"queries"`
	Kind      string   `json:"kind"`
	States    int      `json:"states"`
	Returns   string   `json:"returns"`
	MaskWords int      `json:"mask_words"`
}

// BundleDesc is the machine-readable description of a loaded query bundle.
// It is the one schema shared by ops tooling (`nwtool bundle -json`) and
// the serving front-end (the `bundle` object of `GET /v1/status`), so a
// dashboard comparing what is on disk against what a server actually
// loaded compares like with like.  Groups is empty for an unplanned bundle.
type BundleDesc struct {
	Alphabet     []string    `json:"alphabet"`
	AlphabetSize int         `json:"alphabet_size"`
	Queries      []QueryDesc `json:"queries"`
	Groups       []GroupDesc `json:"groups,omitempty"`

	// ContentHash is the hex content hash of the container the bundle was
	// decoded from (empty for a bundle built in memory), and HashVerified
	// says whether it is a verified VersionHashed header hash rather than
	// the plain checksum of an unhashed v1 container.  It is the same value
	// GET /v1/bundle serves as the ETag, so a dashboard can tell whether a
	// server is running the artifact the compile host published.
	ContentHash  string `json:"content_hash,omitempty"`
	HashVerified bool   `json:"hash_verified,omitempty"`
}

// Describe summarizes a loaded bundle: shared alphabet, per query the name,
// kind, and state count, and — for a planned bundle — the product groups
// with their member lists.
func Describe(b *Bundle) BundleDesc {
	d := BundleDesc{
		Alphabet:     b.Alphabet().Symbols(),
		AlphabetSize: b.Alphabet().Size(),
		Queries:      make([]QueryDesc, 0, b.Len()),
	}
	if sum, verified, ok := b.ContentHash(); ok {
		d.ContentHash = hex.EncodeToString(sum[:])
		d.HashVerified = verified
	}
	groupOf := map[int]int{} // bundle index → 1-based group number
	for gi, g := range b.Groups() {
		gd := GroupDesc{
			Kind:      "product-dnwa",
			States:    g.Product.NumStates(),
			Returns:   returnsDesc(g.Product.denseReturns()),
			MaskWords: g.Product.maskW,
		}
		if !g.Product.Deterministic() {
			gd.Kind = "product-nnwa"
		}
		for _, idx := range g.Indices {
			gd.Queries = append(gd.Queries, b.Name(int(idx)))
			groupOf[int(idx)] = gi + 1
		}
		d.Groups = append(d.Groups, gd)
	}
	for i := 0; i < b.Len(); i++ {
		q := QueryDesc{Name: b.Name(i), Kind: "dnwa"}
		switch c := b.Query(i).(type) {
		case *Compiled:
			q.States, q.Returns = c.NumStates(), returnsDesc(c.Dense())
		case *CompiledN:
			q.Kind, q.States, q.Returns = "nnwa", c.NumStates(), returnsDesc(c.Dense())
		case nil:
			q.Kind, q.Group = "product-member", groupOf[i]
		}
		d.Queries = append(d.Queries, q)
	}
	return d
}

// returnsDesc names a return table's storage form.
func returnsDesc(dense bool) string {
	if dense {
		return "dense"
	}
	return "sparse"
}
