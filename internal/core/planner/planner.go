// Package planner holds the client-side statistics catalogs behind
// core.Querier.Explain: a mirror of what each store has written, detailed
// enough to predict — without any cloud traffic — exactly how many
// operations a query plan will meter. This is the Table 3 cost model turned
// into a live planner: instead of three fixed formulas, each store
// simulates its chosen plan (scan, two-phase indexed query, prefix
// traversal) against the catalog.
//
// The catalog observes the store's own writes, so predictions are exact for
// a single-writer repository (the paper's evaluation setup) and degrade to
// estimates when other clients of a shared region write behind this
// client's back — Explain reports which via QueryPlan.Exact.
//
// The SimpleDB catalog keeps no index of its own: its items' inline records
// live in a prov.Graph, whose postings, child lists and edge-source ranges
// answer the backend's value, dependency and starts-with queries.
package planner

import (
	"slices"
	"sort"
	"sync"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// ItemStats is one SimpleDB item's decode cost, as the scan planner needs
// it: fetching the item costs one GetAttributes, plus one S3 GET per
// pointer-valued record and one for the spill object when present.
type ItemStats struct {
	PtrGets int
	Spill   bool
}

// Gets is the item's S3 GETs on decode.
func (s ItemStats) Gets() int64 {
	n := int64(s.PtrGets)
	if s.Spill {
		n++
	}
	return n
}

// SDBCatalog mirrors a SimpleDB provenance domain: each item's inline
// records in stored form, held in a prov.Graph whose postings and child lists
// are the value and ancestry indexes the backend's automatic indexing would
// build, plus each item's decode cost. Stored form matters — the planner
// must predict what the backend's index will match, which is the encoded
// value, not the decoded one — so the graph stays the catalog's own: query
// snapshots hold decoded records. Safe for concurrent use.
type SDBCatalog struct {
	mu sync.Mutex
	// g holds each item's inline records; an item with none is absent from
	// it, so stats is the item set. Unshared, g changes its nodes in place:
	// every read of it runs under mu.
	g     *prov.Graph
	stats map[prov.Ref]ItemStats
	// spilledInputs are the input refs among each item's spilled records:
	// outside the indexes (the backend cannot match them, and Dependents
	// must keep predicting that), but a fetch of the item decodes them.
	spilledInputs map[prov.Ref][]prov.Ref
}

// NewSDBCatalog returns an empty catalog.
func NewSDBCatalog() *SDBCatalog {
	return &SDBCatalog{
		g:             prov.NewGraph(),
		stats:         make(map[prov.Ref]ItemStats),
		spilledInputs: make(map[prov.Ref][]prov.Ref),
	}
}

// Observe records one item write: the subject's inline (indexed) records
// and its spilled remainder. Only inline records enter the value indexes —
// SimpleDB cannot index what lives in the S3 spill object, and the planner
// must predict what the backend's index will actually match. Decode costs
// count both, and so does Inputs: a fetched item decodes whole. Rewrites of
// the same subject replace the previous observation (provenance item replays
// are idempotent).
func (c *SDBCatalog) Observe(subject prov.Ref, inline, spill []prov.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	records := slices.Clone(inline)
	if _, ok := c.stats[subject]; ok {
		c.g = c.g.Replace(map[prov.Ref][]prov.Record{subject: records})
	} else {
		c.g.AddSubject(subject, records)
	}
	st := ItemStats{Spill: len(spill) > 0}
	countPtr := func(r prov.Record) {
		if r.Value.Kind == prov.KindString {
			if _, _, isPtr := core.DecodeValue(r.Value.Str); isPtr {
				st.PtrGets++
			}
		}
	}
	for _, r := range records {
		countPtr(r)
	}
	delete(c.spilledInputs, subject)
	for _, r := range spill {
		countPtr(r)
		if r.Attr == prov.AttrInput && r.Value.Kind == prov.KindRef {
			c.spilledInputs[subject] = append(c.spilledInputs[subject], r.Value.Ref)
		}
	}
	c.stats[subject] = st
}

// Forget drops one item's observation — the mirror of a deleted item
// (orphan cleanup, arc migration), so scan and index predictions stop
// counting it.
func (c *SDBCatalog) Forget(subject prov.Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g.Has(subject) {
		c.g = c.g.Replace(map[prov.Ref][]prov.Record{subject: nil})
	}
	delete(c.stats, subject)
	delete(c.spilledInputs, subject)
}

// Items is the number of mirrored items — the scan's GetAttributes count.
func (c *SDBCatalog) Items() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stats)
}

// DecodeGets is the S3 GETs a full-repository decode issues.
func (c *SDBCatalog) DecodeGets() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, st := range c.stats {
		n += st.Gets()
	}
	return n
}

// ItemGets is the S3 GETs decoding the given items issues.
func (c *SDBCatalog) ItemGets(refs []prov.Ref) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, r := range refs {
		n += c.stats[r].Gets()
	}
	return n
}

// AttrGets is the S3 GETs decoding the named attributes of the given items
// issues: one per pointer-encoded stored value among each item's inline
// records whose attribute is requested. This is the decode cost of
// attributes riding a QueryWithAttributes response.
func (c *SDBCatalog) AttrGets(refs []prov.Ref, attrNames []string) int64 {
	if len(attrNames) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, ref := range refs {
		for _, r := range c.g.Records(ref) {
			if r.Value.Kind != prov.KindString || !slices.Contains(attrNames, r.Attr) {
				continue
			}
			if _, _, isPtr := core.DecodeValue(r.Value.Str); isPtr {
				n++
			}
		}
	}
	return n
}

// MatchAttrs returns the subjects the backend's index would return for
// several attr = storedValue predicates joined with `intersection`: the
// first predicate's posting, kept where the item's records hold the rest.
func (c *SDBCatalog) MatchAttrs(filters []prov.AttrFilter) []prov.Ref {
	if len(filters) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []prov.Ref
	for subject := range c.g.Posting(filters[0].Attr, filters[0].Value).All() {
		if core.MatchAll(c.g.Records(subject), filters[1:]) {
			out = append(out, subject)
		}
	}
	return sortByItemName(out)
}

// Dependents returns the subjects listing any of refs among their inputs —
// one simulated chunk of the two-phase query.
func (c *SDBCatalog) Dependents(refs []prov.Ref) []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []prov.Ref
	for _, r := range refs {
		out = append(out, c.g.ChildList(r)...)
	}
	return sortByItemName(out)
}

// DependentsOfPrefix returns the subjects with an input whose stored ref
// form starts with prefix — the simulated starts-with query.
func (c *SDBCatalog) DependentsOfPrefix(prefix string) []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []prov.Ref
	for in := range c.g.EdgeSourcesWithPrefix(prefix) {
		out = append(out, c.g.ChildList(in)...)
	}
	return sortByItemName(out)
}

// sortByItemName mirrors the backend's result order: queries return item
// names lexicographically sorted, which is not ref order (version 10 sorts
// before version 2 as a string). Chunking simulations must follow it so
// page-boundary predictions land exactly where the real run's do. Each item
// is returned once, as the backend does.
func sortByItemName(refs []prov.Ref) []prov.Ref {
	sort.Slice(refs, func(i, j int) bool {
		return prov.EncodeItemName(refs[i]) < prov.EncodeItemName(refs[j])
	})
	return slices.Compact(refs)
}

// Inputs returns the input refs a fetch of the item decodes — inline records
// first, then the spilled ones — duplicates included.
func (c *SDBCatalog) Inputs(ref prov.Ref) []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(prov.AppendInputs(nil, c.g.Records(ref)), c.spilledInputs[ref]...)
}

// Records returns the subject's inline stored-form records (read-only).
func (c *SDBCatalog) Records(ref prov.Ref) []prov.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.g.Records(ref)
}

// AllRefs returns every mirrored item's ref in backend (item-name) order.
func (c *SDBCatalog) AllRefs() []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]prov.Ref, 0, len(c.stats))
	for subject := range c.stats {
		out = append(out, subject)
	}
	return sortByItemName(out)
}

// S3Catalog mirrors the S3-only architecture's scan costs: the data objects
// a repository scan will LIST and HEAD, and the extra GETs decoding each
// object's metadata triggers (overflow values and the spill bundle). Safe
// for concurrent use.
type S3Catalog struct {
	mu      sync.Mutex
	objects map[string]int64 // data key -> decode GETs
}

// NewS3Catalog returns an empty catalog.
func NewS3Catalog() *S3Catalog {
	return &S3Catalog{objects: make(map[string]int64)}
}

// Observe records one data PUT: the object's key and how many GETs decoding
// its metadata costs. Same-key rewrites replace.
func (c *S3Catalog) Observe(key string, decodeGets int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.objects[key] = decodeGets
}

// Forget drops one object's observation — the mirror of a deleted
// carrier (arc migration), so scan predictions stop counting it.
func (c *S3Catalog) Forget(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.objects, key)
}

// ScanCost returns the scan's object count and total decode GETs.
func (c *S3Catalog) ScanCost() (objects int, gets int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range c.objects {
		gets += g
	}
	return len(c.objects), gets
}
