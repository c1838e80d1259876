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
package planner

import (
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

// SDBCatalog mirrors a SimpleDB provenance domain: stored-form records per
// item, with the value and ancestry indexes the backend's automatic
// indexing would build. Stored-form matters — the planner must predict what
// the backend's index will match, which is the encoded value, not the
// decoded one. Safe for concurrent use.
type SDBCatalog struct {
	mu      sync.Mutex
	items   map[prov.Ref][]prov.Record
	stats   map[prov.Ref]ItemStats
	byAttr  map[string]map[string]map[prov.Ref]bool // attr -> stored value -> subjects
	byInput map[prov.Ref]map[prov.Ref]bool          // input ref -> subjects listing it
	// spilledInputs are the input refs among each item's spilled records:
	// outside the indexes (the backend cannot match them, and Dependents
	// must keep predicting that), but a fetch of the item decodes them.
	spilledInputs map[prov.Ref][]prov.Ref
}

// NewSDBCatalog returns an empty catalog.
func NewSDBCatalog() *SDBCatalog {
	return &SDBCatalog{
		items:         make(map[prov.Ref][]prov.Record),
		stats:         make(map[prov.Ref]ItemStats),
		byAttr:        make(map[string]map[string]map[prov.Ref]bool),
		byInput:       make(map[prov.Ref]map[prov.Ref]bool),
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
	if old, ok := c.items[subject]; ok {
		c.unindex(subject, old)
	}
	records := append([]prov.Record(nil), inline...)
	c.items[subject] = records
	st := ItemStats{Spill: len(spill) > 0}
	countPtr := func(r prov.Record) {
		if r.Value.Kind == prov.KindString {
			if _, _, isPtr := core.DecodeValue(r.Value.Str); isPtr {
				st.PtrGets++
			}
		}
	}
	for _, r := range records {
		c.index(subject, r)
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

func (c *SDBCatalog) index(subject prov.Ref, r prov.Record) {
	value := r.Value.String()
	byVal := c.byAttr[r.Attr]
	if byVal == nil {
		byVal = make(map[string]map[prov.Ref]bool)
		c.byAttr[r.Attr] = byVal
	}
	subjects := byVal[value]
	if subjects == nil {
		subjects = make(map[prov.Ref]bool)
		byVal[value] = subjects
	}
	subjects[subject] = true
	if r.Attr == prov.AttrInput && r.Value.Kind == prov.KindRef {
		deps := c.byInput[r.Value.Ref]
		if deps == nil {
			deps = make(map[prov.Ref]bool)
			c.byInput[r.Value.Ref] = deps
		}
		deps[subject] = true
	}
}

func (c *SDBCatalog) unindex(subject prov.Ref, records []prov.Record) {
	for _, r := range records {
		if byVal := c.byAttr[r.Attr]; byVal != nil {
			delete(byVal[r.Value.String()], subject)
		}
		if r.Attr == prov.AttrInput && r.Value.Kind == prov.KindRef {
			delete(c.byInput[r.Value.Ref], subject)
		}
	}
}

// Forget drops one item's observation — the mirror of a deleted item
// (orphan cleanup, arc migration), so scan and index predictions stop
// counting it.
func (c *SDBCatalog) Forget(subject prov.Ref) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[subject]; ok {
		c.unindex(subject, old)
	}
	delete(c.items, subject)
	delete(c.stats, subject)
	delete(c.spilledInputs, subject)
}

// Items is the number of mirrored items — the scan's GetAttributes count.
func (c *SDBCatalog) Items() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
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
	want := make(map[string]bool, len(attrNames))
	for _, n := range attrNames {
		want[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, ref := range refs {
		for _, r := range c.items[ref] {
			if !want[r.Attr] || r.Value.Kind != prov.KindString {
				continue
			}
			if _, _, isPtr := core.DecodeValue(r.Value.Str); isPtr {
				n++
			}
		}
	}
	return n
}

// MatchAttr returns the subjects the backend's index would return for
// attr = storedValue.
func (c *SDBCatalog) MatchAttr(attr, storedValue string) []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []prov.Ref
	for subject := range c.byAttr[attr][storedValue] {
		out = append(out, subject)
	}
	sortByItemName(out)
	return out
}

// MatchAttrs intersects several attr = storedValue predicates, mirroring a
// pushdown expression joined with `intersection`.
func (c *SDBCatalog) MatchAttrs(filters []prov.AttrFilter) []prov.Ref {
	if len(filters) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	acc := make(map[prov.Ref]bool)
	for subject := range c.byAttr[filters[0].Attr][filters[0].Value] {
		acc[subject] = true
	}
	for _, f := range filters[1:] {
		next := c.byAttr[f.Attr][f.Value]
		for subject := range acc {
			if !next[subject] {
				delete(acc, subject)
			}
		}
	}
	out := make([]prov.Ref, 0, len(acc))
	for subject := range acc {
		out = append(out, subject)
	}
	sortByItemName(out)
	return out
}

// Dependents returns the subjects listing any of refs among their inputs —
// one simulated chunk of the two-phase query.
func (c *SDBCatalog) Dependents(refs []prov.Ref) []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[prov.Ref]bool)
	var out []prov.Ref
	for _, r := range refs {
		for subject := range c.byInput[r] {
			seen[subject] = true
		}
	}
	for subject := range seen {
		out = append(out, subject)
	}
	sortByItemName(out)
	return out
}

// DependentsOfPrefix returns the subjects with an input whose stored ref
// form starts with prefix — the simulated starts-with query.
func (c *SDBCatalog) DependentsOfPrefix(prefix string) []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[prov.Ref]bool)
	var out []prov.Ref
	for in, deps := range c.byInput {
		if !hasPrefix(in.String(), prefix) {
			continue
		}
		for subject := range deps {
			seen[subject] = true
		}
	}
	for subject := range seen {
		out = append(out, subject)
	}
	sortByItemName(out)
	return out
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// sortByItemName mirrors the backend's result order: queries return item
// names lexicographically sorted, which is not ref order (version 10 sorts
// before version 2 as a string). Chunking simulations must follow it so
// page-boundary predictions land exactly where the real run's do.
func sortByItemName(refs []prov.Ref) {
	sort.Slice(refs, func(i, j int) bool {
		return prov.EncodeItemName(refs[i]) < prov.EncodeItemName(refs[j])
	})
}

// Inputs returns the input refs a fetch of the item decodes — inline records
// first, then the spilled ones — duplicates included.
func (c *SDBCatalog) Inputs(ref prov.Ref) []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(prov.AppendInputs(nil, c.items[ref]), c.spilledInputs[ref]...)
}

// Records returns the subject's inline stored-form records (read-only).
func (c *SDBCatalog) Records(ref prov.Ref) []prov.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.items[ref]
}

// AllRefs returns every mirrored item's ref in backend (item-name) order.
func (c *SDBCatalog) AllRefs() []prov.Ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]prov.Ref, 0, len(c.items))
	for subject := range c.items {
		out = append(out, subject)
	}
	sortByItemName(out)
	return out
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
