package prov

import (
	"cmp"
	"hash/maphash"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Graph is an in-memory provenance graph: records indexed by subject, with
// forward (input) and reverse (derived-object) edges and, once asked an
// attribute question, postings. Query engines build one from retrieved
// records; the S3-only architecture's full-scan queries materialize one as
// they go.
//
// Its indexes are persistent maps ordered by key (tree): Replace derives a
// graph that shares every node and list it does not change, and the edge
// sources under a ref prefix are one key range. A graph changes its own
// nodes in place while it builds (Add, AddSubject), until Replace shares
// them.
//
// Graph is not safe for concurrent mutation. Readers and Replace may run
// beside each other, Posting's first build included.
type Graph struct {
	records tree[subjectKey, []Record]
	// children: ancestor -> the subjects listing it as an input, one entry
	// per input record, unsorted.
	children tree[Ref, []Ref]
	// edit is the epoch this graph's own nodes carry; 0 once Replace has
	// shared them, so later mutations copy.
	edit atomic.Uint64
	// post is built on the first Posting call (postOnce), or inherited from
	// the graph Replace derived this one from; every mutation then keeps it
	// current. A graph never asked an attribute question never builds it.
	postOnce sync.Once
	post     atomic.Pointer[postings]
}

// postings maps an attribute value to the subjects asserting it, a set
// ordered as the records index is. It holds every record but the ones
// children already indexes: input edges to refs in canonical form. Nothing
// reads it in value order, so it too is ordered by hash.
type postings = tree[postKey, refSet]

type refSet = tree[subjectKey, struct{}]

// postKey is one attribute value, spelled as Value.String renders it, with
// its hash.
type postKey struct {
	h           uint64
	attr, value string
}

func newPostKey(attr, value string) postKey {
	return postKey{maphash.String(hashSeed, value) ^ maphash.String(hashSeed, attr)*0x9e3779b97f4a7c15, attr, value}
}

func (k postKey) compare(o postKey) int {
	if c := cmp.Compare(k.h, o.h); c != 0 {
		return c
	}
	if c := strings.Compare(k.attr, o.attr); c != 0 {
		return c
	}
	return strings.Compare(k.value, o.value)
}

// postValue returns the attribute value r is posted under, false for an
// input edge to a canonical ref (ParseRef reads its String back): those
// children indexes.
func postValue(r *Record) (attr, value string, ok bool) {
	if v := &r.Value; r.Attr == AttrInput && v.Kind == KindRef && v.Ref.Object != "" && v.Ref.Version >= 0 {
		return "", "", false
	}
	return r.Attr, r.Value.String(), true
}

// subjectKey orders the records index by a hash of the subject, then the
// subject: lookups by ref need no order, and a hash settles nearly every
// comparison without reading an object name.
type subjectKey struct {
	h   uint64
	ref Ref
}

func keyOf(ref Ref) subjectKey { return subjectKey{ref.hash(), ref} }

func (k subjectKey) compare(o subjectKey) int {
	if c := cmp.Compare(k.h, o.h); c != 0 {
		return c
	}
	return k.ref.compare(o.ref)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	g := new(Graph)
	g.edit.Store(newEpoch())
	return g
}

// Add inserts one record.
func (g *Graph) Add(r Record) {
	ep := g.edit.Load()
	s, _ := g.records.slot(keyOf(r.Subject), ep)
	if !s.own {
		s.val = s.val[:len(s.val):len(s.val)] // shared: the append reallocates
	}
	s.val, s.own = append(s.val, r), true
	g.link(r.Subject, s.val[len(s.val)-1:], ep)
}

// AddAll inserts a batch of records.
func (g *Graph) AddAll(records []Record) {
	for _, r := range records {
		g.Add(r)
	}
}

// AddSubject inserts records that are all about ref — one query entry, one
// stored item — at one lookup for the lot. A subject the graph has not seen
// adopts the slice: the caller must leave it alone from then on.
func (g *Graph) AddSubject(ref Ref, records []Record) {
	if len(records) == 0 {
		return
	}
	ep := g.edit.Load()
	records = records[:len(records):len(records)] // capped: a later append reallocates
	s, _ := g.records.slot(keyOf(ref), ep)
	if len(s.val) == 0 {
		s.val = records
	} else {
		if !s.own {
			s.val = s.val[:len(s.val):len(s.val)]
		}
		s.val = append(s.val, records...)
	}
	s.own = true
	g.link(ref, records, ep)
}

// link indexes records, newly asserted by subject, under epoch ep: each
// input edge joins its parent's child list and, once built, each posting
// gains subject.
func (g *Graph) link(subject Ref, records []Record, ep uint64) {
	for i := range records {
		if r := &records[i]; r.Attr == AttrInput && r.Value.Kind == KindRef {
			g.addChild(r.Value.Ref, subject, ep)
		}
	}
	if p := g.post.Load(); p != nil {
		for i := range records {
			if attr, value, ok := postValue(&records[i]); ok {
				addPosting(p, newPostKey(attr, value), subject, ep)
			}
		}
	}
}

func (g *Graph) addChild(parent, subject Ref, ep uint64) {
	s, _ := g.children.slot(parent, ep)
	if !s.own {
		s.val = s.val[:len(s.val):len(s.val)]
	}
	s.val, s.own = append(s.val, subject), true
}

// removeChild drops one entry of subject from parent's child list, and the
// list once empty: an edge source no subject names.
func (g *Graph) removeChild(parent, subject Ref, ep uint64) {
	kids := g.ChildList(parent)
	i := slices.Index(kids, subject)
	switch {
	case i < 0:
		return
	case len(kids) == 1:
		g.children.del(parent, ep)
		return
	}
	s, _ := g.children.slot(parent, ep)
	if s.own {
		s.val = slices.Delete(s.val, i, i+1)
	} else {
		s.val, s.own = slices.Concat(s.val[:i], s.val[i+1:]), true
	}
}

func addPosting(p *postings, k postKey, subject Ref, ep uint64) {
	s, _ := p.slot(k, ep)
	s.val.put(keyOf(subject), struct{}{}, ep)
	s.own = true
}

func removePosting(p *postings, k postKey, subject Ref, ep uint64) {
	set, _ := p.get(k)
	sk := keyOf(subject)
	switch n, _ := set.find(sk); {
	case n == nil: // gone already: subject asserted k twice
	case set.n == 1:
		p.del(k, ep)
	default:
		s, _ := p.slot(k, ep)
		s.val.del(sk, ep)
		s.own = true
	}
}

// asserts reports whether some record is posted under attr = value.
func asserts(records []Record, attr, value string) bool {
	for i := range records {
		if a, v, ok := postValue(&records[i]); ok && a == attr && v == value {
			return true
		}
	}
	return false
}

// Replace returns a graph in which each subject of subjects holds exactly
// the given records — none: the subject goes — and the reverse edges and
// built postings follow. g is left as it was, so its readers are
// undisturbed: the new graph shares every tree node, record slice and child
// list it does not change, and adopts the given slices. Its cost is one path
// per changed key — O(touched · log n) — plus a copy of each child list a
// replaced subject joins or leaves; nothing is cloned whole or rebuilt from
// records. From here on g copies what it changes (Add after Replace stays
// correct, only slower).
func (g *Graph) Replace(subjects map[Ref][]Record) *Graph {
	g.edit.Store(0) // g's nodes are about to be shared
	ep := newEpoch()
	out := &Graph{records: g.records, children: g.children}
	out.edit.Store(ep)
	var post *postings
	if p := g.post.Load(); p != nil {
		c := *p
		post = &c
	}
	for subject, records := range subjects {
		k := keyOf(subject)
		old, _ := g.records.get(k)
		for i := range old {
			if r := &old[i]; r.Attr == AttrInput && r.Value.Kind == KindRef {
				out.removeChild(r.Value.Ref, subject, ep)
			}
		}
		for i := range records {
			if r := &records[i]; r.Attr == AttrInput && r.Value.Kind == KindRef {
				out.addChild(r.Value.Ref, subject, ep)
			}
		}
		if len(records) == 0 {
			out.records.del(k, ep)
		} else {
			out.records.put(k, records[:len(records):len(records)], ep)
		}
		if post == nil {
			continue
		}
		for i := range old {
			if attr, value, ok := postValue(&old[i]); ok && !asserts(records, attr, value) {
				removePosting(post, newPostKey(attr, value), subject, ep)
			}
		}
		for i := range records {
			if attr, value, ok := postValue(&records[i]); ok && !asserts(old, attr, value) {
				addPosting(post, newPostKey(attr, value), subject, ep)
			}
		}
	}
	if post != nil {
		out.post.Store(post)
	}
	return out
}

// Posting is the set of subjects asserting one attribute value.
type Posting struct {
	set  refSet
	kids []Ref
}

// Posting returns the subjects with a record asserting attr = value, in the
// spelling Value.String renders — the rule attribute filters match by. The
// first call builds the graph's postings, in one pass over its records;
// input edges are read from the child lists instead.
func (g *Graph) Posting(attr, value string) Posting {
	g.postOnce.Do(func() {
		if g.post.Load() == nil {
			g.post.Store(g.buildPostings())
		}
	})
	var p Posting
	p.set, _ = g.post.Load().get(newPostKey(attr, value))
	if attr == AttrInput {
		if ref, err := ParseRef(value); err == nil {
			p.kids = g.ChildList(ref)
		}
	}
	return p
}

// buildPostings builds the postings in bulk: every (value, subject) pair,
// sorted — by hashes, nearly always — then each tree built bottom-up.
func (g *Graph) buildPostings() *postings {
	type pair struct {
		k       postKey
		subject subjectKey
	}
	size := 0
	g.records.all(func(_ subjectKey, records []Record) bool {
		size += len(records)
		return true
	})
	pairs := make([]pair, 0, size)
	g.records.all(func(subject subjectKey, records []Record) bool {
		for i := range records {
			if attr, value, ok := postValue(&records[i]); ok {
				pairs = append(pairs, pair{newPostKey(attr, value), subject})
			}
		}
		return true
	})
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := a.k.compare(b.k); c != 0 {
			return c
		}
		return a.subject.compare(b.subject)
	})
	pairs = slices.Compact(pairs) // a subject asserting one value twice
	var starts []int              // where each value's run of pairs starts, and the end
	for i := range pairs {
		if i == 0 || pairs[i].k != pairs[i-1].k {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(pairs))
	ep := newEpoch()
	p := buildTree(len(starts)-1, func(i int) (postKey, refSet) {
		run := pairs[starts[i]:starts[i+1]]
		return run[0].k, buildTree(len(run), func(j int) (subjectKey, struct{}) { return run[j].subject, struct{}{} }, ep)
	}, ep)
	return &p
}

// Len bounds how many subjects All yields: one listing the same input twice
// counts twice.
func (p Posting) Len() int { return p.set.n + len(p.kids) }

// All yields each subject once: an input value's children first, in list
// order, then the rest in the set's (hash) order.
func (p Posting) All() iter.Seq[Ref] {
	return func(yield func(Ref) bool) {
		if len(p.kids) == 0 {
			p.set.all(func(k subjectKey, _ struct{}) bool { return yield(k.ref) })
			return
		}
		seen := make(map[Ref]bool, p.Len())
		for _, r := range p.kids {
			if !seen[r] {
				seen[r] = true
				if !yield(r) {
					return
				}
			}
		}
		p.set.all(func(k subjectKey, _ struct{}) bool { return seen[k.ref] || yield(k.ref) })
	}
}

// Len is the number of distinct subjects.
func (g *Graph) Len() int { return g.records.n }

// Records returns the records asserted about ref, in insertion order.
func (g *Graph) Records(ref Ref) []Record {
	records, _ := g.records.get(keyOf(ref))
	return records
}

// Has reports whether any records exist for ref.
func (g *Graph) Has(ref Ref) bool {
	n, _ := g.records.find(keyOf(ref))
	return n != nil
}

// Subjects returns all subject refs, sorted.
func (g *Graph) Subjects() []Ref {
	out := make([]Ref, 0, g.records.n)
	for r := range g.SubjectSeq() {
		out = append(out, r)
	}
	sortRefs(out)
	return out
}

// SubjectSeq yields every subject once with its records (read-only), in no
// particular order and without Subjects' copy and sort. The graph must not
// change while ranging.
func (g *Graph) SubjectSeq() iter.Seq2[Ref, []Record] {
	return func(yield func(Ref, []Record) bool) {
		g.records.all(func(k subjectKey, records []Record) bool { return yield(k.ref, records) })
	}
}

// EdgeSourceSeq yields every ref that some subject lists as an input, once,
// in ref order — including refs with no records of their own. Such
// edge-only refs are real: on the S3-only architecture an overwrite replaces
// the object's per-version metadata, so a superseded version survives in a
// scan-built graph only as other subjects' input edges.
func (g *Graph) EdgeSourceSeq() iter.Seq[Ref] {
	return func(yield func(Ref) bool) {
		g.children.all(func(r Ref, _ []Ref) bool { return yield(r) })
	}
}

// EdgeSourcesWithPrefix yields, in ref order, the edge sources whose
// canonical string form starts with prefix (Ref.HasPrefix): the objects
// under prefix are one key range, and a prefix running past an object name
// reaches that object's versions only where the name ends at one of its
// colons — names may hold colons themselves, so each such object is read.
func (g *Graph) EdgeSourcesWithPrefix(prefix string) iter.Seq[Ref] {
	return func(yield func(Ref) bool) {
		more := true
		for i := 0; i < len(prefix) && more; i++ {
			if prefix[i] != ':' {
				continue
			}
			// Shorter names sort first, so the range stays in ref order.
			object := ObjectID(prefix[:i])
			g.children.from(Ref{Object: object, Version: math.MinInt}, func(r Ref, _ []Ref) bool {
				if r.Object != object {
					return false
				}
				if r.HasPrefix(prefix) {
					more = yield(r)
				}
				return more
			})
		}
		if more {
			g.children.from(Ref{Object: ObjectID(prefix), Version: math.MinInt}, func(r Ref, _ []Ref) bool {
				return strings.HasPrefix(string(r.Object), prefix) && yield(r)
			})
		}
	}
}

// Inputs returns ref's direct dependencies.
func (g *Graph) Inputs(ref Ref) []Ref { return AppendInputs(nil, g.Records(ref)) }

// AppendInputs appends to dst the refs records name as inputs, in order.
func AppendInputs(dst []Ref, records []Record) []Ref {
	for i := range records {
		if r := &records[i]; r.Attr == AttrInput && r.Value.Kind == KindRef {
			dst = append(dst, r.Value.Ref)
		}
	}
	return dst
}

// ChildList returns the subjects that directly depend on ref, unsorted and
// shared with the graph: read-only.
func (g *Graph) ChildList(ref Ref) []Ref {
	kids, _ := g.children.get(ref)
	return kids
}

// IsAcyclic verifies the causality invariant: no ref is its own ancestor.
// PASS versioning must make this true by construction; tests assert it.
func (g *Graph) IsAcyclic() bool {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[Ref]int, g.records.n)
	var visit func(Ref) bool
	visit = func(r Ref) bool {
		switch state[r] {
		case inStack:
			return false
		case done:
			return true
		}
		state[r] = inStack
		for _, in := range g.Inputs(r) {
			if !visit(in) {
				return false
			}
		}
		state[r] = done
		return true
	}
	for r := range g.SubjectSeq() {
		if !visit(r) {
			return false
		}
	}
	return true
}

// MissingAncestors returns input references that have no records in the
// graph — the causal-ordering violation the paper defines ("the object is
// disconnected from its provenance tree"). A complete graph returns none.
func (g *Graph) MissingAncestors() []Ref {
	seen := make(map[Ref]bool)
	var out []Ref
	for subject := range g.SubjectSeq() {
		for _, in := range g.Inputs(subject) {
			if !g.Has(in) && !seen[in] {
				seen[in] = true
				out = append(out, in)
			}
		}
	}
	sortRefs(out)
	return out
}

// SortRefs orders refs canonically: by object, then version. Query engines
// and the reference evaluator use it as the one deterministic result order.
func SortRefs(refs []Ref) { sortRefs(refs) }

func sortRefs(refs []Ref) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Object != refs[j].Object {
			return refs[i].Object < refs[j].Object
		}
		return refs[i].Version < refs[j].Version
	})
}
