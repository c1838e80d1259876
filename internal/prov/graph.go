package prov

import (
	"iter"
	"maps"
	"slices"
	"sort"
)

// Graph is an in-memory provenance graph: records indexed by subject, with
// forward (input) and reverse (derived-object) edges. Query engines build
// one from retrieved records; the S3-only architecture's full-scan queries
// materialize one as they go.
//
// Graph is not safe for concurrent mutation.
type Graph struct {
	records map[Ref][]Record
	// children: ancestor -> set of subjects that list it as input.
	children map[Ref][]Ref
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		records:  make(map[Ref][]Record),
		children: make(map[Ref][]Ref),
	}
}

// Add inserts one record.
func (g *Graph) Add(r Record) {
	g.records[r.Subject] = append(g.records[r.Subject], r)
	if r.Attr == AttrInput && r.Value.Kind == KindRef {
		g.children[r.Value.Ref] = append(g.children[r.Value.Ref], r.Subject)
	}
}

// AddAll inserts a batch of records.
func (g *Graph) AddAll(records []Record) {
	for _, r := range records {
		g.Add(r)
	}
}

// AddSubject inserts records that are all about ref — one query entry, one
// stored item — at one map lookup for the lot. A subject the graph has not
// seen adopts the slice: the caller must leave it alone from then on.
func (g *Graph) AddSubject(ref Ref, records []Record) {
	if len(records) == 0 {
		return
	}
	if have := g.records[ref]; len(have) > 0 {
		g.records[ref] = append(have, records...)
	} else {
		g.records[ref] = records[:len(records):len(records)] // capped: a later append reallocates
	}
	for i := range records {
		if r := &records[i]; r.Attr == AttrInput && r.Value.Kind == KindRef {
			g.children[r.Value.Ref] = append(g.children[r.Value.Ref], ref)
		}
	}
}

// Replace returns a copy of g in which each subject of subjects holds exactly
// the given records — none: the subject goes — and the reverse edges follow.
// g is left as it was, so its readers are undisturbed: the copy shares every
// record slice and child list it does not change, and adopts the given
// slices. Its cost is a copy of the two indexes plus the replaced subjects'
// edges, never a rebuild from records.
func (g *Graph) Replace(subjects map[Ref][]Record) *Graph {
	out := &Graph{records: maps.Clone(g.records), children: maps.Clone(g.children)}
	owned := make(map[Ref]bool) // child lists already copied out of g
	edit := func(parent Ref, change func([]Ref) []Ref) {
		kids := out.children[parent]
		if !owned[parent] {
			owned[parent] = true
			kids = slices.Clone(kids)
		}
		if kids = change(kids); len(kids) == 0 {
			delete(out.children, parent) // an edge source no subject names
		} else {
			out.children[parent] = kids
		}
	}
	for subject, records := range subjects {
		for _, parent := range g.Inputs(subject) {
			edit(parent, func(kids []Ref) []Ref {
				if i := slices.Index(kids, subject); i >= 0 {
					kids = slices.Delete(kids, i, i+1)
				}
				return kids
			})
		}
		for _, parent := range AppendInputs(nil, records) {
			edit(parent, func(kids []Ref) []Ref { return append(kids, subject) })
		}
		if len(records) == 0 {
			delete(out.records, subject)
		} else {
			out.records[subject] = records[:len(records):len(records)]
		}
	}
	return out
}

// Len is the number of distinct subjects.
func (g *Graph) Len() int { return len(g.records) }

// Records returns the records asserted about ref, in insertion order.
func (g *Graph) Records(ref Ref) []Record {
	return g.records[ref]
}

// Has reports whether any records exist for ref.
func (g *Graph) Has(ref Ref) bool {
	_, ok := g.records[ref]
	return ok
}

// Subjects returns all subject refs, sorted for determinism.
func (g *Graph) Subjects() []Ref {
	out := make([]Ref, 0, len(g.records))
	for r := range g.records {
		out = append(out, r)
	}
	sortRefs(out)
	return out
}

// SubjectSeq yields every subject once with its records (read-only), in no
// particular order and without Subjects' copy and sort. The graph must not
// change while ranging.
func (g *Graph) SubjectSeq() iter.Seq2[Ref, []Record] { return maps.All(g.records) }

// EdgeSourceSeq yields every ref that some subject lists as an input, once,
// in no particular order — including refs with no records of their own. Such
// edge-only refs are real: on the S3-only architecture an overwrite replaces
// the object's per-version metadata, so a superseded version survives in a
// scan-built graph only as other subjects' input edges.
func (g *Graph) EdgeSourceSeq() iter.Seq[Ref] { return maps.Keys(g.children) }

// Inputs returns ref's direct dependencies.
func (g *Graph) Inputs(ref Ref) []Ref { return AppendInputs(nil, g.records[ref]) }

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
func (g *Graph) ChildList(ref Ref) []Ref { return g.children[ref] }

// IsAcyclic verifies the causality invariant: no ref is its own ancestor.
// PASS versioning must make this true by construction; tests assert it.
func (g *Graph) IsAcyclic() bool {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make(map[Ref]int, len(g.records))
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
	for r := range g.records {
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
	for subject := range g.records {
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
