package core

import (
	"strings"

	"passcloud/internal/prov"
)

// This file is the reference evaluator: the semantics of a prov.Query,
// executed against one materialized provenance graph by a level-bounded BFS
// that shares nothing with the refs pipeline (queryrefs.go) production runs.
// No production code calls it. It is the oracle of all three architectures:
// property tests run randomized descriptors through a store, the shard
// router or the graph executor and through this evaluator over the same
// records, and any disagreement is a bug in the former.

// EvalQuery evaluates q against g and returns the matching entries in
// canonical (ref-sorted) order, projected per the descriptor. Pagination
// fields (Limit, Cursor) are ignored — the paging layer slices the
// evaluated result. The returned record slices are shared with g: callers
// must treat them as read-only.
func EvalQuery(g *prov.Graph, q prov.Query) []Entry {
	refs := EvalQueryRefs(g, q)
	out := make([]Entry, len(refs))
	for i, r := range refs {
		out[i] = Entry{Ref: r}
		if q.Projection == prov.ProjectFull {
			out[i].Records = g.Records(r)
		}
	}
	return out
}

// EvalQueryRefs is EvalQuery's reference set: seeds filtered by the
// descriptor, traversed if a direction is set, in canonical sorted order.
func EvalQueryRefs(g *prov.Graph, q prov.Query) []prov.Ref {
	seeds := evalSeeds(g, q)
	if q.Direction == prov.TraverseNone {
		sorted := append([]prov.Ref(nil), seeds...)
		prov.SortRefs(sorted)
		return sorted
	}

	// Child lists are read unsorted: like the seeds, a level is the same set in
	// whatever order it is listed, and the result is sorted once at the end.
	next := g.Inputs
	if q.Direction == prov.TraverseDescendants {
		next = g.ChildList
	}

	isSeed := make(map[prov.Ref]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}

	// Level-bounded BFS from the seeds. A node is a result when reached by
	// the traversal; seeds count as results only when reached AND
	// IncludeSeeds is set. visited guards expansion, found guards output.
	visited := make(map[prov.Ref]bool, len(seeds))
	found := make(map[prov.Ref]bool)
	frontier := append([]prov.Ref(nil), seeds...)
	for _, s := range seeds {
		visited[s] = true
	}
	var out []prov.Ref
	for level := 0; len(frontier) > 0 && (q.Depth == 0 || level < q.Depth); level++ {
		var nextFrontier []prov.Ref
		for _, r := range frontier {
			for _, n := range next(r) {
				if !found[n] && (q.IncludeSeeds || !isSeed[n]) {
					found[n] = true
					out = append(out, n)
				}
				if !visited[n] {
					visited[n] = true
					nextFrontier = append(nextFrontier, n)
				}
			}
		}
		frontier = nextFrontier
	}
	prov.SortRefs(out)
	return out
}

// evalSeeds returns the seed set selected by q's filters, unordered: it
// ranges the graph's subjects (and edge sources) in map order, because every
// caller either sorts what it gets or uses it as a set — EvalQueryRefs
// ref-sorts seed-only results, and its level-bounded BFS reaches the same
// nodes at the same levels whatever order the frontier is listed in — so the
// iteration order cannot show in any result.
func evalSeeds(g *prov.Graph, q prov.Query) []prov.Ref {
	attrs := q.AttrFilters()
	var out []prov.Ref
	if len(q.Refs) > 0 {
		// Pinned seeds: exactly these versions, intersected with any other
		// filters. Pinned refs need not exist in the graph (an ancestry
		// walk may start at a version whose own records are elsewhere).
		seen := make(map[prov.Ref]bool, len(q.Refs))
		for _, r := range q.Refs {
			if seen[r] {
				continue
			}
			seen[r] = true
			if matchesFilters(g, r, q, attrs, true) {
				out = append(out, r)
			}
		}
		return out
	}
	for subject := range g.SubjectSeq() {
		if matchesFilters(g, subject, q, attrs, false) {
			out = append(out, subject)
		}
	}
	if q.Direction == prov.TraverseDescendants {
		// A descendants traversal must also seed refs that exist only as
		// input edges: an S3-only overwrite erases the superseded version's
		// records from the scan graph, yet its consumers still name it as
		// an input — and SimpleDB's native starts-with plan matches those
		// input values directly. Edge-only refs have no records, so they
		// can pass only record-free filters (RefPrefix, or none); they are
		// never reached by the traversal (children are always subjects), so
		// this only adds results.
		for src := range g.EdgeSourceSeq() {
			if !g.Has(src) && matchesFilters(g, src, q, attrs, false) {
				out = append(out, src)
			}
		}
	}
	return out
}

// matchesFilters reports whether ref passes every non-Refs filter of q;
// attrs is q.AttrFilters(), computed once per query by the caller. pinned
// relaxes record-existence for descriptors that only pin refs.
func matchesFilters(g *prov.Graph, ref prov.Ref, q prov.Query, attrs []prov.AttrFilter, pinned bool) bool {
	if q.RefPrefix != "" && !strings.HasPrefix(ref.String(), q.RefPrefix) {
		return false
	}
	if q.Tool == "" && len(attrs) == 0 {
		return true
	}
	if !g.Has(ref) && !pinned {
		return false
	}
	for _, f := range attrs {
		if !matchRecords(g.Records(ref), f.Attr, f.Value) {
			return false
		}
	}
	if q.Tool != "" {
		ok := false
		for _, in := range g.Inputs(ref) {
			if matchRecords(g.Records(in), prov.AttrName, q.Tool) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// matchRecords reports whether any record asserts attr = value — the
// multi-valued-attribute rule SimpleDB predicates follow, applied to
// decoded records.
func matchRecords(records []prov.Record, attr, value string) bool {
	for _, r := range records {
		if r.Attr == attr && r.Value.String() == value {
			return true
		}
	}
	return false
}
