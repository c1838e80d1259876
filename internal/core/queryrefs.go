package core

import (
	"slices"
	"sort"

	"passcloud/internal/prov"
)

// This file is the native refs pipeline: the paper's recursive-query plan
// (§5) — "which refs does this descriptor match", answered from indexes
// instead of a repository scan — written once against the RefsExec
// primitives and driven by five executors, the one query engine in
// production. The SimpleDB layer (sdbprov) runs it on the live domain and,
// for Explain, on its planner catalog; the shard router fans each primitive
// out as one round to its members' native plans, live and in plan space;
// graphExec (graphexec.go) runs it on materialized graphs. The reference
// evaluator (queryeval.go) stays separate on purpose: it is what the
// oracles compare this against.

// RefsExec is the substrate the pipeline runs on. Primitives return refs
// deduplicated; only SeedsOf re-enters the pipeline.
type RefsExec interface {
	// InstancesOf finds the versions whose name attribute is tool (phase
	// one of Q.2: "retrieve all objects that correspond to instances of
	// blast").
	InstancesOf(tool string) ([]prov.Ref, error)
	// MatchAttrs finds the items satisfying every filter inside the
	// backend: one pushdown expression.
	MatchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error)
	// DependentsOf finds the items listing any of refs as an input ("execute
	// a second QueryWithAttributes to retrieve all objects that have as
	// ancestor, objects in the result of the first query"), keeping those
	// under prefix whose records satisfy the riding filters.
	DependentsOf(refs []prov.Ref, prefix string, riding []prov.AttrFilter) ([]prov.Ref, error)
	// DependentsOfPrefix finds the items with an input whose ref string
	// starts with prefix — every version of an object at once.
	DependentsOfPrefix(prefix string) ([]prov.Ref, error)
	// ListRefs enumerates every item's ref, names only.
	ListRefs() ([]prov.Ref, error)
	// FetchAndMatch keeps the refs whose fetched records satisfy filters;
	// free when there are no filters.
	FetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error)
	// InputsOf fetches refs' items whole — value pointers and spilled
	// records resolved, so no input is invisible to it — and returns the
	// union of their direct inputs.
	InputsOf(refs []prov.Ref) ([]prov.Ref, error)
	// SeedsOf answers traversal q's seed descriptor (StripTraversal)
	// through the pipeline again (Q.2 inside Q.3), memoized where the
	// substrate has a memo.
	SeedsOf(q prov.Query) ([]prov.Ref, error)
}

// seedPlan classifies how a descriptor's seed set is computed natively.
type seedPlan int

const (
	// seedAll: no filters — every item.
	seedAll seedPlan = iota
	// seedTwoPhase: Tool filter — instances, then dependents, cut to any
	// pinned refs.
	seedTwoPhase
	// seedPushdown: attribute predicates in one backend expression.
	seedPushdown
	// seedListing: RefPrefix only — enumerate item names, filter client-side.
	seedListing
	// seedPinned: explicit Refs.
	seedPinned
)

// seedPlanOf picks the native seed strategy for q's filter section.
func seedPlanOf(q prov.Query) seedPlan {
	switch {
	case q.Tool != "":
		return seedTwoPhase
	case len(q.Refs) > 0:
		return seedPinned
	case q.Type != "" || len(q.Attrs) > 0:
		return seedPushdown
	case q.RefPrefix != "":
		return seedListing
	default:
		return seedAll
	}
}

// HasNativeRefs reports whether NativeRefs answers q from a backend's
// indexes. The rest a backend answers from its materialized graph: a value
// no predicate can carry (Pushable) in a pushed-down section, a tool section
// under pinned refs, and traversals from everything (one scan beats
// chunk-querying, or fetching item by item, the whole repository). A
// substrate that holds whole records runs the pipeline on every descriptor.
func HasNativeRefs(q prov.Query) bool {
	switch seedPlanOf(q) {
	case seedAll:
		return q.Direction == prov.TraverseNone
	case seedPinned, seedListing: // nothing is pushed down
		return true
	case seedTwoPhase:
		if len(q.Refs) > 0 || !Pushable(q.Tool) {
			return false
		}
	}
	for _, f := range q.AttrFilters() { // seedTwoPhase, seedPushdown
		if !Pushable(f.Value) {
			return false
		}
	}
	return true
}

// NativeRefs runs the pipeline: the seed strategy q's filter section
// selects, then — under a direction — the traversal. Refs come back in the
// substrate's order.
func NativeRefs(x RefsExec, q prov.Query) ([]prov.Ref, error) {
	if q.Direction != prov.TraverseNone {
		return traverse(x, q)
	}
	filters := q.AttrFilters()
	switch seedPlanOf(q) {
	case seedTwoPhase:
		// The paper's Q.2 plan generalized: the tool's instances by indexed
		// name lookup, then their dependents with every requested filter
		// attribute riding the same responses where the substrate can.
		instances, err := x.InstancesOf(q.Tool)
		if err != nil {
			return nil, err
		}
		deps, err := x.DependentsOf(instances, q.RefPrefix, filters)
		if len(q.Refs) > 0 {
			deps = slices.DeleteFunc(deps, func(r prov.Ref) bool { return !slices.Contains(q.Refs, r) })
		}
		return deps, err
	case seedPushdown:
		refs, err := x.MatchAttrs(filters)
		return FilterRefPrefix(refs, q.RefPrefix), err
	case seedPinned:
		pinned := FilterRefPrefix(DedupeRefs(q.Refs), q.RefPrefix)
		out, err := x.FetchAndMatch(pinned, filters)
		prov.SortRefs(out)
		return out, err
	default: // seedListing, seedAll
		refs, err := x.ListRefs()
		return FilterRefPrefix(refs, q.RefPrefix), err
	}
}

// traverse runs the traversal: seeds from the filter section, then one
// round per BFS level — dependency queries for descendants, a fetch of the
// frontier's items for ancestors ("it has to retrieve each item ... then
// lookup further ancestors") — under the reference evaluator's rules: a
// node is emitted when first reached (a seed only with IncludeSeeds) and
// expanded at most once. Prefix-only and unfiltered descendants skip seed
// materialization entirely: the whole first level is one starts-with query
// over every version at once — edge-only refs included, as the evaluator
// seeds them — which is also why a seed is never expanded when reached
// again: level one already covered it.
func traverse(x RefsExec, q prov.Query) ([]prov.Ref, error) {
	step := x.InputsOf
	if q.Direction == prov.TraverseDescendants {
		step = func(frontier []prov.Ref) ([]prov.Ref, error) { return x.DependentsOf(frontier, "", nil) }
	}

	seen := make(map[prov.Ref]bool)
	var out, frontier []prov.Ref
	var isSeed func(prov.Ref) bool
	// advance emits one level's newly reached refs and makes the ones that
	// are not seeds the next frontier.
	advance := func(reached []prov.Ref) {
		frontier = frontier[:0]
		for _, n := range reached {
			if seen[n] {
				continue
			}
			seen[n] = true
			seed := isSeed(n)
			if q.IncludeSeeds || !seed {
				out = append(out, n)
			}
			if !seed {
				frontier = append(frontier, n)
			}
		}
	}

	level := 0
	if sp := seedPlanOf(q); q.Direction == prov.TraverseDescendants && (sp == seedListing || sp == seedAll) {
		level1, err := x.DependentsOfPrefix(q.RefPrefix)
		if err != nil {
			return nil, err
		}
		isSeed = func(r prov.Ref) bool { return r.HasPrefix(q.RefPrefix) }
		advance(level1)
		level = 1
	} else {
		seeds, err := x.SeedsOf(q)
		if err != nil {
			return nil, err
		}
		seedSet := make(map[prov.Ref]bool, len(seeds))
		for _, s := range seeds {
			seedSet[s] = true
		}
		isSeed = func(r prov.Ref) bool { return seedSet[r] }
		frontier = seeds
	}

	for ; len(frontier) > 0 && (q.Depth == 0 || level < q.Depth); level++ {
		next, err := step(frontier)
		if err != nil {
			return nil, err
		}
		advance(next)
	}
	return out, nil
}

// StripTraversal reduces q to its seed descriptor.
func StripTraversal(q prov.Query) prov.Query {
	q.Direction, q.Depth, q.IncludeSeeds = prov.TraverseNone, 0, false
	q.Projection = prov.ProjectRefs
	q.Limit, q.Cursor = 0, ""
	return q
}

// MatchAll reports whether records satisfy every filter: for each, some
// record asserts its attribute with its value — SimpleDB's rule for
// multi-valued attributes, applied to decoded records.
func MatchAll(records []prov.Record, filters []prov.AttrFilter) bool {
next:
	for _, f := range filters {
		for i := range records {
			if records[i].Attr == f.Attr && records[i].Value.String() == f.Value {
				continue next
			}
		}
		return false
	}
	return true
}

// FilterRefPrefix keeps, in place, the refs whose canonical string form
// starts with prefix; an empty prefix keeps everything.
func FilterRefPrefix(refs []prov.Ref, prefix string) []prov.Ref {
	return slices.DeleteFunc(refs, func(r prov.Ref) bool { return !r.HasPrefix(prefix) })
}

// DedupeRefs returns a fresh slice of refs with duplicates removed, order
// preserved.
func DedupeRefs(refs []prov.Ref) []prov.Ref {
	seen := make(map[prov.Ref]bool, len(refs))
	out := make([]prov.Ref, 0, len(refs))
	for _, r := range refs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// SortEntries orders entries canonically by ref — the stable total order
// pagination slices.
func SortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Ref.Object != entries[j].Ref.Object {
			return entries[i].Ref.Object < entries[j].Ref.Object
		}
		return entries[i].Ref.Version < entries[j].Ref.Version
	})
}
