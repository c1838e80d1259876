package prov

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file defines the composable query descriptor that replaced the
// fixed-verb query surface (AllProvenance / OutputsOf / DescendantsOfOutputs
// / Ancestors / Dependents). The paper's evaluation hardcodes three query
// classes; real provenance consumers ask arbitrary parameterized questions —
// by tool, by attribute, by lineage direction — so the descriptor carries
// filters, a traversal, a projection, and pagination, and every backend
// compiles it into its own cheapest plan.
//
// One descriptor answers all of the paper's queries:
//
//	Q.1  all provenance            Query{}
//	Q.2  outputs of blast          Query{Tool: "blast", Type: TypeFile, Projection: ProjectRefs}
//	Q.3  descendants of Q.2        Q.2 + Direction: TraverseDescendants
//	     ancestors of one version  Query{Refs: []Ref{r}, Direction: TraverseAncestors, Projection: ProjectRefs}
//	     dependents of an object   Query{RefPrefix: obj + ":", Direction: TraverseDescendants, Depth: 1, IncludeSeeds: true, Projection: ProjectRefs}

// Direction selects an ancestry traversal from the filtered seed set.
type Direction uint8

// Traversal directions.
const (
	// TraverseNone returns the seed set itself.
	TraverseNone Direction = iota
	// TraverseAncestors follows input edges away from the seeds.
	TraverseAncestors
	// TraverseDescendants follows derived-object edges away from the seeds.
	TraverseDescendants
)

// String names the direction for plans and canonical keys.
func (d Direction) String() string {
	switch d {
	case TraverseNone:
		return "none"
	case TraverseAncestors:
		return "ancestors"
	case TraverseDescendants:
		return "descendants"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Projection selects how much of each matched entry is returned.
type Projection uint8

// Projections.
const (
	// ProjectFull returns each result with its provenance records.
	ProjectFull Projection = iota
	// ProjectRefs returns references only — no record fetch, which on
	// indexed backends avoids touching non-matching items entirely.
	ProjectRefs
)

// String names the projection for plans and canonical keys.
func (p Projection) String() string {
	if p == ProjectRefs {
		return "refs"
	}
	return "full"
}

// AttrFilter is one attribute equality predicate: the subject has some
// record attr = value. Attributes are multi-valued; any value may satisfy
// the predicate.
type AttrFilter struct {
	Attr  string
	Value string
}

// Query is the composable provenance query descriptor. All filters AND
// together to select the seed set; an empty filter section selects every
// subject in the repository. A traversal, when present, replaces the result
// set with the closure reached from the seeds.
type Query struct {
	// Tool selects subjects that are outputs of the named tool: they list
	// an instance of the tool (a subject carrying name = Tool) among their
	// inputs. This is the paper's Q.2 phrasing ("all the files that were
	// outputs of blast").
	Tool string
	// Type selects subjects carrying a record type = Type (TypeFile,
	// TypeProcess, TypePipe).
	Type string
	// Attrs selects subjects carrying, for every listed filter, some
	// record attr = value.
	Attrs []AttrFilter
	// RefPrefix selects subjects whose canonical "object:version" form has
	// the given prefix. "obj:" selects every version of obj (the
	// dependents idiom); "/data/" selects everything under /data/.
	RefPrefix string
	// Refs, when non-empty, pins the seed set to exactly these versions
	// (intersected with the other filters if any are set).
	Refs []Ref

	// Direction optionally traverses the ancestry graph from the seeds.
	Direction Direction
	// Depth bounds the traversal to that many edges from the seeds;
	// 0 means unlimited.
	Depth int
	// IncludeSeeds keeps traversal results that are themselves seeds.
	// The default (false) excludes the seed set from the closure — the
	// Q.3 shape, where the outputs themselves are not their own
	// descendants. Dependents-style queries set it so that later versions
	// of the queried object still count as dependents.
	IncludeSeeds bool

	// Projection selects refs-only or full-record results.
	Projection Projection

	// Limit, when positive, paginates: at most Limit entries are returned
	// and the last entry of a truncated page carries an opaque Cursor.
	Limit int
	// Cursor resumes a paginated query. Cursors are pinned to the
	// snapshot generation the first page was evaluated at, so pagination
	// stays consistent across concurrent writes.
	Cursor string
}

// HasFilters reports whether any seed filter is set.
func (q Query) HasFilters() bool {
	return q.Tool != "" || q.Type != "" || len(q.Attrs) > 0 || q.RefPrefix != "" || len(q.Refs) > 0
}

// IsQ1 reports whether q is the paper's Q.1: no filter, no traversal, records.
func (q Query) IsQ1() bool {
	return !q.HasFilters() && q.Direction == TraverseNone && q.Projection == ProjectFull
}

// AttrFilters returns the effective attribute predicates: Attrs plus the
// Type shorthand, deduplicated and sorted for deterministic plans.
func (q Query) AttrFilters() []AttrFilter {
	out := make([]AttrFilter, 0, len(q.Attrs)+1)
	if q.Type != "" {
		out = append(out, AttrFilter{Attr: AttrType, Value: q.Type})
	}
	out = append(out, q.Attrs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Value < out[j].Value
	})
	dedup := out[:0]
	for i, f := range out {
		if i == 0 || f != out[i-1] {
			dedup = append(dedup, f)
		}
	}
	return dedup
}

// Validate rejects descriptors no backend can answer.
func (q Query) Validate() error {
	if q.Depth < 0 {
		return fmt.Errorf("prov: negative query depth %d", q.Depth)
	}
	if q.Limit < 0 {
		return fmt.Errorf("prov: negative query limit %d", q.Limit)
	}
	if q.Depth > 0 && q.Direction == TraverseNone {
		return fmt.Errorf("prov: query depth without a traversal direction")
	}
	if q.IncludeSeeds && q.Direction == TraverseNone {
		return fmt.Errorf("prov: IncludeSeeds without a traversal direction")
	}
	if q.Cursor != "" && q.Direction == TraverseNone && !q.HasFilters() && q.Limit == 0 {
		return fmt.Errorf("prov: cursor without a limit on an unbounded query")
	}
	return nil
}

// Key is the canonical serialization of the logical query — everything
// except pagination state (Limit, Cursor). Two descriptors asking the same
// question serialize identically, so caches memoize results under it and
// cursors bind to it.
func (q Query) Key() string {
	var b strings.Builder
	b.WriteString("q2")
	field := func(tag, v string) {
		if v == "" {
			return
		}
		b.WriteString("|")
		b.WriteString(tag)
		b.WriteString("=")
		b.WriteString(strconv.Quote(v))
	}
	field("tool", q.Tool)
	for _, f := range q.AttrFilters() {
		b.WriteString("|attr=")
		b.WriteString(strconv.Quote(f.Attr))
		b.WriteString(":")
		b.WriteString(strconv.Quote(f.Value))
	}
	field("prefix", q.RefPrefix)
	if len(q.Refs) > 0 {
		refs := append([]Ref(nil), q.Refs...)
		sortRefs(refs)
		b.WriteString("|refs=")
		for i, r := range refs {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(strconv.Quote(r.String()))
		}
	}
	if q.Direction != TraverseNone {
		field("dir", q.Direction.String())
		if q.Depth > 0 {
			field("depth", strconv.Itoa(q.Depth))
		}
		if q.IncludeSeeds {
			field("seeds", "keep")
		}
	}
	field("proj", q.Projection.String())
	return b.String()
}

// RefsKey is the canonical key of the query's reference set — the Key with
// the projection normalized to refs-only. Backends compute the matched refs
// once and memoize them under this key regardless of projection.
func (q Query) RefsKey() string {
	q.Projection = ProjectRefs
	return q.Key()
}

// --- the paper's query classes -----------------------------------------------
//
// The evaluation's fixed queries as descriptors; each backend's native plan
// for them reproduces the paper's cloud ops, so Table 3 is unchanged.

// Q1 compiles the paper's Q.1: the provenance of every object version.
func Q1() Query { return Query{Projection: ProjectFull} }

// QOutputsOf compiles the paper's Q.2: file versions written by instances
// of the named tool.
func QOutputsOf(tool string) Query {
	return Query{Tool: tool, Type: TypeFile, Projection: ProjectRefs}
}

// QDescendantsOfOutputs compiles the paper's Q.3: everything transitively
// derived from the named tool's outputs.
func QDescendantsOfOutputs(tool string) Query {
	return Query{Tool: tool, Type: TypeFile, Direction: TraverseDescendants, Projection: ProjectRefs}
}

// QAncestors compiles a full-ancestry walk from one object version.
func QAncestors(ref Ref) Query {
	return Query{Refs: []Ref{ref}, Direction: TraverseAncestors, Projection: ProjectRefs}
}

// QDependents compiles the deletion-guard query: every subject listing any
// version of object among its inputs. IncludeSeeds keeps later versions of
// the object itself, which depend on earlier ones.
func QDependents(object ObjectID) Query {
	return Query{
		RefPrefix:    string(object) + ":",
		Direction:    TraverseDescendants,
		Depth:        1,
		IncludeSeeds: true,
		Projection:   ProjectRefs,
	}
}
