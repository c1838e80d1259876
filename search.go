package passcloud

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// This file is the public composable query surface (Query API v2): one
// QuerySpec descriptor answers every lineage question the fixed verbs
// answered — and every parameterized variation of them — with filters
// pushed into the storage backend, results paginated behind snapshot-pinned
// cursors, and a cost planner (Explain) that predicts the cloud bill of a
// query before it runs.

// TraversalDirection selects an ancestry traversal from the filtered seeds.
type TraversalDirection int

// Traversal directions.
const (
	// TraverseNone returns the matched set itself.
	TraverseNone TraversalDirection = iota
	// TraverseAncestors walks input edges away from the matches.
	TraverseAncestors
	// TraverseDescendants walks derived-object edges away from the matches.
	TraverseDescendants
)

// QuerySpec is a composable provenance query. All filters AND together;
// the zero spec selects the whole repository (the paper's Q.1).
type QuerySpec struct {
	// Tool selects outputs of the named tool: versions listing an
	// instance of it (a subject named Tool) among their inputs (Q.2).
	Tool string
	// Type selects versions of the given object type: "file", "process"
	// or "pipe".
	Type string
	// Attrs selects versions carrying attr = value for every listed pair.
	Attrs map[string]string
	// RefPrefix selects versions whose "object:version" form has the
	// prefix ("/data/x:" is every version of /data/x; "/data/" is
	// everything under /data/).
	RefPrefix string
	// Refs pins the seed set to exactly these versions.
	Refs []Ref

	// Direction optionally traverses the ancestry graph from the matches.
	Direction TraversalDirection
	// Depth bounds the traversal (0 = unlimited).
	Depth int
	// IncludeSeeds keeps traversal results that also matched the filters
	// themselves (Q.3 excludes them by default).
	IncludeSeeds bool

	// RefsOnly skips record retrieval: results carry references only,
	// which on indexed backends avoids fetching any non-matching object's
	// provenance.
	RefsOnly bool

	// Limit paginates: at most Limit entries per page, with an opaque
	// resume cursor. Paginated results are ref-sorted and pinned to the
	// snapshot generation of the first page, so a page sequence is
	// consistent even across concurrent writes.
	Limit int
	// Cursor resumes a previous page sequence.
	Cursor string
}

// compile lowers the public spec to the internal descriptor.
func (s QuerySpec) compile() prov.Query {
	q := prov.Query{
		Tool:         s.Tool,
		Type:         s.Type,
		RefPrefix:    s.RefPrefix,
		Direction:    prov.Direction(s.Direction),
		Depth:        s.Depth,
		IncludeSeeds: s.IncludeSeeds,
		Limit:        s.Limit,
		Cursor:       s.Cursor,
	}
	if s.RefsOnly {
		q.Projection = prov.ProjectRefs
	}
	for _, r := range s.Refs {
		q.Refs = append(q.Refs, toInternalRef(r))
	}
	// Canonicalize the map: the descriptor's key must not depend on
	// iteration order.
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q.Attrs = append(q.Attrs, prov.AttrFilter{Attr: k, Value: s.Attrs[k]})
	}
	return q
}

// SearchResult is one page (or the whole result) of a Search.
type SearchResult struct {
	// Entries are the matches, with records unless RefsOnly was set.
	Entries []ProvenanceEntry
	// Cursor resumes the next page; empty when the results are complete.
	Cursor string
}

// Cursor errors, re-exported for errors.Is.
var (
	// ErrBadCursor: the cursor is malformed or belongs to a different
	// query.
	ErrBadCursor = core.ErrBadCursor
	// ErrCursorExpired: the cursor's pinned snapshot is gone and the
	// repository has changed; restart the page sequence.
	ErrCursorExpired = core.ErrCursorExpired
)

// Search runs one composable query and materializes the result (one page
// of it when Limit is set).
func (c *Client) Search(ctx context.Context, spec QuerySpec) (*SearchResult, error) {
	res := &SearchResult{}
	for entry, err := range c.b.Store.Query(ctx, spec.compile()) {
		if err != nil {
			return nil, err
		}
		res.Entries = append(res.Entries, ProvenanceEntry{
			Ref:     toPublicRef(entry.Ref),
			Records: toPublicRecords(entry.Records),
		})
		if entry.Cursor != "" {
			res.Cursor = entry.Cursor
		}
	}
	return res, nil
}

// SearchSeq streams one composable query. A non-nil error ends the
// sequence (its entry is zero); breaking early is allowed and releases the
// underlying scan. For paginated specs, prefer Search — the resume cursor
// is surfaced on SearchResult.
func (c *Client) SearchSeq(ctx context.Context, spec QuerySpec) iter.Seq2[ProvenanceEntry, error] {
	return func(yield func(ProvenanceEntry, error) bool) {
		for entry, err := range c.b.Store.Query(ctx, spec.compile()) {
			if err != nil {
				yield(ProvenanceEntry{}, err)
				return
			}
			pub := ProvenanceEntry{Ref: toPublicRef(entry.Ref), Records: toPublicRecords(entry.Records)}
			if !yield(pub, nil) {
				return
			}
		}
	}
}

// PlanStep is one predicted operation class of a query plan.
type PlanStep struct {
	// Service is "S3", "SimpleDB", or "-" for client-side work.
	Service string
	// Op is the operation name.
	Op string
	// Count is the predicted number of calls.
	Count int64
	// Note explains the step.
	Note string
}

// QueryPlan predicts how the selected architecture executes a spec and
// what it costs — the paper's Table 3 cost model generalized to arbitrary
// queries.
type QueryPlan struct {
	// Arch is the architecture name.
	Arch string
	// Strategy names the plan shape ("scan", "indexed-two-phase", ...).
	Strategy string
	// Pushdown lists predicate expressions evaluated inside the backend.
	Pushdown []string
	// Steps is the per-operation breakdown.
	Steps []PlanStep
	// EstOps is the predicted total cloud operations.
	EstOps int64
	// Cached means a warm snapshot or memo answers at zero cloud ops.
	Cached bool
	// Exact means the prediction derives from complete client-side
	// statistics (single-writer repository); shared-region writes by
	// other clients degrade it to an estimate.
	Exact bool
}

// String renders the compact multi-line form.
func (p QueryPlan) String() string { return p.internal().String() }

func (p QueryPlan) internal() core.QueryPlan {
	out := core.QueryPlan{
		Arch:     p.Arch,
		Strategy: p.Strategy,
		Pushdown: p.Pushdown,
		EstOps:   p.EstOps,
		Cached:   p.Cached,
		Exact:    p.Exact,
	}
	for _, s := range p.Steps {
		out.Steps = append(out.Steps, core.PlanStep(s))
	}
	return out
}

// Explain predicts the cloud cost of Search(spec) without running it.
func (c *Client) Explain(spec QuerySpec) (QueryPlan, error) {
	desc := spec.compile()
	if err := desc.Validate(); err != nil {
		return QueryPlan{}, fmt.Errorf("passcloud: %w", err)
	}
	p := c.b.Store.Explain(desc)
	pub := QueryPlan{
		Arch:     p.Arch,
		Strategy: p.Strategy,
		Pushdown: p.Pushdown,
		EstOps:   p.EstOps,
		Cached:   p.Cached,
		Exact:    p.Exact,
	}
	for _, s := range p.Steps {
		pub.Steps = append(pub.Steps, PlanStep(s))
	}
	return pub, nil
}
