package sdbprov

import (
	"context"
	"iter"
	"strings"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/qcache"
	"passcloud/internal/prov"
)

// This file runs one prov.Query descriptor on the SimpleDB domain. Which
// refs a descriptor matches — seed strategy, then the per-level traversal —
// is core.NativeRefs's to decide; this file is the live executor of its
// primitives, each the cheapest 2009 SimpleDB call for the job:
//
//   - InstancesOf + DependentsOf (indexed-two-phase): the paper's Q.2 shape —
//     one Query for the tool's instances, then chunked QueryWithAttributes
//     for their dependents, every attribute filter riding the same response;
//   - MatchAttrs (indexed-pushdown): attribute predicates compiled into one
//     bracket expression joined with `intersection`, evaluated entirely
//     inside SimpleDB — non-matching items' provenance is never fetched;
//   - DependentsOfPrefix (indexed-prefix): descendants of "every version
//     with this ref prefix" as a single starts-with query;
//   - InputsOf (indexed-walk): one GetAttributes per item of an ancestor
//     level, inputs read from the decoded records, so the walk costs the
//     lineage it visits and not the domain it lives in;
//   - ListRefs (item-listing): refs-only enumeration from Select itemName().
//
// What has no native plan (core.HasNativeRefs) takes the Q.1 repository pass
// (or the warm snapshot) and the same pipeline on its graph, core.RunOnGraph.
//
// Items the query path fetches — the walk's frontiers, pinned refs under
// filters, full-projection output — go through one per-query view
// (qcache.Items): the resident snapshot when warm, else the query's own
// fetches and the per-generation item memo every query shares its fetches
// into, so no query fetches an item twice and a repeated query on an
// unchanged domain fetches none. Only queries read it:
// verified reads, Provenance lookups, audits and scans fetch what is stored.
//
// Pushdown honesty: predicates compare against the *stored* encoding
// (core.EscapeLiteral), because that is what SimpleDB indexed; the reference
// evaluator compares decoded records. Property tests drive randomized
// descriptors through both and any disagreement is a bug here. Values too
// large to live inline (pointer-encoded, > 1 KB) cannot be matched by the
// index at all, so such filters fall back to the graph plan. Records
// spilled past the 256-attribute item limit are invisible to the index —
// the architecture's documented blind spot; scan-backed plans and the
// ancestor walk, which decode whole items, see them.
//
// Results are memoized by the descriptor's canonical key (prov.Query.Key)
// in the layer's generation-stamped cache, and paginated descriptors pin
// their evaluation to the snapshot generation of the first page
// (core.RunPaged), so page sequences stay consistent across concurrent
// writes.

// Query implements core.Querier. Entries stream in backend order; a
// paginated descriptor (Limit/Cursor) returns one ref-sorted page whose
// last entry carries the resume cursor.
func (l *Layer) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return core.Query(ctx, q, l, &l.pins, l.runQuery)
}

// StampToken implements core.Stamped: the repository generation this
// layer's cursors bind to, also read by composing stores (the shard
// router) that mint composite stamps.
func (l *Layer) StampToken() string { return l.writes.Stamp().Token() }

// strategy is how one non-paginated descriptor is answered. runQuery and
// explainInto both switch on strategyOf, so the plan always describes the
// path the run takes.
type strategy int

const (
	// onGraph: no native plan (core.HasNativeRefs) — the repository graph, one
	// Q.1 pass or the warm snapshot, under the refs pipeline.
	onGraph strategy = iota
	// byScan: Q.1 itself, that pass and nothing else.
	byScan
	// byRefs: the refs pipeline, then a fetch of the matched items if asked.
	byRefs
)

func strategyOf(q prov.Query) strategy {
	switch {
	case !core.HasNativeRefs(q):
		return onGraph
	case q.IsQ1():
		return byScan
	default:
		return byRefs
	}
}

// runQuery executes one non-paginated descriptor.
func (l *Layer) runQuery(ctx context.Context, q prov.Query, yield func(core.Entry, error) bool) {
	strategy := strategyOf(q)
	if strategy == byScan && !l.cache.Enabled() {
		// The live one-query-per-item scan, streamed: nothing would keep the
		// graph.
		l.scanSeq(ctx)(yield)
		return
	}
	if strategy != byRefs {
		core.RunOnGraph(ctx, q, l, yield)
		return
	}
	items := l.cache.Items()
	defer items.Share()
	refs, err := l.refsFor(ctx, q, items)
	if err != nil {
		yield(core.Entry{}, err)
		return
	}
	if q.Projection == prov.ProjectRefs {
		for _, r := range refs {
			if !yield(core.Entry{Ref: r}, nil) {
				return
			}
		}
		return
	}
	// Full projection: fetch the matched items only — never the rest of the
	// repository (the pushdown dividend) — and none the query already read. A
	// vanished item yields its ref with no records.
	for _, r := range refs {
		records, err := l.queryItem(ctx, items, r)
		if err != nil {
			yield(core.Entry{}, err)
			return
		}
		if !yield(core.Entry{Ref: r, Records: records}, nil) {
			return
		}
	}
}

// refsFor computes q's matched references on the live domain, memoized
// under the descriptor's canonical key for the current write generation.
// items is the running query's item view, shared by every phase.
func (l *Layer) refsFor(ctx context.Context, q prov.Query, items *qcache.Items) ([]prov.Ref, error) {
	refs, err := l.cache.Refs(ctx, refsMemoKey(q), func(ctx context.Context) ([]prov.Ref, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return core.NativeRefs(liveExec{l: l, ctx: ctx, items: items}, q)
	})
	return qcache.CopyRefs(refs), err
}

// queryItem returns ref's records for the query path: from the view when it
// knows the item, else by one fetch, which the view keeps. An item that is
// not visible reads as no records.
func (l *Layer) queryItem(ctx context.Context, items *qcache.Items, ref prov.Ref) ([]prov.Record, error) {
	if records, ok := items.Get(ref); ok {
		return records, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	records, _, _, err := l.FetchItem(ctx, ref)
	if err != nil {
		return nil, err
	}
	items.Put(ref, records)
	return records, nil
}

// refsMemoKey is the cache key of a descriptor's reference set.
func refsMemoKey(q prov.Query) string { return "qv2\x00" + q.RefsKey() }

// --- expression builders -----------------------------------------------------

// instancesExpr matches items whose name attribute is tool. The index holds
// stored (escaped) forms, so the literal is escaped exactly like the write
// path escaped it — a tool name needing escape would otherwise never match.
func instancesExpr(tool string) string {
	return "['" + escapeQuery(prov.AttrName) + "' = " + sdb.QuoteString(core.EscapeLiteral(tool)) + "]"
}

// pushdownExpr compiles attribute equality filters into one expression:
// per-attribute predicates joined with `intersection`, values in stored
// form.
func pushdownExpr(filters []prov.AttrFilter) string {
	var b strings.Builder
	for i, f := range filters {
		if i > 0 {
			b.WriteString(" intersection ")
		}
		b.WriteString("['" + escapeQuery(f.Attr) + "' = " + sdb.QuoteString(core.EscapeLiteral(f.Value)) + "]")
	}
	return b.String()
}

// startsWithExpr matches items listing any input with the given ref-string
// prefix — every version of an object at once when the prefix is "obj:".
func startsWithExpr(prefix string) string {
	return "['" + escapeQuery(prov.AttrInput) + "' starts-with " + sdb.QuoteString(prefix) + "]"
}

// --- live executor -----------------------------------------------------------

// liveExec runs the refs pipeline (core.NativeRefs) against the SimpleDB
// domain; items is the running query's item view. catalogExec (explain.go)
// answers the same primitives from the planner catalog and accounts what
// these calls meter: Query runs this one, Explain and PlanQueryRefs that
// one, so a plan cannot drift from the run it predicts.
type liveExec struct {
	l     *Layer
	ctx   context.Context
	items *qcache.Items
}

// queryConcurrency bounds the in-flight calls per BFS level: chunk queries
// for descendants, item fetches for ancestors.
const queryConcurrency = 4

func (x liveExec) InstancesOf(tool string) ([]prov.Ref, error) {
	return x.l.queryRefs(x.ctx, instancesExpr(tool))
}

func (x liveExec) MatchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error) {
	return x.l.queryRefs(x.ctx, pushdownExpr(filters))
}

func (x liveExec) DependentsOfPrefix(prefix string) ([]prov.Ref, error) {
	return x.l.queryRefs(x.ctx, startsWithExpr(prefix))
}

// ListRefs reads Select itemName() — names only, no attribute fetch.
func (x liveExec) ListRefs() ([]prov.Ref, error) {
	var out []prov.Ref
	for ref, err := range x.l.Subjects(x.ctx, ItemNames) {
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
	}
	return out, nil
}

func (x liveExec) SeedsOf(q prov.Query) ([]prov.Ref, error) {
	return x.l.refsFor(x.ctx, core.StripTraversal(q), x.items)
}

func (x liveExec) FetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error) {
	if len(filters) == 0 {
		return refs, nil
	}
	var out []prov.Ref
	for _, r := range refs {
		records, err := x.l.queryItem(x.ctx, x.items, r)
		if err != nil {
			return nil, err
		}
		if core.MatchAll(records, filters) {
			out = append(out, r)
		}
	}
	return out, nil
}

// InputsOf reads the frontier's items through the query's view and fetches
// the ones it does not know — one GetAttributes each — concurrently, under
// the queryConcurrency bound.
func (x liveExec) InputsOf(refs []prov.Ref) ([]prov.Ref, error) {
	records := make([][]prov.Record, len(refs))
	var missing []int
	for i, r := range refs {
		var ok bool
		if records[i], ok = x.items.Get(r); !ok {
			missing = append(missing, i)
		}
	}
	err := core.RunLimited(x.ctx, len(missing), queryConcurrency, func(k int) error {
		i := missing[k]
		var err error
		records[i], _, _, err = x.l.FetchItem(x.ctx, refs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, i := range missing {
		x.items.Put(refs[i], records[i])
	}
	var inputs []prov.Ref
	for _, rs := range records {
		inputs = prov.AppendInputs(inputs, rs)
	}
	return core.DedupeRefs(inputs), nil
}

// DependentsOf chunks the OR expression. Riding attributes come back in the
// same query response — the aggregation that removes the
// one-GetAttributes-per-dependent N+1 from Q.2. Chunks run concurrently
// under the queryConcurrency bound; results merge in chunk order,
// deduplicated, so the output is identical to the sequential scan's.
func (x liveExec) DependentsOf(refs []prov.Ref, prefix string, riding []prov.AttrFilter) ([]prov.Ref, error) {
	chunk := x.l.queryChunk
	nchunks := (len(refs) + chunk - 1) / chunk

	results := make([][]prov.Ref, nchunks)
	err := core.RunLimited(x.ctx, nchunks, queryConcurrency, func(ci int) error {
		expr := inputChunkExpr(refs[ci*chunk : min((ci+1)*chunk, len(refs))])
		var err error
		if len(riding) > 0 {
			results[ci], err = x.l.queryRefsMatching(x.ctx, expr, riding)
		} else {
			results[ci], err = x.l.queryRefs(x.ctx, expr)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []prov.Ref
	for _, part := range results {
		out = append(out, part...)
	}
	return core.FilterRefPrefix(core.DedupeRefs(out), prefix), nil
}

// queryRefs runs one Query expression to completion, parsing item names.
func (l *Layer) queryRefs(ctx context.Context, expr string) ([]prov.Ref, error) {
	var out []prov.Ref
	token := ""
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := l.cfg.Cloud.SDB.Query(l.cfg.Domain, expr, 0, token)
		if err != nil {
			return nil, err
		}
		for _, item := range res.ItemNames {
			if ref, err := prov.ParseItemName(item); err == nil {
				out = append(out, ref)
			}
		}
		if res.NextToken == "" {
			return out, nil
		}
		token = res.NextToken
	}
}

// queryRefsMatching runs one QueryWithAttributes expression to completion
// and keeps the items whose riding attributes, decoded from the same
// response — no follow-up GetAttributes per item — satisfy filters.
func (l *Layer) queryRefsMatching(ctx context.Context, expr string, filters []prov.AttrFilter) ([]prov.Ref, error) {
	attrNames := make([]string, len(filters))
	for i, f := range filters {
		attrNames[i] = f.Attr
	}
	var out []prov.Ref
	token := ""
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := l.cfg.Cloud.SDB.QueryWithAttributes(l.cfg.Domain, expr, attrNames, 0, token)
		if err != nil {
			return nil, err
		}
		for _, item := range res.Items {
			ref, err := prov.ParseItemName(item.Name)
			if err != nil {
				continue
			}
			// The response carries the riding attributes only.
			riding, err := l.decodeRecords(ctx, ref, item.Attrs, "")
			if err != nil {
				return nil, err
			}
			if core.MatchAll(riding, filters) {
				out = append(out, ref)
			}
		}
		if res.NextToken == "" {
			return out, nil
		}
		token = res.NextToken
	}
}

// inputChunkExpr renders one chunk's OR expression over input values.
func inputChunkExpr(refs []prov.Ref) string {
	var b strings.Builder
	b.WriteString("[")
	for i, r := range refs {
		if i > 0 {
			b.WriteString(" or ")
		}
		b.WriteString("'" + escapeQuery(prov.AttrInput) + "' = " + sdb.QuoteString(r.String()))
	}
	b.WriteString("]")
	return b.String()
}

// escapeQuery escapes single quotes inside a bracket-language attribute
// name, which is written between single quotes ('attr'): the 2009 query
// grammar escapes a quote by doubling it, exactly like string literals.
// Attribute names today come from our own fixed vocabulary, but provenance
// attributes are user-extensible in PASS — a quote must not be able to
// terminate the name early and smuggle operators into the expression.
func escapeQuery(s string) string { return strings.ReplaceAll(s, "'", "''") }

var _ core.Querier = (*Layer)(nil)
