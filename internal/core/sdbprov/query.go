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

// This file is the layer's composable query engine: one prov.Query
// descriptor in, the cheapest 2009 SimpleDB plan out. The planner picks
// between:
//
//   - indexed-two-phase: the paper's Q.2 shape — one Query for the tool's
//     instances, then chunked QueryWithAttributes for their dependents,
//     with every client-side attribute filter riding the same response;
//   - indexed-pushdown: attribute predicates compiled into one bracket
//     expression joined with `intersection`, evaluated entirely inside
//     SimpleDB — non-matching items' provenance is never fetched;
//   - indexed-prefix: descendants of "every version with this ref prefix"
//     as a single starts-with query (the Dependents idiom);
//   - indexed-walk: ancestors by frontier — "it has to retrieve each item
//     ... then lookup further ancestors" (§5): one GetAttributes per item of
//     each BFS level, inputs read from the decoded records, so the walk costs
//     the lineage it visits and not the domain it lives in;
//   - item-listing: refs-only enumeration from Select itemName();
//   - scan / graph-walk: the Q.1 repository pass (or the warm snapshot),
//     with the shared in-memory evaluator (core.EvalQuery) as the fallback
//     for descriptors SimpleDB cannot push down (unpushable filter values)
//     and for traversals seeded on everything.
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
// (core.EscapeLiteral), because that is what SimpleDB indexed; the shared
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

// seedPlan classifies how a descriptor's seed set is computed natively.
type seedPlan int

const (
	// seedAll: no filters — every item.
	seedAll seedPlan = iota
	// seedTwoPhase: Tool filter — instances, then dependents.
	seedTwoPhase
	// seedPushdown: attribute predicates in one backend expression.
	seedPushdown
	// seedListing: RefPrefix only — enumerate item names, filter client-side.
	seedListing
	// seedPinned: explicit Refs.
	seedPinned
	// seedGraph: no native plan; materialize the graph and evaluate there.
	seedGraph
)

// seedPlanOf picks the native seed strategy for q's filter section.
func (l *Layer) seedPlanOf(q prov.Query) seedPlan {
	filters := q.AttrFilters()
	switch {
	case q.Tool != "":
		if len(q.Refs) > 0 || !core.Pushable(q.Tool) {
			return seedGraph
		}
		for _, f := range filters {
			if !core.Pushable(f.Value) {
				return seedGraph
			}
		}
		return seedTwoPhase
	case len(q.Refs) > 0:
		return seedPinned
	case len(filters) > 0:
		for _, f := range filters {
			if !core.Pushable(f.Value) {
				return seedGraph
			}
		}
		return seedPushdown
	case q.RefPrefix != "":
		return seedListing
	default:
		return seedAll
	}
}

// graphFallback reports whether q is answered from the materialized graph:
// unpushable filters, and traversals from everything (one scan beats
// chunk-querying, or fetching item by item, the whole repository).
func (l *Layer) graphFallback(q prov.Query) bool {
	sp := l.seedPlanOf(q)
	return sp == seedGraph || (q.Direction != prov.TraverseNone && sp == seedAll)
}

// Query implements core.Querier. Entries stream in backend order; a
// paginated descriptor (Limit/Cursor) returns one ref-sorted page whose
// last entry carries the resume cursor.
func (l *Layer) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return core.Query(ctx, q, l, &l.pins, l.runQuery)
}

// StampToken implements core.Stamped: the repository generation this
// layer's cursors bind to, also read by composing stores (the shard
// router) that mint composite stamps.
func (l *Layer) StampToken() string { return l.stamp().Token() }

// runQuery executes one non-paginated descriptor.
func (l *Layer) runQuery(ctx context.Context, q prov.Query, yield func(core.Entry, error) bool) {
	switch {
	case l.graphFallback(q):
		g, err := l.ProvenanceGraph(ctx)
		if err != nil {
			yield(core.Entry{}, err)
			return
		}
		for _, e := range core.EvalQuery(g, q) {
			if !yield(e, nil) {
				return
			}
		}
	case l.seedPlanOf(q) == seedAll && q.Direction == prov.TraverseNone && q.Projection == prov.ProjectFull:
		// Q.1: the live one-query-per-item scan when uncached, else the
		// (built-if-needed) snapshot — zero cloud ops when warm.
		if !l.cache.Enabled() {
			l.scanSeq(ctx)(yield)
			return
		}
		g, err := l.ProvenanceGraph(ctx)
		if err != nil {
			yield(core.Entry{}, err)
			return
		}
		for _, subject := range g.Subjects() {
			if !yield(core.Entry{Ref: subject, Records: g.Records(subject)}, nil) {
				return
			}
		}
	default:
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
		// Full projection: fetch the matched items only — never the rest
		// of the repository (the pushdown dividend) — and none the query
		// already read. A vanished item yields its ref with no records.
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
}

// refsFor computes q's matched references on the live domain, memoized
// under the descriptor's canonical key for the current write generation.
// items is the running query's item view, shared by every phase.
func (l *Layer) refsFor(ctx context.Context, q prov.Query, items *qcache.Items) ([]prov.Ref, error) {
	refs, err := l.cache.Refs(ctx, refsMemoKey(q), func(ctx context.Context) ([]prov.Ref, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return l.nativeRefs(liveExec{l: l, ctx: ctx, items: items}, q)
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

// refsExec is the substrate the native refs pipeline runs on. The pipeline
// (nativeRefs) is written once against these primitives and driven by two
// executors: liveExec issues the SimpleDB calls, catalogExec (explain.go)
// answers from the planner catalog and accounts the steps the live calls
// would meter. Query runs the first, Explain and PlanQueryRefs the second,
// so a plan cannot drift from the run it predicts.
type refsExec interface {
	// instancesOf finds the item versions whose name attribute is tool
	// (phase one of Q.2: "retrieve all objects that correspond to
	// instances of blast").
	instancesOf(tool string) ([]prov.Ref, error)
	// matchAttrs finds the items satisfying every filter inside the
	// backend: one pushdown expression joined with `intersection`.
	matchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error)
	// dependentsOf finds the items listing any of refs as an input, the
	// OR expression chunked, results deduplicated in chunk order. Riding
	// filters' attributes travel in the same responses and items failing
	// them are dropped. note labels the step in a plan.
	dependentsOf(refs []prov.Ref, riding []prov.AttrFilter, note string) ([]prov.Ref, error)
	// dependentsOfPrefix finds the items with an input whose ref string
	// starts with prefix — every version of an object at once.
	dependentsOfPrefix(prefix string) ([]prov.Ref, error)
	// listRefs enumerates every item's ref, names only.
	listRefs() ([]prov.Ref, error)
	// fetchAndMatch keeps the refs whose fetched records satisfy filters:
	// one GetAttributes per ref, free when there are no filters.
	fetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error)
	// inputsOf fetches refs' items — one GetAttributes each, value pointers
	// and the spill object resolved, so no input is invisible to it — and
	// returns the union of their direct inputs, deduplicated in order.
	inputsOf(refs []prov.Ref) ([]prov.Ref, error)
	// seedsOf answers traversal q's seed descriptor through the pipeline
	// again, memoized per generation (Q.2 inside Q.3).
	seedsOf(q prov.Query) ([]prov.Ref, error)
}

// nativeRefs is the native refs pipeline: the seed strategy seedPlanOf
// picks, then — under a direction — the traversal.
func (l *Layer) nativeRefs(x refsExec, q prov.Query) ([]prov.Ref, error) {
	if q.Direction != prov.TraverseNone {
		return l.traverse(x, q)
	}
	filters := q.AttrFilters()
	switch l.seedPlanOf(q) {
	case seedTwoPhase:
		// The paper's Q.2 plan generalized: the tool's instances by indexed
		// name lookup, then their dependents with every requested filter
		// attribute riding the same chunked responses — no per-dependent
		// follow-up calls.
		instances, err := x.instancesOf(q.Tool)
		if err != nil {
			return nil, err
		}
		deps, err := x.dependentsOf(instances, filters, "phase 2: dependents, filter attributes riding along")
		return core.FilterRefPrefix(deps, q.RefPrefix), err
	case seedPushdown:
		refs, err := x.matchAttrs(filters)
		return core.FilterRefPrefix(refs, q.RefPrefix), err
	case seedPinned:
		pinned := core.FilterRefPrefix(core.DedupeRefs(q.Refs), q.RefPrefix)
		out, err := x.fetchAndMatch(pinned, filters)
		prov.SortRefs(out)
		return out, err
	default: // seedListing, seedAll
		refs, err := x.listRefs()
		return core.FilterRefPrefix(refs, q.RefPrefix), err
	}
}

// traverse runs the traversal: seeds from the filter section, then one
// round per BFS level — chunked dependency queries for descendants, a fetch
// of the frontier's items for ancestors ("it has to retrieve each item ...
// then lookup further ancestors") — under core.EvalQuery's rules: a node is
// emitted when first reached (a seed only with IncludeSeeds) and expanded at
// most once. Prefix-only descendants skip seed materialization entirely —
// the whole first level is one starts-with query over every version at once.
func (l *Layer) traverse(x refsExec, q prov.Query) ([]prov.Ref, error) {
	step := x.inputsOf
	if q.Direction == prov.TraverseDescendants {
		step = func(frontier []prov.Ref) ([]prov.Ref, error) {
			return x.dependentsOf(frontier, nil, "BFS level: chunked dependency queries")
		}
	}

	found := make(map[prov.Ref]bool)
	expanded := make(map[prov.Ref]bool)
	var out, frontier []prov.Ref
	var isSeed func(prov.Ref) bool
	// advance emits one level's newly reached refs and makes the
	// not-yet-expanded ones the next frontier.
	advance := func(reached []prov.Ref) {
		frontier = frontier[:0]
		for _, n := range reached {
			if !found[n] && (q.IncludeSeeds || !isSeed(n)) {
				found[n] = true
				out = append(out, n)
			}
			if !expanded[n] {
				expanded[n] = true
				frontier = append(frontier, n)
			}
		}
	}

	level := 0
	if q.Direction == prov.TraverseDescendants && l.seedPlanOf(stripTraversal(q)) == seedListing {
		level1, err := x.dependentsOfPrefix(q.RefPrefix)
		if err != nil {
			return nil, err
		}
		isSeed = func(r prov.Ref) bool { return strings.HasPrefix(r.String(), q.RefPrefix) }
		advance(level1)
		level = 1
	} else {
		seeds, err := x.seedsOf(q)
		if err != nil {
			return nil, err
		}
		seedSet := make(map[prov.Ref]bool, len(seeds))
		for _, s := range seeds {
			seedSet[s] = true
			expanded[s] = true
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

// stripTraversal reduces q to its seed descriptor.
func stripTraversal(q prov.Query) prov.Query {
	q.Direction, q.Depth, q.IncludeSeeds = prov.TraverseNone, 0, false
	q.Projection = prov.ProjectRefs
	q.Limit, q.Cursor = 0, ""
	return q
}

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

// liveExec runs the refs pipeline against the SimpleDB domain; items is the
// running query's item view.
type liveExec struct {
	l     *Layer
	ctx   context.Context
	items *qcache.Items
}

// queryConcurrency bounds the in-flight calls per BFS level: chunk queries
// for descendants, item fetches for ancestors.
const queryConcurrency = 4

func (x liveExec) instancesOf(tool string) ([]prov.Ref, error) {
	return x.l.queryRefs(x.ctx, instancesExpr(tool))
}

func (x liveExec) matchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error) {
	return x.l.queryRefs(x.ctx, pushdownExpr(filters))
}

func (x liveExec) dependentsOfPrefix(prefix string) ([]prov.Ref, error) {
	return x.l.queryRefs(x.ctx, startsWithExpr(prefix))
}

// listRefs reads Select itemName() — names only, no attribute fetch.
func (x liveExec) listRefs() ([]prov.Ref, error) {
	var out []prov.Ref
	for ref, err := range x.l.Subjects(x.ctx, ItemNames) {
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
	}
	return out, nil
}

func (x liveExec) seedsOf(q prov.Query) ([]prov.Ref, error) {
	return x.l.refsFor(x.ctx, stripTraversal(q), x.items)
}

func (x liveExec) fetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error) {
	if len(filters) == 0 {
		return refs, nil
	}
	var out []prov.Ref
	for _, r := range refs {
		records, err := x.l.queryItem(x.ctx, x.items, r)
		if err != nil {
			return nil, err
		}
		if matchesAll(records, filters) {
			out = append(out, r)
		}
	}
	return out, nil
}

// inputsOf reads the frontier's items through the query's view and fetches
// the ones it does not know concurrently, under the queryConcurrency bound.
func (x liveExec) inputsOf(refs []prov.Ref) ([]prov.Ref, error) {
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
		for _, rec := range rs {
			if rec.Attr == prov.AttrInput && rec.Value.Kind == prov.KindRef {
				inputs = append(inputs, rec.Value.Ref)
			}
		}
	}
	return core.DedupeRefs(inputs), nil
}

// matchesAll reports whether records satisfy every filter (the
// multi-valued-attribute rule: some value of the attribute matches).
func matchesAll(records []prov.Record, filters []prov.AttrFilter) bool {
	for _, f := range filters {
		if !core.MatchRecords(records, f.Attr, f.Value) {
			return false
		}
	}
	return true
}

// dependentsOf chunks the OR expression ("execute a second
// QueryWithAttributes to retrieve all objects that have as ancestor,
// objects in the result of the first query"). Riding attributes come back
// in the same query response — the aggregation that removes the
// one-GetAttributes-per-dependent N+1 from Q.2. Chunks run concurrently
// under the queryConcurrency bound; results merge in chunk order,
// deduplicated, so the output is identical to the sequential scan's.
func (x liveExec) dependentsOf(refs []prov.Ref, riding []prov.AttrFilter, _ string) ([]prov.Ref, error) {
	chunk := x.l.cfg.QueryChunk
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
	seen := make(map[prov.Ref]bool)
	for _, part := range results {
		for _, ref := range part {
			if !seen[ref] {
				seen[ref] = true
				out = append(out, ref)
			}
		}
	}
	return out, nil
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
			if matchesAll(riding, filters) {
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
