// Distributed multi-hop query planning: the router's indexed alternative
// to materializing the union graph. Seeds resolve on their home shards
// via the members' native plans (tool instances, predicate pushdown,
// pinned fetches, starts-with listings); each subsequent BFS level fans a
// dependents-of-refs (or, for ancestor walks, an inputs-of-refs fetch)
// descriptor out to every shard and merges the frontiers. Every round is
// a natively planned shard descriptor, so Q.2/Q.3-class lineage keeps
// SimpleDB's indexed pricing instead of paying a per-shard Q.1 scan.
//
// The traversal is written once, against the mhRunner interface, and
// driven by two executors: mhRun fans the rounds out live, mhPlan walks
// the identical rounds in plan space (per-shard Explain for the cost,
// core.RefPlanner for the next frontier). Sharing the driver is what
// keeps Router.Explain's composed estimate equal to the metered run.
package shard

import (
	"context"
	"fmt"
	"strings"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// multihopEligible reports whether every round of q's traversal has a
// native indexed plan on the members, i.e. whether the distributed
// multi-hop path answers q without any shard falling back to a scan. The
// shapes left out keep the (cached) union graph: seed sections that need
// the whole repository anyway (unfiltered multi-hop descendants of
// everything, ancestor walks without pinned or tool seeds) and filter
// values past the pushdown bound without pinned refs to fetch instead.
func multihopEligible(q prov.Query) bool {
	filters := q.AttrFilters()
	if q.Tool != "" {
		// Tool seeds resolve in two indexed rounds (instances, then their
		// dependents); the member layers themselves would fall back to a
		// graph walk for a pinned or unpushable tool section, and so does
		// the router.
		if len(q.Refs) > 0 || !core.Pushable(q.Tool) {
			return false
		}
		for _, f := range filters {
			if !core.Pushable(f.Value) {
				return false
			}
		}
		return true
	}
	switch q.Direction {
	case prov.TraverseDescendants:
		if len(q.Refs) > 0 {
			// Pinned seeds: filters (any value size) apply via per-ref
			// fetches on the candidates' home shards.
			return true
		}
		if len(filters) > 0 {
			for _, f := range filters {
				if !core.Pushable(f.Value) {
					return false
				}
			}
			return true
		}
		// Record-free prefix seeds: one starts-with round covers level 1.
		// Seeding on everything means touching every subject anyway — the
		// union graph is the cheaper whole-repository representation.
		return q.RefPrefix != ""
	case prov.TraverseAncestors:
		return len(q.Refs) > 0
	default:
		// TraverseNone without a Tool is always distributable and never
		// reaches the multi-hop planner.
		return false
	}
}

// mhRunner is one multi-hop execution substrate. fanRefs fans a round
// descriptor to every shard and returns the merged reference set,
// deduplicated and ref-sorted; full-projection rounds also retain (run)
// or cost (plan) the fetched records. expandAncestors fetches the
// frontier's records from every shard and returns the union of their
// direct inputs. fetchFull tops up records for refs no earlier round
// fetched.
type mhRunner interface {
	fanRefs(q prov.Query, note string) ([]prov.Ref, error)
	expandAncestors(frontier []prov.Ref) ([]prov.Ref, error)
	fetchFull(refs []prov.Ref) error
}

// multihop drives the distributed traversal for q on x and returns the
// result references in canonical ref order. The rounds — and therefore
// the cost — are identical for both executors; only where the answers
// come from differs (the shards vs. their plan catalogs).
//
// The traversal mirrors core.EvalQuery exactly: seeds are never emitted
// at level zero, a node is emitted when first reached (seeds only when
// IncludeSeeds), and a node expands at most once.
func (r *Router) multihop(x mhRunner, q prov.Query) ([]prov.Ref, error) {
	filters := q.AttrFilters()

	var (
		seeds   []prov.Ref
		isSeed  func(prov.Ref) bool
		level   int
		found   = make(map[prov.Ref]bool)
		visited = make(map[prov.Ref]bool)
		out     []prov.Ref
	)

	emit := func(n prov.Ref) {
		if !found[n] && (q.IncludeSeeds || !isSeed(n)) {
			found[n] = true
			out = append(out, n)
		}
	}

	switch {
	case q.Tool != "":
		// Round 1: instances of the tool, on their home shards.
		instances, err := x.fanRefs(prov.Query{
			Attrs:      []prov.AttrFilter{{Attr: prov.AttrName, Value: q.Tool}},
			Projection: prov.ProjectRefs,
		}, "tool instances on their home shards")
		if err != nil {
			return nil, err
		}
		// Round 2: subjects that list any instance among their inputs.
		var cands []prov.Ref
		if len(instances) > 0 {
			cands, err = x.fanRefs(prov.Query{
				Refs:         instances,
				Direction:    prov.TraverseDescendants,
				Depth:        1,
				IncludeSeeds: true,
				Projection:   prov.ProjectRefs,
			}, "dependents of the instances")
			if err != nil {
				return nil, err
			}
		}
		cands = core.FilterRefPrefix(cands, q.RefPrefix)
		// Round 3 (only under attribute filters): fetch the candidates on
		// their home shards and keep the ones whose records match.
		if len(filters) > 0 && len(cands) > 0 {
			cands, err = x.fanRefs(prov.Query{
				Refs:       cands,
				Attrs:      filters,
				Projection: prov.ProjectRefs,
			}, "apply attribute filters on the candidates' home shards")
			if err != nil {
				return nil, err
			}
		}
		seeds = cands

	case len(q.Refs) > 0:
		seeds = core.DedupeRefs(q.Refs)
		seeds = core.FilterRefPrefix(seeds, q.RefPrefix)
		if len(filters) > 0 && len(seeds) > 0 {
			var err error
			seeds, err = x.fanRefs(prov.Query{
				Refs:       seeds,
				Attrs:      filters,
				Projection: prov.ProjectRefs,
			}, "apply attribute filters on the pinned refs' home shards")
			if err != nil {
				return nil, err
			}
		}

	case len(filters) > 0:
		var err error
		seeds, err = x.fanRefs(prov.Query{
			Attrs:      filters,
			RefPrefix:  q.RefPrefix,
			Projection: prov.ProjectRefs,
		}, "predicate pushdown on every shard")
		if err != nil {
			return nil, err
		}

	default:
		// Record-free prefix seeds, descendants only (eligibility): one
		// starts-with round covers every matching version's children at
		// once, exactly like the members' native listing plan. The seed
		// set itself stays implicit — the prefix predicate decides both
		// seed-ness and (with the visited set) expansion.
		prefix := q.RefPrefix
		isSeed = func(n prov.Ref) bool { return strings.HasPrefix(n.String(), prefix) }
		level1, err := x.fanRefs(prov.Query{
			RefPrefix:    prefix,
			Direction:    prov.TraverseDescendants,
			Depth:        1,
			IncludeSeeds: true,
			Projection:   prov.ProjectRefs,
		}, "starts-with covers every matching version's children at once")
		if err != nil {
			return nil, err
		}
		frontier := make([]prov.Ref, 0, len(level1))
		for _, n := range level1 {
			emit(n)
			if !visited[n] && !isSeed(n) {
				visited[n] = true
				frontier = append(frontier, n)
			}
		}
		return r.multihopWalk(x, q, frontier, isSeed, visited, found, out, 1)
	}

	seedSet := make(map[prov.Ref]bool, len(seeds))
	for _, s := range seeds {
		seedSet[s] = true
		visited[s] = true
	}
	isSeed = func(n prov.Ref) bool { return seedSet[n] }

	if q.Direction == prov.TraverseNone {
		// Tool filter without traversal: the seeds are the answer.
		prov.SortRefs(seeds)
		if q.Projection == prov.ProjectFull {
			if err := x.fetchFull(seeds); err != nil {
				return nil, err
			}
		}
		return seeds, nil
	}
	return r.multihopWalk(x, q, seeds, isSeed, visited, found, out, level)
}

// multihopWalk runs the per-level BFS: each level is one fan-out round
// (dependents-of-refs for descendants, an inputs-of-refs fetch for
// ancestors) whose merged result feeds core.EvalQuery's emit/expand
// rules. The frontier buffer is reused across levels.
func (r *Router) multihopWalk(x mhRunner, q prov.Query, frontier []prov.Ref,
	isSeed func(prov.Ref) bool, visited, found map[prov.Ref]bool, out []prov.Ref, level int) ([]prov.Ref, error) {
	for ; len(frontier) > 0 && (q.Depth == 0 || level < q.Depth); level++ {
		var next []prov.Ref
		var err error
		if q.Direction == prov.TraverseDescendants {
			next, err = x.fanRefs(prov.Query{
				Refs:         frontier,
				Direction:    prov.TraverseDescendants,
				Depth:        1,
				IncludeSeeds: true,
				Projection:   prov.ProjectRefs,
			}, fmt.Sprintf("level %d: dependents-of-refs fan-out", level+1))
		} else {
			next, err = x.expandAncestors(frontier)
		}
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, n := range next {
			emitOK := !found[n] && (q.IncludeSeeds || !isSeed(n))
			if emitOK {
				found[n] = true
				out = append(out, n)
			}
			if !visited[n] && !isSeed(n) {
				visited[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	prov.SortRefs(out)
	if q.Projection == prov.ProjectFull {
		if err := x.fetchFull(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- live executor -----------------------------------------------------------

// mhRun fans rounds out to the shards. Records fetched by full-projection
// rounds accumulate in g (the traversal's record source for ancestor
// expansion and full-projection output); seen is the per-round merge
// scratch, reused across levels.
type mhRun struct {
	r       *Router
	ctx     context.Context
	g       *prov.Graph
	fetched map[prov.Ref]bool
	seen    map[prov.Ref]bool
	// mig is the migration window sampled once at run start, so every
	// round of one traversal filters the same double-read copies.
	mig *migration
}

func (r *Router) newMHRun(ctx context.Context) *mhRun {
	return &mhRun{
		r: r, ctx: ctx,
		g:       prov.NewGraph(),
		fetched: make(map[prov.Ref]bool),
		seen:    make(map[prov.Ref]bool),
		mig:     r.migSnapshot(),
	}
}

func (x *mhRun) fanRefs(q prov.Query, _ string) ([]prov.Ref, error) {
	r := x.r
	perShard := make([][]core.Entry, len(r.shards))
	err := core.RunLimited(x.ctx, len(r.shards), len(r.shards), func(i int) error {
		entries, err := core.CollectMerged(r.shards[i].Query(x.ctx, q))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		perShard[i] = x.mig.filterEntries(i, entries)
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, entries := range perShard {
		total += len(entries)
	}
	clear(x.seen)
	out := make([]prov.Ref, 0, total)
	for _, entries := range perShard {
		for _, e := range entries {
			if q.Projection == prov.ProjectFull && len(e.Records) > 0 {
				x.g.AddAll(e.Records)
			}
			if !x.seen[e.Ref] {
				x.seen[e.Ref] = true
				out = append(out, e.Ref)
			}
		}
	}
	if q.Projection == prov.ProjectFull {
		// Every requested ref was probed on every shard; re-fetching a
		// ghost would find nothing new.
		for _, ref := range q.Refs {
			x.fetched[ref] = true
		}
	}
	prov.SortRefs(out)
	return out, nil
}

func (x *mhRun) expandAncestors(frontier []prov.Ref) ([]prov.Ref, error) {
	if _, err := x.fanRefs(prov.Query{Refs: frontier, Projection: prov.ProjectFull},
		"inputs-of-refs: fetch the frontier's records"); err != nil {
		return nil, err
	}
	clear(x.seen)
	var parents []prov.Ref
	for _, f := range frontier {
		for _, p := range x.g.Inputs(f) {
			if !x.seen[p] {
				x.seen[p] = true
				parents = append(parents, p)
			}
		}
	}
	prov.SortRefs(parents)
	return parents, nil
}

func (x *mhRun) fetchFull(refs []prov.Ref) error {
	missing := make([]prov.Ref, 0, len(refs))
	for _, ref := range refs {
		if !x.fetched[ref] {
			missing = append(missing, ref)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	_, err := x.fanRefs(prov.Query{Refs: missing, Projection: prov.ProjectFull},
		"fetch matched records")
	return err
}

// runMultihop materializes one distributed multi-hop evaluation: the
// result refs in canonical order, with records from the rounds' fetches
// under ProjectFull.
func (r *Router) runMultihop(ctx context.Context, q prov.Query) ([]core.Entry, error) {
	x := r.newMHRun(ctx)
	refs, err := r.multihop(x, q)
	if err != nil {
		return nil, err
	}
	entries := make([]core.Entry, len(refs))
	for i, ref := range refs {
		entries[i] = core.Entry{Ref: ref}
		if q.Projection == prov.ProjectFull {
			entries[i].Records = x.g.Records(ref)
		}
	}
	return entries, nil
}

// --- plan-space executor -----------------------------------------------------

// mhPlan walks the same rounds in plan space: each round folds the
// per-shard Explains into the composite plan and predicts the merged
// frontier with core.RefPlanner. allPlanned turns false if any shard
// cannot predict a round's refs (defensive — eligibility requires every
// member to be a RefPlanner); the plan then stops claiming exactness.
type mhPlan struct {
	r          *Router
	p          *core.QueryPlan
	fetched    map[prov.Ref]bool
	round      int
	cached     bool
	allPlanned bool
}

func (r *Router) newMHPlan(p *core.QueryPlan) *mhPlan {
	return &mhPlan{r: r, p: p, fetched: make(map[prov.Ref]bool), cached: true, allPlanned: true}
}

func (x *mhPlan) fanRefs(q prov.Query, note string) ([]prov.Ref, error) {
	r := x.r
	x.round++
	x.p.AddStep("-", "round", 0, fmt.Sprintf("round %d: %s", x.round, note))
	plans := make([]core.QueryPlan, len(r.shards))
	for i, s := range r.shards {
		plans[i] = s.Explain(q)
	}
	x.cached = foldPlans(x.p, plans) && x.cached

	seen := make(map[prov.Ref]bool)
	var out []prov.Ref
	for _, s := range r.shards {
		rp, ok := s.(core.RefPlanner)
		if !ok {
			x.allPlanned = false
			continue
		}
		refs, ok := rp.PlanQueryRefs(q)
		if !ok {
			x.allPlanned = false
			continue
		}
		for _, ref := range refs {
			if !seen[ref] {
				seen[ref] = true
				out = append(out, ref)
			}
		}
	}
	if q.Projection == prov.ProjectFull {
		for _, ref := range q.Refs {
			x.fetched[ref] = true
		}
	}
	prov.SortRefs(out)
	return out, nil
}

func (x *mhPlan) expandAncestors(frontier []prov.Ref) ([]prov.Ref, error) {
	if _, err := x.fanRefs(prov.Query{Refs: frontier, Projection: prov.ProjectFull},
		"inputs-of-refs: fetch the frontier's records"); err != nil {
		return nil, err
	}
	// The next frontier comes from the virtual inputs-of-refs descriptor
	// every RefPlanner supports — no extra round, the fetch above already
	// paid for the records.
	seen := make(map[prov.Ref]bool)
	var parents []prov.Ref
	for _, s := range x.r.shards {
		rp, ok := s.(core.RefPlanner)
		if !ok {
			x.allPlanned = false
			continue
		}
		refs, ok := rp.PlanQueryRefs(prov.Query{
			Refs:         frontier,
			Direction:    prov.TraverseAncestors,
			Depth:        1,
			IncludeSeeds: true,
			Projection:   prov.ProjectRefs,
		})
		if !ok {
			x.allPlanned = false
			continue
		}
		for _, ref := range refs {
			if !seen[ref] {
				seen[ref] = true
				parents = append(parents, ref)
			}
		}
	}
	prov.SortRefs(parents)
	return parents, nil
}

func (x *mhPlan) fetchFull(refs []prov.Ref) error {
	missing := make([]prov.Ref, 0, len(refs))
	for _, ref := range refs {
		if !x.fetched[ref] {
			missing = append(missing, ref)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	_, err := x.fanRefs(prov.Query{Refs: missing, Projection: prov.ProjectFull},
		"fetch matched records")
	return err
}

// explainMultihop composes the rounds the live traversal will run into p.
func (r *Router) explainMultihop(p *core.QueryPlan, q prov.Query) {
	x := r.newMHPlan(p)
	if _, err := r.multihop(x, q); err != nil {
		// The plan-space executor never errors; keep the composite honest
		// if that ever changes.
		p.Exact = false
		return
	}
	if !x.allPlanned {
		p.Exact = false
	}
	p.Cached = x.cached && p.EstOps == 0
}
