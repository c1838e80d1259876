// The router's two executors of the refs pipeline (core.NativeRefs) on the
// members' native plans: each primitive becomes one round, a prov.Query
// descriptor answered on every shard. mhRun runs the rounds live (fanOut), so
// Q.2/Q.3-class lineage keeps SimpleDB's indexed pricing instead of paying a
// per-shard Q.1 scan; mhPlan walks the same rounds in plan space (per-shard
// Explain for the cost, core.RefPlanner for the answer), which keeps
// Router.Explain's composed estimate equal to the metered run. What members
// cannot plan natively runs on the member graphs (core.GraphEntries), which
// each evaluation asks every member for: the router keeps none of them.
package shard

import (
	"context"
	"fmt"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// fanner is what the two executors differ in: how a round reaches the
// shards, and where an ancestor level's edges are read from.
type fanner interface {
	// fanRefs fans one round descriptor out to every shard and returns the
	// merged reference set, deduplicated and ref-sorted; full-projection
	// rounds also retain (run) or cost (plan) the fetched records.
	fanRefs(q prov.Query, note string) ([]prov.Ref, error)
	// inputsOf returns the union of the direct inputs of frontier, whose
	// records a full-projection round has just fetched.
	inputsOf(frontier []prov.Ref) []prov.Ref
}

// rounds adapts a fanner to core.RefsExec: every primitive is the round
// descriptor whose native plan on a member is that primitive. fetched
// records the refs a full-projection round already asked every shard for,
// so a walk that fetched its frontiers does not fetch them again for output.
type rounds struct {
	fanner
	fetched map[prov.Ref]bool
}

// dependentsRound asks for the items listing a seed among their inputs:
// one level down, seeds that are themselves dependents included.
func dependentsRound(seeds prov.Query) prov.Query {
	seeds.Direction, seeds.Depth, seeds.IncludeSeeds = prov.TraverseDescendants, 1, true
	seeds.Projection = prov.ProjectRefs
	return seeds
}

func (x rounds) InstancesOf(tool string) ([]prov.Ref, error) {
	return x.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: tool}})
}

func (x rounds) MatchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error) {
	return x.fanRefs(prov.Query{Attrs: filters, Projection: prov.ProjectRefs}, "predicate pushdown on every shard")
}

// DependentsOf is one dependents-of-refs round. The round language is
// prov.Query, which cannot carry riding filters, so the candidates — cut to
// prefix first — take a filter round of their own: one GetAttributes per
// candidate and shard, the N+1 the members' own engine avoids (ROADMAP, the
// router item's (d)).
func (x rounds) DependentsOf(refs []prov.Ref, prefix string, riding []prov.AttrFilter) ([]prov.Ref, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	deps, err := x.fanRefs(dependentsRound(prov.Query{Refs: refs}), "dependents-of-refs fan-out")
	if err != nil {
		return nil, err
	}
	return x.FetchAndMatch(core.FilterRefPrefix(deps, prefix), riding)
}

func (x rounds) DependentsOfPrefix(prefix string) ([]prov.Ref, error) {
	return x.fanRefs(dependentsRound(prov.Query{RefPrefix: prefix}), "starts-with covers every matching version's children at once")
}

func (x rounds) ListRefs() ([]prov.Ref, error) {
	return x.fanRefs(prov.Query{Projection: prov.ProjectRefs}, "item names on every shard")
}

func (x rounds) FetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error) {
	if len(filters) == 0 || len(refs) == 0 {
		return refs, nil
	}
	return x.fanRefs(prov.Query{Refs: refs, Attrs: filters, Projection: prov.ProjectRefs},
		"apply attribute filters on the refs' home shards")
}

// InputsOf is the inputs-of-refs round: fetch the frontier's records from
// every shard, then read their edges.
func (x rounds) InputsOf(frontier []prov.Ref) ([]prov.Ref, error) {
	if err := x.fetch(frontier, "inputs-of-refs: fetch the frontier's records"); err != nil {
		return nil, err
	}
	return x.inputsOf(frontier), nil
}

func (x rounds) SeedsOf(q prov.Query) ([]prov.Ref, error) {
	return core.NativeRefs(x, core.StripTraversal(q))
}

// fetch is one full-projection round over refs. Every ref is probed on
// every shard, so re-fetching a ghost later would find nothing new.
func (x rounds) fetch(refs []prov.Ref, note string) error {
	_, err := x.fanRefs(prov.Query{Refs: refs, Projection: prov.ProjectFull}, note)
	for _, ref := range refs {
		x.fetched[ref] = true
	}
	return err
}

// refsFor answers q through the pipeline in canonical ref order, topping up
// under ProjectFull the records of refs no earlier round fetched.
func (x rounds) refsFor(q prov.Query) ([]prov.Ref, error) {
	refs, err := core.NativeRefs(x, q)
	if err != nil {
		return nil, err
	}
	prov.SortRefs(refs)
	if q.Projection != prov.ProjectFull {
		return refs, nil
	}
	missing := make([]prov.Ref, 0, len(refs))
	for _, ref := range refs {
		if !x.fetched[ref] {
			missing = append(missing, ref)
		}
	}
	if len(missing) == 0 {
		return refs, nil
	}
	return refs, x.fetch(missing, "fetch matched records")
}

// --- live executor -----------------------------------------------------------

// mhRun fans rounds out to the shards' native plans. Records fetched by
// full-projection rounds accumulate in g (the traversal's record source for
// ancestor expansion and full-projection output); seen is the per-round
// merge scratch, reused across levels.
type mhRun struct {
	r    *Router
	ctx  context.Context
	g    *prov.Graph
	seen map[prov.Ref]bool
	// mig is the migration window sampled once at run start, so every
	// round of one traversal filters the same double-read copies.
	mig *migration
}

func (x *mhRun) fanRefs(q prov.Query, _ string) ([]prov.Ref, error) {
	perShard, err := x.r.fanOut(x.ctx, x.mig, q)
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
			if q.Projection == prov.ProjectFull {
				x.g.AddSubject(e.Ref, e.Records)
			}
			if !x.seen[e.Ref] {
				x.seen[e.Ref] = true
				out = append(out, e.Ref)
			}
		}
	}
	prov.SortRefs(out)
	return out, nil
}

func (x *mhRun) inputsOf(frontier []prov.Ref) []prov.Ref {
	var parents []prov.Ref
	for _, f := range frontier {
		parents = prov.AppendInputs(parents, x.g.Records(f))
	}
	parents = core.DedupeRefs(parents)
	prov.SortRefs(parents)
	return parents
}

// runRounds materializes one evaluation of the pipeline, every round
// answered by the members' native plans: the result refs in canonical order,
// with records from the rounds' fetches under ProjectFull.
func (r *Router) runRounds(ctx context.Context, q prov.Query) ([]core.Entry, error) {
	x := &mhRun{r: r, ctx: ctx, g: prov.NewGraph(), seen: make(map[prov.Ref]bool), mig: r.migSnapshot()}
	refs, err := rounds{x, make(map[prov.Ref]bool)}.refsFor(q)
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
// answer with core.RefPlanner. allPlanned turns false if any shard cannot
// predict a round's refs (defensive — strategyFor requires every member to
// be a RefPlanner); the plan then stops claiming exactness.
type mhPlan struct {
	r          *Router
	p          *core.QueryPlan
	round      int
	cached     bool
	allPlanned bool
}

func (x *mhPlan) fanRefs(q prov.Query, note string) ([]prov.Ref, error) {
	x.round++
	x.p.AddStep("-", "round", 0, fmt.Sprintf("round %d: %s", x.round, note))
	x.cached = foldPlans(x.p, x.r.memberPlans(q)) && x.cached
	return x.planRefs(q), nil
}

// inputsOf predicts the next frontier from the virtual inputs-of-refs
// descriptor every RefPlanner supports — no extra round, the fetch before
// it already paid for the records.
func (x *mhPlan) inputsOf(frontier []prov.Ref) []prov.Ref {
	return x.planRefs(prov.Query{
		Refs:         frontier,
		Direction:    prov.TraverseAncestors,
		Depth:        1,
		IncludeSeeds: true,
		Projection:   prov.ProjectRefs,
	})
}

// planRefs merges the members' predicted answers to q the way the live
// fan-out merges entries: deduplicated, ref-sorted.
func (x *mhPlan) planRefs(q prov.Query) []prov.Ref {
	var out []prov.Ref
	for _, s := range x.r.shards {
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
		out = append(out, refs...)
	}
	out = core.DedupeRefs(out)
	prov.SortRefs(out)
	return out
}

// explainMultihop composes the rounds the live traversal will run into p.
func (r *Router) explainMultihop(p *core.QueryPlan, q prov.Query) {
	x := &mhPlan{r: r, p: p, cached: true, allPlanned: true}
	if _, err := (rounds{x, make(map[prov.Ref]bool)}).refsFor(q); err != nil {
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
