// The router's two executors of the refs pipeline (core.NativeRefs) on the
// members' native plans: each primitive becomes one round of prov.Query
// descriptors answered by the members. mhRun runs the rounds live, so
// Q.2/Q.3-class lineage keeps SimpleDB's indexed pricing instead of paying a
// per-shard Q.1 scan; mhPlan walks the same rounds in plan space (per-shard
// Explain for the cost, core.RefPlanner for the answer), which keeps
// Router.Explain's composed estimate equal to the metered run.
//
// Rounds that search — dependents, predicates, listings — go to every shard,
// because what they find can live on any of them. Rounds that name their refs
// — the frontier fetch and the filter round — go only to the shards that can
// hold each ref: its home shard (ShardFor), and the shard this traversal has
// learned it on, either because a round returned it from there or because a
// record read there names it over an input edge (a transient subject rides
// its carrier file's batch, and the file names it). A subject's records live
// on one shard, so that answers almost every ref at once; the refs no asked
// shard held take one more round on the remaining shards, as
// Router.Provenance does. What members cannot plan natively runs on the
// member graphs (core.GraphEntries), which each evaluation asks every member
// for: the router keeps none of them.
package shard

import (
	"context"
	"fmt"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// fanner is what the two executors differ in: how a round reaches the
// shards, and how fetched records are read.
type fanner interface {
	// fanRefs sends one round descriptor to every shard and returns each
	// shard's refs, less the migration window's non-authoritative copies.
	fanRefs(q prov.Query, note string) ([][]prov.Ref, error)
	// probe is one fetch round: the records of ask[i] on shard i, for every
	// shard with refs to ask. It returns each shard's refs whose records came
	// back (the records too, when it runs live).
	probe(ask [][]prov.Ref, note string) ([][]core.Entry, error)
	// named returns the refs that shard i's found records name over input
	// edges.
	named(i int, found []core.Entry) []prov.Ref
	// inputsOf returns the union of the direct inputs of fetched refs.
	inputsOf(refs []prov.Ref) []prov.Ref
	// match keeps the fetched refs whose records satisfy filters.
	match(refs []prov.Ref, filters []prov.AttrFilter) []prov.Ref
}

// rounds adapts a fanner to core.RefsExec — every primitive is the round
// whose native plan on a member is that primitive — and routes the rounds
// that name their refs. The executors share it, so a plan routes exactly as
// the run does. held maps each ref a fetch found to its records (live; nil
// in plan space); fetched holds every ref a fetch has asked for, found or
// not, so nothing is fetched twice — a found ref needs no place — and at is
// the shard the traversal first learned each unfetched ref on.
type rounds struct {
	fanner
	r *Router
	// mig is the migration window sampled once at run start, so every round
	// of one traversal filters the same double-read copies.
	mig     *migration
	held    map[prov.Ref][]prov.Record
	fetched map[prov.Ref]bool
	at      map[prov.Ref]int
	seen    map[prov.Ref]bool // per-round merge scratch
}

func newRounds(r *Router, mig *migration) *rounds {
	return &rounds{
		r:       r,
		mig:     mig,
		held:    make(map[prov.Ref][]prov.Record),
		fetched: make(map[prov.Ref]bool),
		at:      make(map[prov.Ref]int),
		seen:    make(map[prov.Ref]bool),
	}
}

// learn records that shard i returned ref as one of its items or holds a
// record naming it; the first shard learned stays.
func (x *rounds) learn(ref prov.Ref, i int) {
	if _, ok := x.at[ref]; !ok {
		x.at[ref] = i
	}
}

// broadcast is one round on every shard: the merged answer, deduplicated and
// ref-sorted. Every ref a shard returns is one of its own items, except the
// pinned seeds every shard echoes back.
func (x *rounds) broadcast(q prov.Query, note string) ([]prov.Ref, error) {
	perShard, err := x.fanRefs(q, note)
	if err != nil {
		return nil, err
	}
	var seeds map[prov.Ref]bool
	if len(q.Refs) > 0 {
		seeds = make(map[prov.Ref]bool, len(q.Refs))
		for _, ref := range q.Refs {
			seeds[ref] = true
		}
	}
	clear(x.seen)
	var out []prov.Ref
	for i, refs := range perShard {
		for _, ref := range refs {
			if !seeds[ref] {
				x.learn(ref, i)
			}
			if !x.seen[ref] {
				x.seen[ref] = true
				out = append(out, ref)
			}
		}
	}
	prov.SortRefs(out)
	return out, nil
}

// likely is the shards a ref's first fetch round asks: its home shard and
// the shard the traversal learned it on, -1 for none. A migration window's
// non-authoritative copy is never asked; the active ring places a file
// version on the authoritative side, so only a moved transient can need the
// second round for it.
func (x *rounds) likely(ref prov.Ref) [2]int {
	out := [2]int{-1, -1}
	if home := x.r.ShardFor(ref.Object); !x.mig.excluded(home, ref.Object) {
		out[0] = home
	}
	if i, ok := x.at[ref]; ok && i != out[0] && !x.mig.excluded(i, ref.Object) {
		out[1] = i
	}
	return out
}

// fetch reads the records of the refs no fetch has asked for yet: one round
// to each ref's likely shards, then — for the refs none of them held — one
// round to the remaining shards. A ref no shard holds is fetched with no
// records, and no later round asks for it again.
func (x *rounds) fetch(refs []prov.Ref, note string) error {
	var todo []prov.Ref
	for _, ref := range refs {
		if !x.fetched[ref] {
			x.fetched[ref] = true
			todo = append(todo, ref)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	n := len(x.r.shards)
	ask := make([][]prov.Ref, n)
	tried := make([][2]int, len(todo))
	for k, ref := range todo {
		tried[k] = x.likely(ref)
		for _, i := range tried[k] {
			if i >= 0 {
				ask[i] = append(ask[i], ref)
			}
		}
	}
	if err := x.take(ask, note); err != nil {
		return err
	}
	ask = make([][]prov.Ref, n)
	asked := false
	for k, ref := range todo {
		if _, ok := x.held[ref]; ok {
			continue
		}
		for i := range ask {
			if i != tried[k][0] && i != tried[k][1] && !x.mig.excluded(i, ref.Object) {
				ask[i] = append(ask[i], ref)
				asked = true
			}
		}
	}
	if !asked {
		return nil
	}
	return x.take(ask, "second round: the refs no likely shard held, on the other shards")
}

// take runs one fetch round and keeps what it found, shard by shard: the
// records, concatenated where several shards return a ref, and the places of
// the refs they name.
func (x *rounds) take(ask [][]prov.Ref, note string) error {
	found, err := x.probe(ask, note)
	if err != nil {
		return err
	}
	for i, entries := range found {
		for _, e := range entries {
			if held, ok := x.held[e.Ref]; ok {
				e.Records = append(held[:len(held):len(held)], e.Records...)
			}
			x.held[e.Ref] = e.Records
		}
		for _, ref := range x.named(i, entries) {
			x.learn(ref, i)
		}
	}
	return nil
}

// dependentsRound asks for the items listing a seed among their inputs:
// one level down, seeds that are themselves dependents included.
func dependentsRound(seeds prov.Query) prov.Query {
	seeds.Direction, seeds.Depth, seeds.IncludeSeeds = prov.TraverseDescendants, 1, true
	seeds.Projection = prov.ProjectRefs
	return seeds
}

func (x *rounds) InstancesOf(tool string) ([]prov.Ref, error) {
	return x.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: tool}})
}

func (x *rounds) MatchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error) {
	return x.broadcast(prov.Query{Attrs: filters, Projection: prov.ProjectRefs}, "predicate pushdown on every shard")
}

// DependentsOf is one dependents-of-refs round. The round language is
// prov.Query, which cannot carry riding filters, so the candidates — cut to
// prefix first — take a filter round of their own: one GetAttributes per
// candidate on its likely shards, the N+1 the members' own engine avoids
// (ROADMAP, the router item's (d)).
func (x *rounds) DependentsOf(refs []prov.Ref, prefix string, riding []prov.AttrFilter) ([]prov.Ref, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	deps, err := x.broadcast(dependentsRound(prov.Query{Refs: refs}), "dependents-of-refs fan-out")
	if err != nil {
		return nil, err
	}
	return x.FetchAndMatch(core.FilterRefPrefix(deps, prefix), riding)
}

func (x *rounds) DependentsOfPrefix(prefix string) ([]prov.Ref, error) {
	return x.broadcast(dependentsRound(prov.Query{RefPrefix: prefix}), "starts-with covers every matching version's children at once")
}

func (x *rounds) ListRefs() ([]prov.Ref, error) {
	return x.broadcast(prov.Query{Projection: prov.ProjectRefs}, "item names on every shard")
}

// FetchAndMatch fetches the refs from their likely shards and matches their
// records router-side: a member's filter miss could not tell a ref it lacks
// from one that does not match, and the fetch costs the member what its
// filter would, one GetAttributes per ref.
func (x *rounds) FetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error) {
	if len(filters) == 0 || len(refs) == 0 {
		return refs, nil
	}
	if err := x.fetch(refs, "filter round: fetch the refs from their likely shards"); err != nil {
		return nil, err
	}
	return x.match(refs, filters), nil
}

// InputsOf is the inputs-of-refs round: fetch the frontier's records, then
// read their edges.
func (x *rounds) InputsOf(frontier []prov.Ref) ([]prov.Ref, error) {
	if err := x.fetch(frontier, "inputs-of-refs: fetch the frontier's records from their likely shards"); err != nil {
		return nil, err
	}
	return x.inputsOf(frontier), nil
}

func (x *rounds) SeedsOf(q prov.Query) ([]prov.Ref, error) {
	return core.NativeRefs(x, core.StripTraversal(q))
}

// refsFor answers q through the pipeline in canonical ref order, fetching
// under ProjectFull the records of refs no earlier round fetched.
func (x *rounds) refsFor(q prov.Query) ([]prov.Ref, error) {
	refs, err := core.NativeRefs(x, q)
	if err != nil {
		return nil, err
	}
	prov.SortRefs(refs)
	if q.Projection != prov.ProjectFull {
		return refs, nil
	}
	return refs, x.fetch(refs, "fetch matched records")
}

// --- live executor -----------------------------------------------------------

// mhRun sends rounds to the shards' native plans. held is its rounds' record
// accumulator, the traversal's record source for ancestor expansion,
// filters and full-projection output.
type mhRun struct {
	r    *Router
	ctx  context.Context
	mig  *migration
	held map[prov.Ref][]prov.Record
}

func (x *mhRun) fanRefs(q prov.Query, _ string) ([][]prov.Ref, error) {
	perShard, err := x.r.fanOut(x.ctx, x.mig, q)
	if err != nil {
		return nil, err
	}
	out := make([][]prov.Ref, len(perShard))
	for i, entries := range perShard {
		out[i] = make([]prov.Ref, len(entries))
		for k, e := range entries {
			out[i][k] = e.Ref
		}
	}
	return out, nil
}

// probe asks each shard with refs to ask for their records concurrently.
// A member answers a pinned ref it lacks with no records; that is no find.
func (x *mhRun) probe(ask [][]prov.Ref, _ string) ([][]core.Entry, error) {
	var active []int
	for i, refs := range ask {
		if len(refs) > 0 {
			active = append(active, i)
		}
	}
	found := make([][]core.Entry, len(ask))
	err := core.RunLimited(x.ctx, len(active), len(active), func(k int) error {
		i := active[k]
		entries, err := core.CollectMerged(x.r.shards[i].Query(x.ctx, prov.Query{Refs: ask[i], Projection: prov.ProjectFull}))
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		kept := entries[:0]
		for _, e := range x.mig.filterEntries(i, entries) {
			if len(e.Records) > 0 {
				kept = append(kept, e)
			}
		}
		found[i] = kept
		return nil
	})
	return found, err
}

func (x *mhRun) named(_ int, found []core.Entry) []prov.Ref {
	var out []prov.Ref
	for _, e := range found {
		out = prov.AppendInputs(out, e.Records)
	}
	return out
}

func (x *mhRun) inputsOf(refs []prov.Ref) []prov.Ref {
	var parents []prov.Ref
	for _, ref := range refs {
		parents = prov.AppendInputs(parents, x.held[ref])
	}
	parents = core.DedupeRefs(parents)
	prov.SortRefs(parents)
	return parents
}

func (x *mhRun) match(refs []prov.Ref, filters []prov.AttrFilter) []prov.Ref {
	var out []prov.Ref
	for _, ref := range refs {
		if core.MatchAll(x.held[ref], filters) {
			out = append(out, ref)
		}
	}
	return out
}

// runRounds materializes one evaluation of the pipeline, every round
// answered by the members' native plans: the result refs in canonical order,
// with the fetched records under ProjectFull.
func (r *Router) runRounds(ctx context.Context, q prov.Query) ([]core.Entry, error) {
	x := newRounds(r, r.migSnapshot())
	x.fanner = &mhRun{r: r, ctx: ctx, mig: x.mig, held: x.held}
	refs, err := x.refsFor(q)
	if err != nil {
		return nil, err
	}
	entries := make([]core.Entry, len(refs))
	for i, ref := range refs {
		entries[i] = core.Entry{Ref: ref}
		if q.Projection == prov.ProjectFull {
			entries[i].Records = x.held[ref]
		}
	}
	return entries, nil
}

// --- plan-space executor -----------------------------------------------------

// mhPlan walks the same rounds in plan space: each round folds the Explains
// of the shards it asks into the composite plan and predicts their answers
// with core.RefPlanner — a fetch's finds from each shard's listing of its
// items. allPlanned turns false if any shard cannot predict a round's refs
// (defensive — strategyFor requires every member to be a RefPlanner); the
// plan then stops claiming exactness.
type mhPlan struct {
	r          *Router
	p          *core.QueryPlan
	mig        *migration
	round      int
	cached     bool
	allPlanned bool
	// items is each shard's predicted item set, listed on the first fetch
	// that asks the shard (nil before).
	items []map[prov.Ref]bool
}

// step opens one round in the plan and folds the asked shards' plans in.
func (x *mhPlan) step(note string, plans []core.QueryPlan) {
	x.round++
	x.p.AddStep("-", "round", 0, fmt.Sprintf("round %d: %s", x.round, note))
	x.cached = foldPlans(x.p, plans) && x.cached
}

func (x *mhPlan) fanRefs(q prov.Query, note string) ([][]prov.Ref, error) {
	x.step(note, x.r.memberPlans(q))
	out := make([][]prov.Ref, len(x.r.shards))
	for i := range x.r.shards {
		for _, ref := range x.planOn(i, q) {
			if !x.mig.excluded(i, ref.Object) {
				out[i] = append(out[i], ref)
			}
		}
	}
	return out, nil
}

func (x *mhPlan) probe(ask [][]prov.Ref, note string) ([][]core.Entry, error) {
	var plans []core.QueryPlan
	found := make([][]core.Entry, len(ask))
	refs, shards := 0, 0
	for i, pinned := range ask {
		if len(pinned) == 0 {
			continue
		}
		refs, shards = refs+len(pinned), shards+1
		plans = append(plans, x.r.shards[i].Explain(prov.Query{Refs: pinned, Projection: prov.ProjectFull}))
		items := x.itemsOn(i)
		for _, ref := range pinned {
			if items[ref] {
				found[i] = append(found[i], core.Entry{Ref: ref})
			}
		}
	}
	x.step(fmt.Sprintf("%s (%d probes on %d shards)", note, refs, shards), plans)
	return found, nil
}

// itemsOn is shard i's predicted item set: its listing less the migration
// window's non-authoritative copies.
func (x *mhPlan) itemsOn(i int) map[prov.Ref]bool {
	if x.items[i] == nil {
		listed := x.planOn(i, prov.Query{Projection: prov.ProjectRefs})
		x.items[i] = make(map[prov.Ref]bool, len(listed))
		for _, ref := range listed {
			if !x.mig.excluded(i, ref.Object) {
				x.items[i][ref] = true
			}
		}
	}
	return x.items[i]
}

// inputsOfRound is the virtual inputs-of-refs descriptor every RefPlanner
// supports: the refs' direct inputs (and the refs themselves).
func inputsOfRound(refs []prov.Ref) prov.Query {
	return prov.Query{Refs: refs, Direction: prov.TraverseAncestors, Depth: 1, IncludeSeeds: true, Projection: prov.ProjectRefs}
}

// named predicts the inputs shard i's found records name. The refs found
// come back too; they are fetched, so no later round is routed by them.
func (x *mhPlan) named(i int, found []core.Entry) []prov.Ref {
	if len(found) == 0 {
		return nil // a descriptor without refs would walk from every item
	}
	refs := make([]prov.Ref, len(found))
	for k, e := range found {
		refs[k] = e.Ref
	}
	return x.planOn(i, inputsOfRound(refs))
}

// inputsOf predicts the next frontier from the members' answers to the
// inputs-of-refs descriptor — no extra round, the fetch before it already
// paid for the records.
func (x *mhPlan) inputsOf(refs []prov.Ref) []prov.Ref {
	return x.planRefs(inputsOfRound(refs))
}

func (x *mhPlan) match(refs []prov.Ref, filters []prov.AttrFilter) []prov.Ref {
	return x.planRefs(prov.Query{Refs: refs, Attrs: filters, Projection: prov.ProjectRefs})
}

// planOn is shard i's predicted answer to q.
func (x *mhPlan) planOn(i int, q prov.Query) []prov.Ref {
	rp, ok := x.r.shards[i].(core.RefPlanner)
	if !ok {
		x.allPlanned = false
		return nil
	}
	refs, ok := rp.PlanQueryRefs(q)
	if !ok {
		x.allPlanned = false
		return nil
	}
	return refs
}

// planRefs merges every member's predicted answer to q: deduplicated,
// ref-sorted.
func (x *mhPlan) planRefs(q prov.Query) []prov.Ref {
	var out []prov.Ref
	for i := range x.r.shards {
		out = append(out, x.planOn(i, q)...)
	}
	out = core.DedupeRefs(out)
	prov.SortRefs(out)
	return out
}

// explainMultihop composes the rounds the live traversal will run into p.
func (r *Router) explainMultihop(p *core.QueryPlan, q prov.Query) {
	x := newRounds(r, r.migSnapshot())
	plan := &mhPlan{r: r, p: p, mig: x.mig, cached: true, allPlanned: true, items: make([]map[prov.Ref]bool, len(r.shards))}
	x.fanner = plan
	if _, err := x.refsFor(q); err != nil {
		// The plan-space executor never errors; keep the composite honest
		// if that ever changes.
		p.Exact = false
		return
	}
	if !plan.allPlanned {
		p.Exact = false
	}
	p.Cached = plan.cached && p.EstOps == 0
}
