package shard_test

import (
	"context"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/shard"
	"passcloud/internal/prov"
)

// oneMemberShape is one descriptor of the store-vs-router cost comparison.
// candidates is set on the tool shapes whose router run fetches every
// candidate it filters, on top of the store's count (ROADMAP, the router
// item's (d)): the descriptor whose answer those candidates are.
type oneMemberShape struct {
	name       string
	q          prov.Query
	candidates *prov.Query
}

func oneMemberShapes() []oneMemberShape {
	mean1 := []prov.Ref{{Object: "/res/mean", Version: 1}}
	in0 := []prov.Ref{{Object: "/data/in0", Version: 0}}
	desc := func(q prov.Query, depth int) prov.Query {
		q.Direction, q.Depth, q.Projection = prov.TraverseDescendants, depth, prov.ProjectRefs
		return q
	}
	full := func(q prov.Query) prov.Query { q.Projection = prov.ProjectFull; return q }
	anc := prov.Query{Refs: mean1, Direction: prov.TraverseAncestors, Projection: prov.ProjectRefs}
	ancShallow := anc
	ancShallow.Depth = 2
	blastFiles := prov.Query{Tool: "blast", Projection: prov.ProjectRefs}
	blastOut := prov.Query{Tool: "blast", RefPrefix: "/out/", Projection: prov.ProjectRefs}
	toolPrefix := prov.Query{Tool: "blast", Type: prov.TypeFile, RefPrefix: "/out/", Projection: prov.ProjectRefs}
	softmean := prov.Query{Tool: "softmean", Projection: prov.ProjectRefs}
	name := []prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}}

	return []oneMemberShape{
		{name: "pinned descendants", q: desc(prov.Query{Refs: in0}, 0)},
		{name: "pinned descendants, full", q: full(desc(prov.Query{Refs: in0}, 0))},
		{name: "pinned descendants, keep seeds", q: prov.Query{Refs: in0, Direction: prov.TraverseDescendants, IncludeSeeds: true, Projection: prov.ProjectRefs}},
		{name: "pinned descendants under a filter", q: desc(prov.Query{Refs: in0, Type: prov.TypeFile}, 2)},
		{name: "pinned ancestors", q: anc},
		{name: "pinned ancestors, full", q: full(anc)},
		{name: "pinned ancestors, depth 2", q: ancShallow},
		{name: "prefix /res/mean: depth 0", q: desc(prov.Query{RefPrefix: "/res/mean:"}, 0)},
		{name: "prefix /res/mean: depth 1", q: desc(prov.Query{RefPrefix: "/res/mean:"}, 1)},
		{name: "prefix /res/mean: depth 3", q: desc(prov.Query{RefPrefix: "/res/mean:"}, 3)},
		{name: "prefix /out/blast0: depth 0", q: desc(prov.Query{RefPrefix: "/out/blast0:"}, 0)},
		{name: "prefix /out/blast0: depth 3, full", q: full(desc(prov.Query{RefPrefix: "/out/blast0:"}, 3))},
		{name: "prefix / depth 0", q: desc(prov.Query{RefPrefix: "/"}, 0)},
		{name: "prefix / depth 3", q: desc(prov.Query{RefPrefix: "/"}, 3)},
		{name: "pushdown-seeded descendants", q: desc(prov.Query{Attrs: name}, 0)},
		{name: "pushdown-seeded descendants under a prefix", q: desc(prov.Query{Type: prov.TypeFile, RefPrefix: "/out/"}, 2)},

		{name: "tool, no filter", q: blastFiles},
		{name: "Q.2", q: prov.QOutputsOf("blast"), candidates: &blastFiles},
		{name: "Q.3", q: prov.QDescendantsOfOutputs("blast"), candidates: &blastFiles},
		{name: "tool + prefix + filter", q: toolPrefix, candidates: &blastOut},
		{name: "tool + filter, descendants depth 2", q: desc(prov.Query{Tool: "softmean", Type: prov.TypeFile}, 2), candidates: &softmean},
	}
}

// TestOneMemberRouterCostsWhatTheStoreCosts holds the router's two
// executors of the refs pipeline to the store's two: over one s3+sdb
// member the router is the store seen through round descriptors, so every
// multi-hop-eligible shape without a tool must meter exactly the bare
// store's cloud ops and return its answer. The tool shapes pin the one
// known difference — the router's round language cannot carry riding
// filters, so it fetches each candidate it filters — as store + one
// GetAttributes per candidate, so that N+1 cannot grow silently and the
// change that removes it has a number to move.
func TestOneMemberRouterCostsWhatTheStoreCosts(t *testing.T) {
	ctx := context.Background()
	batches := captureBatches(t)

	bare := buildTarget(t, "s3+sdb", 1, 41, true)
	replay(t, ctx, bare, batches)

	multi := cloud.NewMulti(cloud.Config{Seed: 41})
	cl := multi.Namespace("shard0")
	member, _ := buildStore(t, "s3+sdb", cl, "c0", true)
	r, err := shard.New(shard.Config{Shards: []shard.Store{member}})
	if err != nil {
		t.Fatal(err)
	}
	routed := &target{store: r, router: r, clouds: []*cloud.Cloud{cl}}
	replay(t, ctx, routed, batches)

	metered := func(tg *target, q prov.Query) (string, int64) {
		before := tg.totalOps()
		answer := canonical(t, ctx, tg.querier(), q)
		return answer, tg.totalOps() - before
	}

	for _, sh := range oneMemberShapes() {
		if got := r.Explain(sh.q).Strategy; sh.q.Depth != 1 && got != "multihop" {
			t.Errorf("%s: router strategy %q, the comparison is about the multi-hop executors", sh.name, got)
		}
		var extra int64
		if sh.candidates != nil {
			cands, err := core.CollectRefs(bare.querier().Query(ctx, *sh.candidates))
			if err != nil {
				t.Fatal(err)
			}
			// One fetch each: a GetAttributes and the GETs its decode issues.
			_, extra = metered(bare, prov.Query{Refs: cands, Projection: prov.ProjectFull})
		}
		want, storeOps := metered(bare, sh.q)
		got, routerOps := metered(routed, sh.q)
		t.Logf("%-45s store %3d  router %3d", sh.name, storeOps, routerOps)
		if got != want {
			t.Errorf("%s: answers differ\nstore:\n%s\nrouter:\n%s", sh.name, want, got)
		}
		if routerOps != storeOps+extra {
			t.Errorf("%s: store %d ops, one-member router %d, want store + %d", sh.name, storeOps, routerOps, extra)
		}
	}
}
