package core

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/prov"
)

// splitGraph deals g's subjects onto n parts by object hash, as a router
// homes them, and gives every third object a stale copy on the next part —
// the non-authoritative side of a migration window, with a name and an input
// the authoritative copy lacks — which hide hides.
func splitGraph(g *prov.Graph, n int) ([]*prov.Graph, func(int, prov.ObjectID) bool) {
	place := func(obj prov.ObjectID) (home, stale int) {
		h := fnv.New32a()
		h.Write([]byte(obj))
		v := int(h.Sum32() % 3000)
		if stale = -1; n > 1 && v/n%3 == 0 {
			stale = (v%n + 1) % n
		}
		return v % n, stale
	}
	parts := make([]*prov.Graph, n)
	for i := range parts {
		parts[i] = prov.NewGraph()
	}
	for s, rs := range g.SubjectSeq() {
		home, stale := place(s.Object)
		parts[home].AddSubject(s, rs)
		if stale >= 0 {
			parts[stale].AddSubject(s, append(slices.Clip(rs), prov.NewString(s, prov.AttrName, "blast"), prov.NewInput(s, prov.Ref{Object: "/in/a"})))
		}
	}
	return parts, func(i int, obj prov.ObjectID) bool {
		_, stale := place(obj)
		return i == stale
	}
}

// graphRefsAgree reports whether GraphEntries on parts answers q as
// EvalQueryRefs does on whole, records included under ProjectFull.
func graphRefsAgree(t *testing.T, whole *prov.Graph, parts []*prov.Graph, hide func(int, prov.ObjectID) bool, q prov.Query) bool {
	t.Helper()
	entries := GraphEntries(parts, hide, q)
	got, want := refsOf(entries), EvalQueryRefs(whole, q)
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Logf("%s on %d parts:\npipeline:  %v\nevaluator: %v", q.Key(), len(parts), got, want)
		return false
	}
	for _, e := range entries {
		if q.Projection == prov.ProjectFull && !reflect.DeepEqual(e.Records, whole.Records(e.Ref)) {
			t.Logf("%s on %d parts: records of %v\npipeline:  %v\nevaluator: %v", q.Key(), len(parts), e.Ref, e.Records, whole.Records(e.Ref))
			return false
		}
	}
	return true
}

// oracleGraph is a small lineage with the corners the pipeline must get
// right: a tool whose environment is too long for any predicate, a version
// chain, and an edge-only ref — /out:0, overwritten, so its records are gone
// and only the input edge of a process that read it, its only input, still
// names it.
func oracleGraph() (*prov.Graph, string) {
	r := func(obj string, v int) prov.Ref {
		return prov.Ref{Object: prov.ObjectID(obj), Version: prov.Version(v)}
	}
	env := "LAB=x " + strings.Repeat("E", 1200)
	g := prov.NewGraph()
	proc := func(p prov.Ref, name string, inputs ...prov.Ref) {
		g.AddAll([]prov.Record{prov.NewString(p, prov.AttrType, prov.TypeProcess), prov.NewString(p, prov.AttrName, name)})
		for _, in := range inputs {
			g.Add(prov.NewInput(p, in))
		}
	}
	file := func(f prov.Ref, inputs ...prov.Ref) {
		g.AddAll([]prov.Record{prov.NewString(f, prov.AttrType, prov.TypeFile), prov.NewString(f, prov.AttrName, string(f.Object))})
		for _, in := range inputs {
			g.Add(prov.NewInput(f, in))
		}
	}
	in0, in1, blast, sorter := r("/in/a", 0), r("/in/b", 0), r("proc/1/blast", 0), r("proc/2/sort", 0)
	file(in0)
	file(in1)
	proc(blast, "blast", in0, in1)
	g.Add(prov.NewString(blast, "env", env))
	file(r("/out", 1), blast)
	proc(r("proc/3/cat", 0), "cat", r("/out", 0)) // read /out:0 before its overwrite
	file(r("/hits", 0), blast)
	proc(sorter, "sort", r("/hits", 0), r("/out", 1))
	file(r("/res/s", 0), sorter)
	file(r("/res/s", 1), sorter, r("/res/s", 0))
	return g, env
}

// TestNativeRefsMatchesEvaluator: on a substrate that holds whole records —
// the graph executor, on one graph and on that graph split into 1–4 parts
// with stale copies hidden — the pipeline answers every descriptor, and
// answers it as the reference evaluator does on the whole graph: the shapes
// HasNativeRefs keeps from a backend's indexes included, filter values over
// the predicate limit, a tool under pinned refs, and traversals from
// everything in both directions.
func TestNativeRefsMatchesEvaluator(t *testing.T) {
	g, env := oracleGraph()
	rng := rand.New(rand.NewSource(33))
	pick := func(n int) int { return rng.Intn(n) }
	tools := []string{"", "", "blast", "sort", "missing", env}
	types := []string{"", prov.TypeFile, prov.TypeProcess}
	attrs := []prov.AttrFilter{{Attr: "env", Value: env}, {Attr: prov.AttrName, Value: "blast"}, {Attr: prov.AttrName, Value: "/hits"}}
	prefixes := []string{"", "", "/out:", "/res/", "proc/", "/nope"}
	pins := []prov.Ref{{Object: "/out", Version: 0}, {Object: "/out", Version: 1}, {Object: "/hits"}, {Object: "/res/s", Version: 1}, {Object: "proc/2/sort"}, {Object: "/ghost", Version: 3}}

	drawn := map[string]int{}
	for i := 0; i < 600; i++ {
		q := prov.Query{Tool: tools[pick(len(tools))], Type: types[pick(len(types))], RefPrefix: prefixes[pick(len(prefixes))]}
		if pick(3) == 0 {
			q.Attrs = append(q.Attrs, attrs[pick(len(attrs))])
		}
		if pick(3) == 0 {
			for n := 1 + pick(2); n > 0; n-- {
				q.Refs = append(q.Refs, pins[pick(len(pins))])
			}
		}
		if pick(4) == 0 { // from everything
			q = prov.Query{}
		}
		dir := []string{"", "descendants", "ancestors"}[pick(3)]
		if dir != "" {
			q.Direction = map[string]prov.Direction{"descendants": prov.TraverseDescendants, "ancestors": prov.TraverseAncestors}[dir]
			q.Depth, q.IncludeSeeds = pick(3), pick(2) == 0
		}

		long := !Pushable(q.Tool)
		for _, f := range q.AttrFilters() {
			long = long || !Pushable(f.Value)
		}
		switch {
		case long:
			drawn["value over the predicate limit"]++
		case q.Tool != "" && len(q.Refs) > 0:
			drawn["tool under pinned refs"]++
		case !q.HasFilters() && dir != "":
			drawn[dir+" of everything"]++
		}

		if pick(2) == 0 {
			q.Projection = prov.ProjectRefs
		}

		parts, hide := splitGraph(g, 1+i%4)
		if !graphRefsAgree(t, g, []*prov.Graph{g}, nil, q) || !graphRefsAgree(t, g, parts, hide, q) {
			t.Fatalf("draw %d disagrees", i)
		}
	}
	for _, shape := range []string{"value over the predicate limit", "tool under pinned refs", "descendants of everything", "ancestors of everything"} {
		if drawn[shape] == 0 {
			t.Errorf("no draw of shape %q: %v", shape, drawn)
		}
	}
}

// TestHasNativeRefsVerdicts pins the verdicts that used to be a seed plan of
// their own: what a backend answers from its materialized graph instead.
func TestHasNativeRefsVerdicts(t *testing.T) {
	long := strings.Repeat("v", OverflowThreshold+1)
	pin := []prov.Ref{{Object: "/a"}}
	cases := []struct {
		name string
		q    prov.Query
		want bool
	}{
		{"tool", prov.Query{Tool: "blast"}, true},
		{"tool under pinned refs", prov.Query{Tool: "blast", Refs: pin}, false},
		{"tool over the predicate limit", prov.Query{Tool: long}, false},
		{"tool with a filter over the limit", prov.Query{Tool: "blast", Attrs: []prov.AttrFilter{{Attr: "env", Value: long}}}, false},
		{"filter", prov.Query{Type: prov.TypeFile}, true},
		{"filter over the limit", prov.Query{Attrs: []prov.AttrFilter{{Attr: "env", Value: long}}}, false},
		{"pinned refs under a filter over the limit", prov.Query{Refs: pin, Attrs: []prov.AttrFilter{{Attr: "env", Value: long}}}, true},
		{"prefix descendants", prov.Query{RefPrefix: "/a:", Direction: prov.TraverseDescendants}, true},
		{"everything", prov.Query{}, true},
		{"descendants of everything", prov.Query{Direction: prov.TraverseDescendants}, false},
		{"ancestors of everything", prov.Query{Direction: prov.TraverseAncestors}, false},
	}
	for _, tc := range cases {
		if got := HasNativeRefs(tc.q); got != tc.want {
			t.Errorf("%s: HasNativeRefs = %v, want %v", tc.name, got, tc.want)
		}
	}
}
