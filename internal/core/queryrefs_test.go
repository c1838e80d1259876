package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"passcloud/internal/prov"
)

// graphRefs runs the refs pipeline on one graph: each primitive by a lookup
// (child lists, inputs) or a scan of the subjects, none through EvalQuery —
// so NativeRefs on it can be held to EvalQueryRefs on the same graph.
type graphRefs struct{ g *prov.Graph }

// matches reports whether ref's records assert every filter.
func (x graphRefs) matches(ref prov.Ref, filters []prov.AttrFilter) bool {
	for _, f := range filters {
		ok := false
		for _, r := range x.g.Records(ref) {
			ok = ok || r.Attr == f.Attr && r.Value.String() == f.Value
		}
		if !ok {
			return false
		}
	}
	return true
}

func (x graphRefs) InstancesOf(tool string) ([]prov.Ref, error) {
	return x.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: tool}})
}

func (x graphRefs) MatchAttrs(filters []prov.AttrFilter) ([]prov.Ref, error) {
	subjects, _ := x.ListRefs()
	return x.FetchAndMatch(subjects, filters)
}

func (x graphRefs) DependentsOf(refs []prov.Ref, prefix string, riding []prov.AttrFilter) ([]prov.Ref, error) {
	var deps []prov.Ref
	for _, r := range refs {
		deps = append(deps, x.g.ChildList(r)...)
	}
	return x.FetchAndMatch(FilterRefPrefix(DedupeRefs(deps), prefix), riding)
}

func (x graphRefs) DependentsOfPrefix(prefix string) ([]prov.Ref, error) {
	var out []prov.Ref
	for s := range x.g.SubjectSeq() {
		for _, in := range x.g.Inputs(s) {
			if strings.HasPrefix(in.String(), prefix) {
				out = append(out, s)
				break
			}
		}
	}
	return out, nil
}

func (x graphRefs) ListRefs() ([]prov.Ref, error) { return x.g.Subjects(), nil }

func (x graphRefs) FetchAndMatch(refs []prov.Ref, filters []prov.AttrFilter) ([]prov.Ref, error) {
	var out []prov.Ref
	for _, r := range refs {
		if x.matches(r, filters) {
			out = append(out, r)
		}
	}
	return out, nil
}

func (x graphRefs) InputsOf(refs []prov.Ref) ([]prov.Ref, error) {
	var out []prov.Ref
	for _, r := range refs {
		out = append(out, x.g.Inputs(r)...)
	}
	return DedupeRefs(out), nil
}

func (x graphRefs) SeedsOf(q prov.Query) ([]prov.Ref, error) {
	return NativeRefs(x, StripTraversal(q))
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

// TestNativeRefsMatchesEvaluator: on a substrate that holds whole records
// the pipeline answers every descriptor, and answers it as the reference
// evaluator does — the shapes HasNativeRefs keeps from a backend's indexes
// included: filter values over the predicate limit, a tool under pinned
// refs, and traversals from everything in both directions.
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

		got, err := NativeRefs(graphRefs{g}, q)
		if err != nil {
			t.Fatal(err)
		}
		got = DedupeRefs(got)
		prov.SortRefs(got)
		if want := EvalQueryRefs(g, q); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("draw %d, %s:\npipeline:  %v\nevaluator: %v", i, q.Key(), got, want)
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
