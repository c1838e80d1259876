package prov

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzGraphIndexMatchesScan: a graph's indexes answer what a scan of its
// records answers. The bytes decode, one choice each, into a graph built by
// Add and AddSubject, then a run of Replace steps (with the postings built
// before some of them, so both inherited and fresh postings are read) and
// Adds to graphs already replaced. After every step, every graph made so far
// — old ones included — must read as its own model: records, child lists,
// each posting lookup, each prefix range of edge sources, and the trees'
// shape invariants. Object names hold colons, and some refs are in no
// canonical form (an empty name, a negative version). Exhausted bytes read
// as zero.
func FuzzGraphIndexMatchesScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 1, 2, 3, 0, 1, 2, 1, 4, 2, 2, 0, 3, 1, 5, 7, 1, 2})
	f.Add([]byte{5, 3, 1, 2, 2, 3, 1, 0, 4, 2, 2, 1, 1, 3, 3, 2, 0, 1, 0, 2, 2, 1, 3, 1, 4, 0, 2, 3, 1, 1, 0, 2, 4, 1})
	objects := []ObjectID{"a", "a:1", "a:1:2", "a:10", "a/b", "b", "b:", "", ":x", "a:"}
	for i := 0; i < 60; i++ { // enough subjects for trees of more than one level
		objects = append(objects, ObjectID(fmt.Sprintf("f/%d", i)))
	}
	values := []string{"x", "a:1", "a:10", "a:-1", ":1", "y"}
	attrs := []string{AttrType, AttrName, AttrInput, "note"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		ref := func() Ref {
			return Ref{Object: objects[next(len(objects))], Version: Version(next(4) - next(2))}
		}
		recordsOf := func(s Ref) []Record {
			var rs []Record
			for k := next(5); k > 0; k-- {
				switch attr := attrs[next(len(attrs))]; {
				case attr == AttrInput && next(3) > 0:
					rs = append(rs, NewInput(s, ref()))
				case attr == "note" && next(3) == 0:
					rs = append(rs, Record{Subject: s, Attr: attr, Value: RefValue(ref())})
				default:
					rs = append(rs, NewString(s, attr, values[next(len(values))]))
				}
			}
			return rs
		}

		var graphs []*Graph
		var models []map[Ref][]Record
		g, model := NewGraph(), map[Ref][]Record{}
		for n := next(12) + 50*next(3); n > 0; n-- {
			s := ref()
			rs := recordsOf(s)
			if len(rs) == 0 {
				continue
			}
			model[s] = append(slices.Clip(model[s]), rs...)
			if next(2) == 0 {
				g.AddSubject(s, slices.Clone(rs))
			} else {
				g.AddAll(rs)
			}
		}
		graphs, models = append(graphs, g), append(models, model)
		checkGraphs(t, 0, graphs, models, values)

		for step := 1; len(data) > 0 && step < 12; step++ {
			from := next(len(graphs))
			if next(2) == 0 {
				graphs[from].Posting(AttrName, "x") // the postings Replace inherits
			}
			touched, model := map[Ref][]Record{}, maps.Clone(models[from])
			for k := 1 + next(4) + 30*next(2); k > 0; k-- {
				s := ref()
				rs := recordsOf(s)
				touched[s] = rs
				if len(rs) == 0 {
					delete(model, s)
				} else {
					model[s] = rs
				}
			}
			graphs, models = append(graphs, graphs[from].Replace(touched)), append(models, model)
			if next(3) == 0 {
				// A graph already replaced takes one more record; what was
				// derived from it must not see it.
				old := next(len(graphs) - 1)
				s := ref()
				r := NewString(s, AttrName, values[next(len(values))])
				graphs[old].Add(r)
				models[old] = maps.Clone(models[old])
				models[old][s] = append(slices.Clip(models[old][s]), r)
			}
			checkGraphs(t, step, graphs, models, values)
		}
	})
}

// checkGraphs holds every graph to its model.
func checkGraphs(t *testing.T, step int, graphs []*Graph, models []map[Ref][]Record, values []string) {
	t.Helper()
	for i, g := range graphs {
		if err := graphMatchesModel(g, models[i], values); err != nil {
			t.Fatalf("step %d, graph %d: %v", step, i, err)
		}
	}
}

// graphMatchesModel compares g with a brute-force reading of model.
func graphMatchesModel(g *Graph, model map[Ref][]Record, values []string) error {
	subjects := slices.SortedFunc(maps.Keys(model), Ref.compare)
	if got := g.Subjects(); g.Len() != len(model) || !slices.Equal(got, subjects) {
		return fmt.Errorf("subjects %v (Len %d), want %v", got, g.Len(), subjects)
	}
	children := map[Ref][]Ref{}
	for _, s := range subjects {
		if !slices.Equal(g.Records(s), model[s]) || !g.Has(s) {
			return fmt.Errorf("%v: records %v, want %v", s, g.Records(s), model[s])
		}
		for _, in := range g.Inputs(s) {
			children[in] = append(children[in], s)
		}
	}
	sources := slices.SortedFunc(maps.Keys(children), Ref.compare)
	if got := slices.Collect(g.EdgeSourceSeq()); !slices.Equal(got, sources) {
		return fmt.Errorf("edge sources %v, want %v", got, sources)
	}
	for _, src := range sources {
		got, want := slices.SortedFunc(slices.Values(g.ChildList(src)), Ref.compare), children[src]
		if slices.SortFunc(want, Ref.compare); !slices.Equal(got, want) {
			return fmt.Errorf("children of %v: %v, want %v", src, got, want)
		}
	}
	prefixes := []string{""}
	for _, src := range sources {
		for s := src.String(); s != ""; s = s[:len(s)-1] {
			prefixes = append(prefixes, s, s+"0", s+":")
		}
	}
	for _, p := range prefixes {
		var want []Ref
		for _, src := range sources {
			if strings.HasPrefix(src.String(), p) {
				want = append(want, src)
			}
			if src.HasPrefix(p) != strings.HasPrefix(src.String(), p) {
				return fmt.Errorf("%v.HasPrefix(%q) = %v", src, p, src.HasPrefix(p))
			}
		}
		if got := slices.Collect(g.EdgeSourcesWithPrefix(p)); !slices.Equal(got, want) {
			return fmt.Errorf("edge sources under %q: %v, want %v", p, got, want)
		}
	}
	keys := map[AttrFilter]bool{}
	for _, rs := range model {
		for _, r := range rs {
			keys[AttrFilter{r.Attr, r.Value.String()}] = true
		}
	}
	for _, v := range values {
		keys[AttrFilter{AttrInput, v}], keys[AttrFilter{AttrName, v}] = true, true
	}
	for k := range keys {
		var want []Ref
		for _, s := range subjects {
			if slices.ContainsFunc(model[s], func(r Record) bool { return r.Attr == k.Attr && r.Value.String() == k.Value }) {
				want = append(want, s)
			}
		}
		p := g.Posting(k.Attr, k.Value)
		got := slices.SortedFunc(p.All(), Ref.compare)
		if !slices.Equal(got, want) || p.Len() < len(got) {
			return fmt.Errorf("posting %v: %v (Len %d), want %v", k, got, p.Len(), want)
		}
	}
	if post := g.post.Load(); post != nil {
		if err := treeShape(post.root, post.n); err != nil {
			return fmt.Errorf("postings: %v", err)
		}
		var bad error
		post.all(func(k postKey, set refSet) bool {
			if bad = treeShape(set.root, set.n); bad == nil && set.n == 0 {
				bad = fmt.Errorf("empty set")
			}
			if bad != nil {
				bad = fmt.Errorf("posting %v: %v", k, bad)
			}
			return bad == nil
		})
		if bad != nil {
			return bad
		}
	}
	if err := treeShape(g.records.root, g.records.n); err != nil {
		return fmt.Errorf("records: %v", err)
	}
	if err := treeShape(g.children.root, g.children.n); err != nil {
		return fmt.Errorf("children: %v", err)
	}
	return nil
}

// treeShape checks a B-tree: keys in order, every node but the root within
// its key bounds, every leaf at one depth, and n keys.
func treeShape[K treeKey[K], V any](root *node[K, V], n int) error {
	count, leafDepth := 0, -1
	var walk func(nd *node[K, V], depth int, lo, hi *K) error
	walk = func(nd *node[K, V], depth int, lo, hi *K) error {
		count += len(nd.keys)
		if len(nd.vals) != len(nd.keys) || nd.kids != nil && len(nd.kids) != len(nd.keys)+1 {
			return fmt.Errorf("node with %d keys, %d values, %d children", len(nd.keys), len(nd.vals), len(nd.kids))
		}
		if len(nd.keys) > maxKeys || depth > 0 && len(nd.keys) < minKeys || len(nd.keys) == 0 {
			return fmt.Errorf("node at depth %d holds %d keys", depth, len(nd.keys))
		}
		for i, k := range nd.keys {
			if lo != nil && k.compare(*lo) <= 0 || hi != nil && k.compare(*hi) >= 0 || i > 0 && k.compare(nd.keys[i-1]) <= 0 {
				return fmt.Errorf("key %v out of order", k)
			}
		}
		if nd.kids == nil {
			if leafDepth >= 0 && leafDepth != depth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
			return nil
		}
		for i, c := range nd.kids {
			l, h := lo, hi
			if i > 0 {
				l = &nd.keys[i-1]
			}
			if i < len(nd.keys) {
				h = &nd.keys[i]
			}
			if err := walk(c, depth+1, l, h); err != nil {
				return err
			}
		}
		return nil
	}
	if root != nil {
		if err := walk(root, 0, nil, nil); err != nil {
			return err
		}
	}
	if count != n {
		return fmt.Errorf("%d keys, count says %d", count, n)
	}
	return nil
}
