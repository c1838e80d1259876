package prov

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// snapshot deep-copies what a graph holds — every slice to its capacity, not
// its length — so a later comparison shows whether anything wrote into it,
// spare room included.
func (g *Graph) snapshot() (map[Ref][]Record, map[Ref][]Ref) {
	records := make(map[Ref][]Record, len(g.records))
	for ref, rs := range g.records {
		records[ref] = slices.Clone(rs[:cap(rs)])
	}
	children := make(map[Ref][]Ref, len(g.children))
	for ref, kids := range g.children {
		children[ref] = slices.Clone(kids[:cap(kids)])
	}
	return records, children
}

// sortedRecords renders records as a sorted multiset.
func sortedRecords(records []Record) []string {
	out := make([]string, len(records))
	for i, r := range records {
		out[i] = fmt.Sprintf("%s|%s|%d|%s", r.Subject, r.Attr, r.Value.Kind, r.Value)
	}
	sort.Strings(out)
	return out
}

func sortedSeq(seq func(func(Ref) bool)) []Ref {
	var out []Ref
	for r := range seq {
		out = append(out, r)
	}
	sortRefs(out)
	return out
}

// sameGraph compares two graphs on everything a reader can observe.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.Len() != want.Len() || got.NumRecords() != want.NumRecords() {
		t.Fatalf("%s: Len/NumRecords = %d/%d, want %d/%d", what, got.Len(), got.NumRecords(), want.Len(), want.NumRecords())
	}
	subjects := sortedSeq(want.SubjectSeq())
	if g := sortedSeq(got.SubjectSeq()); !reflect.DeepEqual(g, subjects) {
		t.Fatalf("%s: SubjectSeq = %v, want %v", what, g, subjects)
	}
	sources := sortedSeq(want.EdgeSourceSeq())
	if g := sortedSeq(got.EdgeSourceSeq()); !reflect.DeepEqual(g, sources) {
		t.Fatalf("%s: EdgeSourceSeq = %v, want %v", what, g, sources)
	}
	for _, ref := range subjects {
		if g, w := sortedRecords(got.Records(ref)), sortedRecords(want.Records(ref)); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Records(%s) = %v, want %v", what, ref, g, w)
		}
	}
	for _, ref := range sources {
		if g, w := got.Children(ref), want.Children(ref); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Children(%s) = %v, want %v", what, ref, g, w)
		}
		unsorted := slices.Clone(got.ChildList(ref))
		sortRefs(unsorted)
		if !reflect.DeepEqual(unsorted, want.Children(ref)) {
			t.Fatalf("%s: ChildList(%s) = %v, want the set %v", what, ref, unsorted, want.Children(ref))
		}
	}
	if g, w := got.MissingAncestors(), want.MissingAncestors(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: MissingAncestors = %v, want %v", what, g, w)
	}
}

// TestUnionEqualsAddAll: Union over 1–5 parts — whose subjects overlap, and
// whose inputs name refs no part has records for — is the graph NewGraph and
// AddAll build from the same records, with and without a keep filter; and
// neither building it nor adding to it afterwards writes into a part.
func TestUnionEqualsAddAll(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]Ref, 12)
		for i := range pool {
			pool[i] = ref(fmt.Sprintf("/o%d", i%8), i/8)
		}
		ghosts := []Ref{ref("/gone", 0), ref("/gone", 1)} // edge-only sources
		n := 1 + rng.Intn(5)
		perPart := make([][]Record, n)
		for i := range perPart {
			for k := rng.Intn(30); k > 0; k-- {
				subject := pool[rng.Intn(len(pool))]
				switch rng.Intn(4) {
				case 0:
					perPart[i] = append(perPart[i], NewString(subject, AttrName, fmt.Sprintf("n%d", rng.Intn(5))))
				case 1:
					perPart[i] = append(perPart[i], NewInput(subject, ghosts[rng.Intn(len(ghosts))]))
				default:
					perPart[i] = append(perPart[i], NewInput(subject, pool[rng.Intn(len(pool))]))
				}
			}
		}
		// Even parts are built the way a member's scan builds them, entry by
		// entry; odd ones record by record, which leaves spare capacity
		// behind every slice for a careless union to write into.
		parts := make([]*Graph, n)
		for i, records := range perPart {
			parts[i] = NewGraph()
			if i%2 == 1 {
				parts[i].AddAll(records)
				continue
			}
			for subject, rs := range BySubject(records) {
				parts[i].AddSubject(subject, rs)
			}
		}
		type before struct {
			records  map[Ref][]Record
			children map[Ref][]Ref
		}
		was := make([]before, n)
		for i, p := range parts {
			was[i].records, was[i].children = p.snapshot()
		}
		unmutated := func(what string) {
			t.Helper()
			for i, p := range parts {
				records, children := p.snapshot()
				if !reflect.DeepEqual(records, was[i].records) || !reflect.DeepEqual(children, was[i].children) {
					t.Fatalf("seed %d: %s mutated part %d", seed, what, i)
				}
			}
		}

		drop := map[Ref]int{pool[rng.Intn(len(pool))]: rng.Intn(n), pool[rng.Intn(len(pool))]: rng.Intn(n)}
		keeps := map[string]func(int, Ref) bool{
			"no keep": nil,
			"keep":    func(i int, subject Ref) bool { part, dropped := drop[subject]; return !dropped || part != i },
		}
		for name, keep := range keeps {
			want := NewGraph()
			for i, records := range perPart {
				for _, r := range records {
					if keep == nil || keep(i, r.Subject) {
						want.Add(r)
					}
				}
			}
			got := Union(parts, keep)
			sameGraph(t, fmt.Sprintf("seed %d, %d parts, %s", seed, n, name), got, want)
			unmutated("Union")

			// The union is a graph like any other: adding to it must grow
			// its own storage, never a part's.
			extra := []Record{NewInput(pool[0], pool[1]), NewString(pool[2], AttrName, "late"), NewInput(ref("/new", 0), ghosts[0])}
			got.AddAll(extra)
			want.AddAll(extra)
			got.AddSubject(pool[3], []Record{NewInput(pool[3], pool[4])})
			want.Add(NewInput(pool[3], pool[4]))
			sameGraph(t, fmt.Sprintf("seed %d, %d parts, %s, after Add", seed, n, name), got, want)
			unmutated("Add on the union")
		}
	}
}

// TestAddAfterAdoptionNeverWritesShared pins the aliasing rule on its own: a
// slice AddSubject adopted has spare capacity the caller still owns, and
// neither Add nor a second AddSubject may write into it.
func TestAddAfterAdoptionNeverWritesShared(t *testing.T) {
	a, b, c := ref("/a", 0), ref("/b", 0), ref("/c", 0)
	backing := make([]Record, 1, 8)
	backing[0] = NewInput(a, b)
	sentinel := NewString(c, AttrName, "caller's")
	backing[:2][1] = sentinel

	g := NewGraph()
	g.AddSubject(a, backing)
	g.Add(NewString(a, AttrName, "added"))
	g.AddSubject(a, []Record{NewInput(a, c)})
	if backing[:2][1] != sentinel {
		t.Fatalf("the graph wrote %v into the adopted slice's spare capacity", backing[:2][1])
	}
	if got := len(g.Records(a)); got != 3 {
		t.Fatalf("Records(a) has %d records, want 3", got)
	}

	// The same for a child list the union adopted from a part.
	part := NewGraph()
	part.Add(NewInput(a, b))
	kids := part.children[b]
	spare := append(kids, c)[:1] // part's own list, with capacity behind it
	part.children[b] = spare
	u := Union([]*Graph{part}, nil)
	u.Add(NewInput(ref("/d", 0), b))
	if got := spare[:2][1]; got != c {
		t.Fatalf("Add on the union wrote %v into a part's child list", got)
	}
	if !reflect.DeepEqual(u.Children(b), []Ref{a, ref("/d", 0)}) {
		t.Fatalf("Children(b) = %v", u.Children(b))
	}
}
