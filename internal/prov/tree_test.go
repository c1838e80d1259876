package prov

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestTreeMatchesMap: from a tree built in bulk, random puts and deletes,
// each batch under one epoch, keep a tree equal to a map, and every earlier tree value equal to the map
// it was taken from — at sizes where nodes split, rotate keys and merge.
func TestTreeMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type version struct {
		t tree[Ref, int]
		m map[Ref]int
	}
	var versions []version
	model := map[Ref]int{}
	for i := 0; i < 5000; i++ {
		model[Ref{Object: ObjectID(fmt.Sprintf("o%d", rng.Intn(3000))), Version: Version(rng.Intn(3))}] = i
	}
	start := slices.SortedFunc(maps.Keys(model), Ref.compare)
	cur := buildTree(len(start), func(i int) (Ref, int) { return start[i], model[start[i]] }, newEpoch())
	ep := newEpoch()
	for step := 0; step < 30; step++ {
		keys := 50 + rng.Intn(3000)
		for op := 0; op < 400; op++ {
			k := Ref{Object: ObjectID(fmt.Sprintf("o%d", rng.Intn(keys))), Version: Version(rng.Intn(3))}
			if rng.Intn(3) == 0 {
				cur.del(k, ep)
				delete(model, k)
			} else {
				v := rng.Int()
				cur.put(k, v, ep)
				model[k] = v
			}
		}
		versions = append(versions, version{cur, maps.Clone(model)})
		ep = newEpoch() // the nodes are shared from here on
		if step%7 == 0 {
			ep = 0
		}
		for i, v := range versions {
			if err := treeShape(v.t.root, v.t.n); err != nil {
				t.Fatalf("step %d, version %d: %v", step, i, err)
			}
			got := map[Ref]int{}
			v.t.all(func(k Ref, val int) bool { got[k] = val; return true })
			if !maps.Equal(got, v.m) {
				t.Fatalf("step %d, version %d: the tree holds %d keys, its map %d", step, i, len(got), len(v.m))
			}
		}
		want := slices.SortedFunc(maps.Keys(model), Ref.compare)
		from := Ref{Object: "o5"}
		var got []Ref
		cur.from(from, func(k Ref, _ int) bool { got = append(got, k); return true })
		i, _ := slices.BinarySearchFunc(want, from, Ref.compare)
		if !slices.Equal(got, want[i:]) {
			t.Fatalf("step %d: the range from %v holds %d keys, want %d", step, from, len(got), len(want)-i)
		}
	}
}

// TestBuildTreeShape: a bulk build is a valid B-tree at every size around
// the capacities of one, two and three levels.
func TestBuildTreeShape(t *testing.T) {
	for _, base := range []int{0, maxKeys, maxKeys + (maxKeys+1)*maxKeys} {
		for n := max(0, base-40); n <= base+40; n++ {
			tr := buildTree(n, func(i int) (Ref, int) { return Ref{Object: ObjectID(fmt.Sprintf("o%06d", i))}, i }, newEpoch())
			if err := treeShape(tr.root, n); err != nil {
				t.Fatalf("%d keys: %v", n, err)
			}
		}
	}
}
