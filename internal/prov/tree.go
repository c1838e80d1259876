package prov

import (
	"cmp"
	"hash/maphash"
	"slices"
	"strings"
	"sync/atomic"
)

// tree is a persistent ordered map: a B-tree whose update copies the nodes
// on the path from the root to its key and shares every other node, so a
// reader of an older tree value is never disturbed. Nodes are wide, so a
// lookup reads a few of them, not one per comparison.
//
// Every node carries the edit epoch it was created or copied under. An
// update under epoch ep changes in place the nodes already carrying ep and
// copies the rest, so a tree no one shares yet (a transient build) costs an
// in-place insert per key, and a batch of updates under one epoch copies
// each shared node once. Epoch 0 belongs to no one: updates under it copy
// every node they touch. Whoever hands a tree's nodes to another tree value
// must stop using the epoch they carry (Graph.Replace retires its
// receiver's).
//
// A tree is a value: copy it to share it. Not safe for concurrent updates.
type tree[K treeKey[K], V any] struct {
	root *node[K, V]
	n    int
}

// treeKey is what a tree orders its keys by.
type treeKey[K any] interface {
	// compare orders keys totally: negative, zero or positive as the
	// receiver sorts before, with or after k.
	compare(k K) int
}

// maxKeys bounds a node's keys; every node but the root keeps at least
// minKeys.
const (
	maxKeys = 31
	minKeys = maxKeys / 2
)

type node[K treeKey[K], V any] struct {
	keys []K
	vals []slot[V]
	// kids is nil in a leaf; else kids[i] holds the keys between keys[i-1]
	// and keys[i].
	kids  []*node[K, V]
	epoch uint64
}

type slot[V any] struct {
	val V
	// own reports that val was stored under the node's epoch. A node copied
	// under an epoch shares its values with the original, so they are not
	// its to change in place.
	own bool
}

// epochs numbers edit epochs; 0 is never issued.
var epochs atomic.Uint64

// newEpoch returns an edit epoch no other caller holds.
func newEpoch() uint64 { return epochs.Add(1) }

// search returns the index of the first key not before k, and whether it is
// k.
func (n *node[K, V]) search(k K) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		switch c := n.keys[h].compare(k); {
		case c < 0:
			lo = h + 1
		case c > 0:
			hi = h
		default:
			return h, true
		}
	}
	return lo, false
}

// find returns the node holding k and its index there, or nil.
func (t *tree[K, V]) find(k K) (*node[K, V], int) {
	n := t.root
	for n != nil {
		i, found := n.search(k)
		switch {
		case found:
			return n, i
		case n.kids == nil:
			return nil, 0
		}
		n = n.kids[i]
	}
	return nil, 0
}

// get returns k's value and whether k is present.
func (t *tree[K, V]) get(k K) (V, bool) {
	if n, i := t.find(k); n != nil {
		return n.vals[i].val, true
	}
	var zero V
	return zero, false
}

// buildTree returns the tree of n distinct keys, given in ascending order by
// at, built bottom-up under ep: no descent and no split, each node filled
// once to about the same size.
func buildTree[K treeKey[K], V any](n int, at func(i int) (K, V), ep uint64) tree[K, V] {
	height, capacity := 1, maxKeys // capacity: the most keys a tree of height holds
	for capacity < n {
		height, capacity = height+1, maxKeys+(maxKeys+1)*capacity
	}
	next := 0
	var build func(count, height, capacity int) *node[K, V]
	build = func(count, height, capacity int) *node[K, V] {
		if height == 1 {
			nd := &node[K, V]{keys: make([]K, count), vals: make([]slot[V], count), epoch: ep}
			for i := range count {
				k, v := at(next)
				nd.keys[i], nd.vals[i] = k, slot[V]{v, true}
				next++
			}
			return nd
		}
		sub := (capacity - maxKeys) / (maxKeys + 1) // what a child holds at most
		kids := max(2, (count+sub+1)/(sub+1))       // the fewest that hold count
		nd := &node[K, V]{keys: make([]K, kids-1), vals: make([]slot[V], kids-1), kids: make([]*node[K, V], kids), epoch: ep}
		each, extra := (count-(kids-1))/kids, (count-(kids-1))%kids
		for j := range kids {
			size := each
			if j < extra {
				size++
			}
			nd.kids[j] = build(size, height-1, sub)
			if j < kids-1 {
				k, v := at(next)
				nd.keys[j], nd.vals[j] = k, slot[V]{v, true}
				next++
			}
		}
		return nd
	}
	if n == 0 {
		return tree[K, V]{}
	}
	return tree[K, V]{build(n, height, capacity), n}
}

// mut returns n itself when it carries ep, else a copy carrying ep whose
// values are not its own.
func (n *node[K, V]) mut(ep uint64) *node[K, V] {
	if ep != 0 && n.epoch == ep {
		return n
	}
	m := &node[K, V]{keys: slices.Clone(n.keys), vals: slices.Clone(n.vals), epoch: ep}
	for i := range m.vals {
		m.vals[i].own = false
	}
	if n.kids != nil {
		m.kids = slices.Clone(n.kids)
	}
	return m
}

// kid returns n's child i made to carry ep; n already carries it.
func (n *node[K, V]) kid(i int, ep uint64) *node[K, V] {
	c := n.kids[i].mut(ep)
	n.kids[i] = c
	return c
}

// put sets k to v under edit epoch ep.
func (t *tree[K, V]) put(k K, v V, ep uint64) {
	s, _ := t.slot(k, ep)
	*s = slot[V]{v, true}
}

// slot returns k's slot in a node carrying ep, adding an empty one if k is
// absent, and whether k was present. The caller stores into it (setting own
// with its value) before the tree changes again: one descent per update.
func (t *tree[K, V]) slot(k K, ep uint64) (*slot[V], bool) {
	if t.root == nil {
		t.root, t.n = &node[K, V]{keys: []K{k}, vals: make([]slot[V], 1), epoch: ep}, 1
		return &t.root.vals[0], false
	}
	root := t.root.mut(ep)
	if len(root.keys) == maxKeys {
		mk, mv, right := root.split(ep)
		root = &node[K, V]{keys: []K{mk}, vals: []slot[V]{mv}, kids: []*node[K, V]{root, right}, epoch: ep}
	}
	t.root = root
	s, found := root.insert(k, ep)
	if !found {
		t.n++
	}
	return s, found
}

// insert finds or adds k's slot in the subtree of n, which carries ep and
// has room for a key. A full child is split before the descent, so every
// node on the way has room.
func (n *node[K, V]) insert(k K, ep uint64) (*slot[V], bool) {
	i, found := n.search(k)
	if found {
		return &n.vals[i], true
	}
	if n.kids == nil {
		n.keys = slices.Insert(n.keys, i, k)
		n.vals = slices.Insert(n.vals, i, slot[V]{})
		return &n.vals[i], false
	}
	child := n.kid(i, ep)
	if len(child.keys) == maxKeys {
		mk, mv, right := child.split(ep)
		n.keys = slices.Insert(n.keys, i, mk)
		n.vals = slices.Insert(n.vals, i, mv)
		n.kids = slices.Insert(n.kids, i+1, right)
		switch c := k.compare(mk); {
		case c == 0:
			return &n.vals[i], true
		case c > 0:
			child = right
		}
	}
	return child.insert(k, ep)
}

// split moves the upper half of n, which carries ep, to a new node, and
// returns the middle entry, which leaves both.
func (n *node[K, V]) split(ep uint64) (K, slot[V], *node[K, V]) {
	m := len(n.keys) / 2
	right := &node[K, V]{keys: slices.Clone(n.keys[m+1:]), vals: slices.Clone(n.vals[m+1:]), epoch: ep}
	k, s := n.keys[m], n.vals[m]
	clear(n.keys[m:])
	clear(n.vals[m:])
	n.keys, n.vals = n.keys[:m], n.vals[:m]
	if n.kids != nil {
		right.kids = slices.Clone(n.kids[m+1:])
		clear(n.kids[m+1:])
		n.kids = n.kids[:m+1]
	}
	return k, s, right
}

// del removes k under edit epoch ep, if present.
func (t *tree[K, V]) del(k K, ep uint64) {
	if n, _ := t.find(k); n == nil {
		return
	}
	root := t.root.mut(ep)
	root.remove(k, ep)
	switch {
	case len(root.keys) > 0:
	case root.kids != nil:
		root = root.kids[0]
	default:
		root = nil
	}
	t.root = root
	t.n--
}

// remove deletes k, which the subtree of n holds; n carries ep. A child with
// only minKeys keys is grown before the descent, so every node on the way
// can lose one.
func (n *node[K, V]) remove(k K, ep uint64) {
	i, found := n.search(k)
	if n.kids == nil {
		n.keys = slices.Delete(n.keys, i, i+1)
		n.vals = slices.Delete(n.vals, i, i+1)
		return
	}
	if len(n.kids[i].keys) <= minKeys {
		n.grow(i, ep)
		n.remove(k, ep)
		return
	}
	child := n.kid(i, ep)
	if found {
		// The predecessor, the last key under child, takes k's place.
		n.keys[i], n.vals[i] = child.removeMax(ep)
		return
	}
	child.remove(k, ep)
}

// removeMax deletes and returns the last entry under n, which carries ep.
func (n *node[K, V]) removeMax(ep uint64) (K, slot[V]) {
	if n.kids == nil {
		last := len(n.keys) - 1
		k, s := n.keys[last], n.vals[last]
		n.keys = slices.Delete(n.keys, last, last+1)
		n.vals = slices.Delete(n.vals, last, last+1)
		return k, s
	}
	i := len(n.keys)
	if len(n.kids[i].keys) <= minKeys {
		n.grow(i, ep)
		return n.removeMax(ep)
	}
	return n.kid(i, ep).removeMax(ep)
}

// grow gives n's child i, which has minKeys keys, one more: a sibling's
// key, rotated through n, or a merge with a sibling and n's key between
// them. n carries ep.
func (n *node[K, V]) grow(i int, ep uint64) {
	switch {
	case i > 0 && len(n.kids[i-1].keys) > minKeys:
		child, left := n.kid(i, ep), n.kid(i-1, ep)
		last := len(left.keys) - 1
		child.keys = slices.Insert(child.keys, 0, n.keys[i-1])
		child.vals = slices.Insert(child.vals, 0, n.vals[i-1])
		n.keys[i-1], n.vals[i-1] = left.keys[last], left.vals[last]
		left.keys = slices.Delete(left.keys, last, last+1)
		left.vals = slices.Delete(left.vals, last, last+1)
		if left.kids != nil {
			child.kids = slices.Insert(child.kids, 0, left.kids[last+1])
			left.kids = slices.Delete(left.kids, last+1, last+2)
		}
	case i < len(n.keys) && len(n.kids[i+1].keys) > minKeys:
		child, right := n.kid(i, ep), n.kid(i+1, ep)
		child.keys = append(child.keys, n.keys[i])
		child.vals = append(child.vals, n.vals[i])
		n.keys[i], n.vals[i] = right.keys[0], right.vals[0]
		right.keys = slices.Delete(right.keys, 0, 1)
		right.vals = slices.Delete(right.vals, 0, 1)
		if right.kids != nil {
			child.kids = append(child.kids, right.kids[0])
			right.kids = slices.Delete(right.kids, 0, 1)
		}
	default:
		if i == len(n.keys) {
			i--
		}
		child, right := n.kid(i, ep), n.kid(i+1, ep)
		child.keys = append(append(child.keys, n.keys[i]), right.keys...)
		child.vals = append(append(child.vals, n.vals[i]), right.vals...)
		child.kids = append(child.kids, right.kids...)
		n.keys = slices.Delete(n.keys, i, i+1)
		n.vals = slices.Delete(n.vals, i, i+1)
		n.kids = slices.Delete(n.kids, i+1, i+2)
	}
}

// all yields every key and value in key order.
func (t *tree[K, V]) all(yield func(K, V) bool) {
	if t.root != nil {
		t.root.each(yield)
	}
}

// from yields, in key order, every key not before k, with its value.
func (t *tree[K, V]) from(k K, yield func(K, V) bool) {
	if t.root != nil {
		t.root.from(k, yield)
	}
}

func (n *node[K, V]) each(yield func(K, V) bool) bool {
	for i := range n.keys {
		if n.kids != nil && !n.kids[i].each(yield) || !yield(n.keys[i], n.vals[i].val) {
			return false
		}
	}
	return n.kids == nil || n.kids[len(n.keys)].each(yield)
}

func (n *node[K, V]) from(k K, yield func(K, V) bool) bool {
	i, _ := n.search(k)
	if n.kids != nil && !n.kids[i].from(k, yield) {
		return false
	}
	for ; i < len(n.keys); i++ {
		if !yield(n.keys[i], n.vals[i].val) || n.kids != nil && !n.kids[i+1].each(yield) {
			return false
		}
	}
	return true
}

// compare orders refs canonically: by object, then version.
func (r Ref) compare(o Ref) int {
	if c := strings.Compare(string(r.Object), string(o.Object)); c != 0 {
		return c
	}
	return cmp.Compare(r.Version, o.Version)
}

// hashSeed seeds the hashes that order the records index and the postings.
// Only inner orders depend on it (SubjectSeq's among them), never an answer.
var hashSeed = maphash.MakeSeed()

// hash is a 64-bit hash of the ref.
func (r Ref) hash() uint64 {
	h := (maphash.String(hashSeed, string(r.Object)) ^ uint64(r.Version)) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}
