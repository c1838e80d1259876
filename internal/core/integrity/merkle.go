package integrity

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"slices"
	"sort"
)

// The commitment is a Merkle set: a path-compressed binary (crit-bit)
// trie over leaf keys. A member's key is SHA-256(0x00‖leaf); an interior
// node, which exists only where two members' keys first differ, hashes to
// SHA-256(0x01‖bit‖left‖right) with bit the differing bit's index. The
// trie's shape is a function of the key set alone, so the root is too:
// insertion order, duplicates and removed members leave no trace. The
// domain bytes keep a member from passing as an interior node.

const (
	leafDomain     = 0x00
	interiorDomain = 0x01
	// rootEmpty is the distinguished root of the empty set.
	rootEmpty = "empty"
)

// leafKey is a member's position in the trie and its leaf hash.
type leafKey [sha256.Size]byte

func hashLeaf[L string | []byte](leaf L) leafKey {
	var buf [96]byte // longer leaves spill to the heap
	buf[0] = leafDomain
	return sha256.Sum256(append(buf[:1], leaf...))
}

func hashInterior(bit uint8, left, right *leafKey) leafKey {
	var buf [2 + 2*sha256.Size]byte
	buf[0], buf[1] = interiorDomain, bit
	copy(buf[2:], left[:])
	copy(buf[2+sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// critBit is the index (0 = most significant bit of byte 0) of the first
// bit where a and b differ, or -1 when they are equal.
func critBit(a, b *leafKey) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return -1
}

func (k *leafKey) bit(i uint8) int { return int(k[i>>3]>>(7-i&7)) & 1 }

func rootString(h *leafKey) string { return hex.EncodeToString(h[:])[:hashHexLen] }

// MerkleRoot commits to a set of subject leaves in one pass: keys are
// sorted once and split recursively at each crit bit, n leaf hashes plus
// n-1 interior hashes. Order and duplicates do not matter; the root equals
// the one a Ledger holding the same set reports.
func MerkleRoot(leaves []string) string {
	keys := make([]leafKey, len(leaves))
	for i, leaf := range leaves {
		keys[i] = hashLeaf(leaf)
	}
	return keysRoot(keys)
}

// keysRoot is MerkleRoot over member keys; it sorts keys in place.
func keysRoot(keys []leafKey) string {
	if len(keys) == 0 {
		return rootEmpty
	}
	slices.SortFunc(keys, func(a, b leafKey) int { return bytes.Compare(a[:], b[:]) })
	h := bulkRoot(slices.Compact(keys))
	return rootString(&h)
}

// bulkRoot hashes a sorted, duplicate-free key run. Sorted keys share
// exactly the prefix the first and last share, so their crit bit is the
// subtrie's, and the keys with that bit clear form a prefix of the run.
func bulkRoot(keys []leafKey) leafKey {
	if len(keys) == 1 {
		return keys[0]
	}
	bit := uint8(critBit(&keys[0], &keys[len(keys)-1]))
	split := sort.Search(len(keys), func(i int) bool { return keys[i].bit(bit) == 1 })
	left, right := bulkRoot(keys[:split]), bulkRoot(keys[split:])
	return hashInterior(bit, &left, &right)
}

// node is a trie node. A member (child[0] == nil) carries its key in hash
// and the number of slots holding it in refs; an interior node carries its
// crit bit and both children, and hash caches hashInterior over them.
type node struct {
	hash  leafKey
	child [2]*node
	refs  uint32
	bit   uint8
}

func (n *node) member() bool { return n.child[0] == nil }

func (n *node) rehash() { n.hash = hashInterior(n.bit, &n.child[0].hash, &n.child[1].hash) }

// merkleSet is the incrementally maintained counterpart of MerkleRoot: a
// multiset of keys whose root commits to the distinct ones. add and
// release rehash only the nodes on the changed key's path — about log2 n
// of them, since keys are uniform hashes.
type merkleSet struct {
	top *node
	// distinct counts members.
	distinct int
}

func (s *merkleSet) root() string {
	if s.top == nil {
		return rootEmpty
	}
	return rootString(&s.top.hash)
}

// find returns the member key's descent ends at: key itself when it is
// in the set, otherwise some member sharing key's longest in-set prefix.
func (s *merkleSet) find(key *leafKey) *node {
	n := s.top
	for n != nil && !n.member() {
		n = n.child[key.bit(n.bit)]
	}
	return n
}

// add takes one more reference on key, inserting it on the first.
func (s *merkleSet) add(key *leafKey) {
	near := s.find(key)
	if near == nil {
		s.top = &node{hash: *key, refs: 1}
		s.distinct++
		return
	}
	crit := critBit(key, &near.hash)
	if crit < 0 {
		near.refs++
		return
	}
	s.top = s.top.insert(key, uint8(crit))
	s.distinct++
}

// insert splices key, whose first difference from the subtrie's members
// is at bit crit, in above the first node that discriminates on a later
// bit, and rehashes the path back up.
func (n *node) insert(key *leafKey, crit uint8) *node {
	if n.member() || n.bit > crit {
		in := &node{bit: crit}
		side := key.bit(crit)
		in.child[side] = &node{hash: *key, refs: 1}
		in.child[1-side] = n
		in.rehash()
		return in
	}
	side := key.bit(n.bit)
	n.child[side] = n.child[side].insert(key, crit)
	n.rehash()
	return n
}

// release drops one reference on key, which must be held, deleting the
// member on the last.
func (s *merkleSet) release(key *leafKey) {
	if m := s.find(key); m.refs > 1 {
		m.refs--
		return
	}
	s.top = s.top.remove(key)
	s.distinct--
}

// remove unlinks member key: its parent collapses into the sibling.
func (n *node) remove(key *leafKey) *node {
	if n.member() {
		return nil
	}
	side := key.bit(n.bit)
	kept := n.child[side].remove(key)
	if kept == nil {
		return n.child[1-side]
	}
	n.child[side] = kept
	n.rehash()
	return n
}
