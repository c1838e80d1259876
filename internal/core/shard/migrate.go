// Ring reassignment and the migration double-read window: the router
// half of elastic resharding. The reshard controller (shard/reshard)
// drives the protocol — copy the moving arc, verify it against the
// integrity ledgers, flip the ring — through the surface here; the
// router's job is to keep every query path bit-identical while both
// copies of the arc exist.
//
// The window has two states. Before the flip the old ring is active: the
// source shard is authoritative for the arc and the destination's
// freshly imported copy is excluded from fan-ins, rounds (on the members
// or on their graphs) and provenance probes. FlipRing atomically swaps the
// assignment and advances the ring epoch; the destination becomes
// authoritative (the active ring now routes there) and the source's
// stale copy is excluded until EndMigration confirms its removal.
// Exclusion is keyed by the exact exported subject set — transient
// riders home with their carrier, not with their own hash — so the
// filter and the copy always agree on what moved.
package shard

import (
	"fmt"
	"sort"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// migration is the published double-read window state. Values are
// immutable once published under Router.mig; transitions replace the
// pointer.
type migration struct {
	// flipped is false while the old ring is active (exclude the
	// destination's copy), true between FlipRing and EndMigration
	// (exclude the source's stale copy).
	flipped  bool
	src, dst int
	// moved is the exported subject set's objects: every object whose
	// records travel with the arc, transient riders included.
	moved map[prov.ObjectID]bool
}

// migSnapshot reads the current migration window, nil when idle.
func (r *Router) migSnapshot() *migration {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	return r.mig
}

// excluded reports whether shard i's copy of object is the
// non-authoritative side of the window.
func (m *migration) excluded(i int, object prov.ObjectID) bool {
	if m == nil || !m.moved[object] {
		return false
	}
	if m.flipped {
		return i == m.src
	}
	return i == m.dst
}

// filterEntries drops shard i's entries for subjects whose copy on i is
// non-authoritative. Outside a migration window it returns entries
// unchanged without allocating.
func (m *migration) filterEntries(i int, entries []core.Entry) []core.Entry {
	if m == nil || (i != m.src && i != m.dst) {
		return entries
	}
	kept := entries[:0]
	for _, e := range entries {
		if !m.excluded(i, e.Ref.Object) {
			kept = append(kept, e)
		}
	}
	return kept
}

// RingEpoch returns the number of ring reassignments this router has
// performed. Zero means the boot assignment is still active.
func (r *Router) RingEpoch() int {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	return r.epoch
}

// Migrating reports whether a double-read window is open.
func (r *Router) Migrating() bool { return r.migSnapshot() != nil }

// Assignment returns the current owner of every ring point, in ring
// order. Ring point hashes never change after New, so an assignment
// edited by index and passed to FlipRing describes a reassignment of
// the same virtual nodes.
func (r *Router) Assignment() []int {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	owners := make([]int, len(r.ring))
	for i, p := range r.ring {
		owners[i] = p.shard
	}
	return owners
}

// OwnerIn places object under a hypothetical assignment (one owner per
// ring point, in ring order) without touching the active ring — the
// planner's and the moved-arc predicate's placement primitive.
func (r *Router) OwnerIn(assign []int, object prov.ObjectID) int {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	h := hash64(string(object))
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return assign[i]
}

// validAssignment checks a target assignment's shape.
func (r *Router) validAssignment(assign []int) error {
	if len(assign) != len(r.ring) {
		return fmt.Errorf("shard: assignment has %d owners, ring has %d points", len(assign), len(r.ring))
	}
	for _, owner := range assign {
		if owner < 0 || owner >= len(r.shards) {
			return fmt.Errorf("shard: assignment owner %d out of range [0,%d)", owner, len(r.shards))
		}
	}
	return nil
}

// BeginMigration opens the double-read window for an arc moving from
// src to dst: subjects' objects are excluded from dst reads until the
// flip. Call it after the arc is exported and before it is imported, so
// no query ever sees the destination's partial copy.
func (r *Router) BeginMigration(src, dst int, subjects []prov.Ref) error {
	if src == dst || src < 0 || dst < 0 || src >= len(r.shards) || dst >= len(r.shards) {
		return fmt.Errorf("shard: invalid migration %d -> %d", src, dst)
	}
	moved := make(map[prov.ObjectID]bool, len(subjects))
	for _, ref := range subjects {
		moved[ref.Object] = true
	}
	r.ringMu.Lock()
	if r.mig != nil {
		r.ringMu.Unlock()
		return fmt.Errorf("shard: migration already active (%d -> %d)", r.mig.src, r.mig.dst)
	}
	r.mig = &migration{src: src, dst: dst, moved: moved}
	r.ringMu.Unlock()
	r.dropDerived()
	return nil
}

// FlipRing atomically applies the target assignment and advances the
// ring epoch. Inside a migration window the cutover moves authority to
// the destination in the same step: the active ring now routes the arc
// to dst, and the window flips to excluding the source's stale copy.
func (r *Router) FlipRing(target []int) error {
	r.ringMu.Lock()
	if err := r.validAssignment(target); err != nil {
		r.ringMu.Unlock()
		return err
	}
	for i := range r.ring {
		r.ring[i].shard = target[i]
	}
	r.epoch++
	if r.mig != nil {
		flipped := *r.mig
		flipped.flipped = true
		r.mig = &flipped
	}
	r.ringMu.Unlock()
	r.dropDerived()
	return nil
}

// EndMigration closes the window after the source's stale copy is
// removed: reads stop filtering and the ring alone decides placement.
func (r *Router) EndMigration() {
	r.ringMu.Lock()
	r.mig = nil
	r.ringMu.Unlock()
	r.dropDerived()
}

// AbortMigration closes the window without a flip — the rollback path
// after the destination's partial or failed copy is removed. The old
// ring never stopped being active, so reads converge to fully-unmoved.
func (r *Router) AbortMigration() {
	r.ringMu.Lock()
	r.mig = nil
	r.ringMu.Unlock()
	r.dropDerived()
}

// dropDerived invalidates, at a migration state transition, what the
// router derived under the state before it: every remembered answer. The
// members' own snapshots stay: they are raw and stamp-keyed, and the window
// filters the rounds run on them.
func (r *Router) dropDerived() {
	r.memo.mu.Lock()
	r.memo.vals = nil
	r.memo.mu.Unlock()
}
