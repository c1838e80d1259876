// Package replica implements the eventually-consistent replicated key-value
// core under the simulated S3 service. (The simulated SimpleDB keeps its own
// per-replica views in internal/cloud/sdb: its writes are attribute-level
// edits applied in order, not whole-value last-writer-wins.)
//
// AWS services "sacrifice perfect consistency and provide eventual
// consistency" (paper §1): a read issued right after a write may be served by
// a replica that has not yet received the update, and concurrent writes
// resolve last-writer-wins. This package models exactly that contract:
//
//   - each write is accepted by one replica immediately and becomes visible
//     at every other replica after an independent random propagation delay;
//   - each read is served by a uniformly chosen replica and observes only
//     the updates that have propagated to it;
//   - among visible updates, the one with the largest (timestamp, sequence)
//     pair wins, so "the last PUT operation is retained" (§2.1).
//
// Because delays are measured on a sim.Clock, tests deterministically provoke
// both the anomaly (read before propagation) and the convergence (advance the
// clock past MaxDelay, after which every replica agrees).
package replica

import (
	"sort"
	"sync"
	"time"

	"passcloud/internal/sim"
)

// Config parameterizes a Store.
type Config struct {
	// Replicas is the number of replicas; values < 1 become 3, the
	// conventional durability factor.
	Replicas int
	// MinDelay and MaxDelay bound the uniform propagation delay from the
	// accepting replica to each other replica. With both zero the store is
	// strongly consistent — useful for benchmarks that are not probing
	// consistency behaviour.
	MinDelay, MaxDelay time.Duration
	// Clock is the time source. Required.
	Clock sim.Clock
	// RNG drives replica choice and delay sampling. Required.
	RNG *sim.RNG
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 3
	}
	if c.MaxDelay < c.MinDelay {
		c.MaxDelay = c.MinDelay
	}
	return c
}

// Store is an eventually-consistent replicated map from string keys to
// immutable values. Values stored must not be mutated afterwards; all
// replicas share the same value pointer.
type Store struct {
	cfg Config

	mu   sync.Mutex
	seq  int64
	keys map[string]*keyState
}

type keyState struct {
	updates []update // ascending seq
}

type update struct {
	seq       int64
	at        time.Time
	visibleAt []time.Time // per replica index
	value     any         // nil means tombstone (delete)
}

// New returns an empty store.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	if cfg.Clock == nil {
		panic("replica: Config.Clock is required")
	}
	if cfg.RNG == nil {
		panic("replica: Config.RNG is required")
	}
	return &Store{cfg: cfg, keys: make(map[string]*keyState)}
}

// Replicas returns the configured replica count.
func (s *Store) Replicas() int { return s.cfg.Replicas }

// MaxDelay returns the configured maximum propagation delay. Advancing the
// clock by more than MaxDelay after the last write guarantees convergence.
func (s *Store) MaxDelay() time.Duration { return s.cfg.MaxDelay }

// Put stores value under key. The value must be treated as immutable by the
// caller from this point on.
func (s *Store) Put(key string, value any) {
	s.apply(key, value)
}

// Delete removes key. Like S3 DELETE it is not an error if the key does not
// exist; deletion propagates like any other update (a tombstone).
func (s *Store) Delete(key string) {
	s.apply(key, nil)
}

func (s *Store) apply(key string, value any) {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	s.seq++
	u := update{
		seq:       s.seq,
		at:        now,
		visibleAt: make([]time.Time, s.cfg.Replicas),
		value:     value,
	}
	accepting := s.cfg.RNG.Intn(s.cfg.Replicas)
	for i := range u.visibleAt {
		if i == accepting {
			u.visibleAt[i] = now
			continue
		}
		u.visibleAt[i] = now.Add(s.delay())
	}

	ks := s.keys[key]
	if ks == nil {
		ks = &keyState{}
		s.keys[key] = ks
	}
	ks.updates = append(ks.updates, u)
	s.compactLocked(ks, now)
}

func (s *Store) delay() time.Duration {
	span := s.cfg.MaxDelay - s.cfg.MinDelay
	if span <= 0 {
		return s.cfg.MinDelay
	}
	return s.cfg.MinDelay + time.Duration(s.cfg.RNG.Int63()%int64(span+1))
}

// compactLocked drops updates that can never again be observed: every update
// older than the newest update that is visible on all replicas. Keeps
// per-key memory bounded no matter how often a key is rewritten.
func (s *Store) compactLocked(ks *keyState, now time.Time) {
	idx := -1
	for i := len(ks.updates) - 1; i >= 0; i-- {
		if fullyVisible(ks.updates[i], now) {
			idx = i
			break
		}
	}
	if idx > 0 {
		ks.updates = append(ks.updates[:0], ks.updates[idx:]...)
	}
}

func fullyVisible(u update, now time.Time) bool {
	for _, t := range u.visibleAt {
		if t.After(now) {
			return false
		}
	}
	return true
}

// Get reads key from a uniformly chosen replica. ok is false if the chosen
// replica has no visible value (never written, not yet propagated, or
// tombstoned).
func (s *Store) Get(key string) (value any, ok bool) {
	r := s.cfg.RNG.Intn(s.cfg.Replicas)
	return s.GetFromReplica(key, r)
}

// GetFromReplica reads key as replica r sees it now. Query engines use a
// fixed replica so one logical query observes a single consistent snapshot.
func (s *Store) GetFromReplica(key string, r int) (value any, ok bool) {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.keys[key]
	if ks == nil {
		return nil, false
	}
	u, found := latestVisible(ks.updates, r, now)
	if !found || u.value == nil {
		return nil, false
	}
	return u.value, true
}

// GetLatest returns the most recent write regardless of propagation — the
// authoritative value that all replicas will eventually converge to. Tests
// and recovery tooling use it; protocol paths must not.
func (s *Store) GetLatest(key string) (value any, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.keys[key]
	if ks == nil || len(ks.updates) == 0 {
		return nil, false
	}
	u := ks.updates[len(ks.updates)-1]
	if u.value == nil {
		return nil, false
	}
	return u.value, true
}

// latestVisible picks the winning update among those visible at replica r:
// the maximum (at, seq). Updates are appended in seq order and timestamps are
// monotone per clock, so scanning from the tail finds it.
func latestVisible(updates []update, r int, now time.Time) (update, bool) {
	for i := len(updates) - 1; i >= 0; i-- {
		if !updates[i].visibleAt[r].After(now) {
			return updates[i], true
		}
	}
	return update{}, false
}

// Keys returns the keys with a visible, non-tombstoned value at a uniformly
// chosen replica, sorted. This models LIST: like any read it may miss
// recent writes and show recently deleted entries.
func (s *Store) Keys() []string {
	r := s.cfg.RNG.Intn(s.cfg.Replicas)
	return s.KeysAtReplica(r)
}

// KeysAtReplica returns the sorted keys visible at replica r.
func (s *Store) KeysAtReplica(r int) []string {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.keys))
	for k, ks := range s.keys {
		if u, ok := latestVisible(ks.updates, r, now); ok && u.value != nil {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len reports the number of keys with a visible value at replica 0. It is a
// cheap convergence probe for tests.
func (s *Store) Len() int {
	return len(s.KeysAtReplica(0))
}

// Converged reports whether every replica currently observes the same value
// for every key — i.e. all propagation horizons have passed.
func (s *Store) Converged() bool {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ks := range s.keys {
		if len(ks.updates) == 0 {
			continue
		}
		if !fullyVisible(ks.updates[len(ks.updates)-1], now) {
			return false
		}
	}
	return true
}
