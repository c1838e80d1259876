package s3only

import (
	"fmt"
	"slices"
	"sync"

	"passcloud/internal/core"
	"passcloud/internal/core/qcache"
	"passcloud/internal/prov"
)

// follower lets the snapshot follow this client's own writes instead of
// being dropped by them. It holds a chain: the last snapshot the store built
// (by scan or by patch), the per-carrier index it was built from, the carriers
// this client landed since, and the stamp the snapshot reaches once they are
// applied. A write section extends the chain only when it moved the stamp by
// exactly its own acknowledged mutations; a foreign write, an ack-lost retry,
// a failed batch, a migration or a concurrent section of this client leaves
// the chain behind the stamp, and the next read scans.
//
// Only strongly consistent regions follow (no patching under a propagation
// delay: a patched snapshot would be fresher than any scan there).
type follower struct {
	mu   sync.Mutex
	base *prov.Graph // nil: no chain, the next read scans
	at   qcache.Stamp
	idx  *carrierIndex
	// pending lists the carriers landed since base, in landing order.
	pending []landed
}

// landed is one carrier as this client PUT it: its key and its records,
// decoded from the exact metadata the PUT carried (grouped by subject only
// when applied, off the close path).
type landed struct {
	key     string
	records []prov.Record
}

// carrierIndex is what a snapshot was built from. A scan only lists the
// carriers it read (their entries, in LIST key order); the first patch turns
// that list into the index a patch edits — every carrier's entries by key,
// and for each subject the keys of the carriers holding its records, in key
// order (the order a scan concatenates them in). So a scan no patch follows,
// as under another writer, pays one append per carrier and no map.
type carrierIndex struct {
	scanned []carrierEntries
	byKey   map[string][]core.Entry
	homes   map[prov.Ref][]string
}

type carrierEntries struct {
	key     string
	entries []core.Entry
}

// add lists one carrier; a scan adds them in key order. Nil-safe.
func (x *carrierIndex) add(key string, entries []core.Entry) {
	if x == nil {
		return
	}
	x.scanned = append(x.scanned, carrierEntries{key, entries})
}

// carriers is the number of carriers the snapshot was built from.
func (x *carrierIndex) carriers() int {
	if x.byKey == nil {
		return len(x.scanned)
	}
	return len(x.byKey)
}

// index builds byKey and homes from the scanned list, once.
func (x *carrierIndex) index() {
	if x.byKey != nil {
		return
	}
	x.byKey = make(map[string][]core.Entry, len(x.scanned))
	x.homes = make(map[prov.Ref][]string)
	for _, c := range x.scanned {
		x.byKey[c.key] = c.entries
		for _, e := range c.entries {
			x.homes[e.Ref] = append(x.homes[e.Ref], c.key)
		}
	}
	x.scanned = nil
}

// replace swaps key's whole contribution for entries and adds the subjects
// either one holds to touched: an overwrite drops the old carrier's own
// records and its riders, as a scan would.
func (x *carrierIndex) replace(key string, entries []core.Entry, touched map[prov.Ref][]prov.Record) {
	for _, e := range x.byKey[key] {
		touched[e.Ref] = nil
		homes := x.homes[e.Ref]
		if i := slices.Index(homes, key); i >= 0 {
			homes = slices.Delete(homes, i, i+1)
		}
		if len(homes) == 0 {
			delete(x.homes, e.Ref)
		} else {
			x.homes[e.Ref] = homes
		}
	}
	for _, e := range entries {
		touched[e.Ref] = nil
		homes := x.homes[e.Ref]
		if i, found := slices.BinarySearch(homes, key); !found {
			x.homes[e.Ref] = slices.Insert(homes, i, key)
		}
	}
	x.byKey[key] = entries
}

// records is ref's records as a scan would collect them: its pieces from
// every carrier holding it, in key order.
func (x *carrierIndex) records(ref prov.Ref) []prov.Record {
	homes := x.homes[ref]
	var out []prov.Record
	for _, key := range homes {
		for _, e := range x.byKey[key] {
			if e.Ref != ref {
				continue
			}
			if len(homes) == 1 {
				return e.Records
			}
			out = append(out, e.Records...)
		}
	}
	return out
}

// current reports whether the chain reaches now: the snapshot at now is the
// base with the pending carriers applied. The one test behind the read
// (advance) and the plan (Explain). Nil-safe.
func (f *follower) current(now qcache.Stamp) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base != nil && f.at == now
}

// newIndex is the index a scan fills for rebase: nil when nothing follows.
func (f *follower) newIndex() *carrierIndex {
	if f == nil {
		return nil
	}
	return &carrierIndex{}
}

// rebase starts a new chain at a scanned snapshot, if the stamp did not move
// while the scan ran; else there is no chain. Nil-safe.
func (f *follower) rebase(start, end qcache.Stamp, g *prov.Graph, idx *carrierIndex) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.base, f.pending = nil, nil
	if start == end {
		f.base, f.at, f.idx = g, start, idx
	}
}

// extend appends one write section's landed carriers to the chain. The
// section sampled before at its start and after once its own generation bump
// was in; mutations counts the S3 mutations it issued that returned success.
// The chain reaches after only if it ended at before and the stamp moved by
// the bump and those mutations alone — else it is dropped. The carriers are
// decoded only when they extend a chain. If the pending carriers then
// outnumber the snapshot's, the chain is dropped too: past that point a
// patch applies more carriers than a scan reads.
func (f *follower) extend(before, after qcache.Stamp, mutations uint64, decode func() ([]landed, error)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	want := qcache.Stamp{Gen: before.Gen + 1 + mutations, Epoch: before.Epoch}
	if f.base == nil || f.at != before || after != want {
		f.base, f.pending = nil, nil
		return
	}
	carriers, err := decode()
	if err != nil || len(f.pending)+len(carriers) > f.idx.carriers() {
		f.base, f.pending = nil, nil
		return
	}
	f.pending = append(f.pending, carriers...)
	f.at = after
}

// advance returns the snapshot at now — the base with the pending carriers
// applied, which becomes the new base — or nil, dropping the chain, when the
// chain does not reach now. Only the subjects the carriers touch are rebuilt;
// readers of the old base are undisturbed (prov.Graph.Replace). Nil-safe.
func (f *follower) advance(now qcache.Stamp) *prov.Graph {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.base == nil || f.at != now {
		f.base, f.pending = nil, nil
		return nil
	}
	if len(f.pending) == 0 {
		return f.base
	}
	f.idx.index()
	// Later landings of a key supersede earlier ones; distinct keys commute.
	latest := make(map[string][]prov.Record, len(f.pending))
	for _, c := range f.pending {
		latest[c.key] = c.records
	}
	touched := make(map[prov.Ref][]prov.Record)
	for key, records := range latest {
		f.idx.replace(key, bySubject(records), touched)
	}
	for ref := range touched {
		touched[ref] = f.idx.records(ref)
	}
	f.base, f.pending = f.base.Replace(touched), nil
	return f.base
}

// followWrites carries the snapshot along one of this client's write
// sections that succeeded and moved the stamp once (its generation bump,
// already in): puts are the carriers it landed, each one data PUT plus its
// overflow and bundle PUTs. The chain extends only if nothing else moved the
// stamp since before was sampled (follower.extend).
func (s *Store) followWrites(before qcache.Stamp, puts []dataPut) {
	if s.follow == nil {
		return
	}
	var mutations uint64
	for _, p := range puts {
		mutations += 1 + uint64(len(p.stored))
	}
	s.follow.extend(before, s.stamp(), mutations, func() ([]landed, error) {
		carriers := make([]landed, len(puts))
		for i, p := range puts {
			var err error
			if carriers[i], err = decodeLanded(p); err != nil {
				return nil, err
			}
		}
		return carriers, nil
	})
}

// decodeLanded decodes one landed carrier from the exact metadata it was PUT
// with, through the one codec a scan uses (prov.DecodeS3Metadata, then
// core.ResolveRecords), its overflow and bundle objects read from the bodies
// the same assembly PUT.
func decodeLanded(p dataPut) (landed, error) {
	records, err := prov.DecodeS3Metadata(p.ref, p.meta)
	if err != nil {
		return landed{}, err
	}
	records, err = core.ResolveRecords(records, p.meta[metaOverflow], func(key string) ([]byte, error) {
		body, ok := p.stored[key]
		if !ok {
			return nil, fmt.Errorf("s3only: %s was not written with %s", key, p.key)
		}
		return body, nil
	})
	if err != nil {
		return landed{}, err
	}
	return landed{key: p.key, records: records}, nil
}
