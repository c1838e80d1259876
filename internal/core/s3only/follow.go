// Own-write following for the S3-only snapshot (qcache.Cache.Follow): a
// write section that succeeded and moved the stamp by exactly its bump and
// its own acknowledged S3 mutations hands the cache the carriers it landed,
// and the next read patches the snapshot with them through the carrierIndex
// the scan built. The client knows exactly what it PUT, so only another
// writer's write, or a write of its own that did not settle cleanly, costs
// the next query a scan.
package s3only

import (
	"fmt"
	"slices"

	"passcloud/internal/core"
	"passcloud/internal/core/qcache"
	"passcloud/internal/prov"
)

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

// Room implements qcache.Patcher: as many landed carriers as the snapshot
// was built from; past that, a patch applies more carriers than a scan reads.
func (x *carrierIndex) Room() int {
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

// Patch implements qcache.Patcher: the snapshot with the landed carriers
// applied. Later landings of a key supersede earlier ones; distinct keys
// commute. Only the subjects the carriers touch are rebuilt; readers of the
// old snapshot are undisturbed (prov.Graph.Replace).
func (x *carrierIndex) Patch(base *prov.Graph, deltas []any) *prov.Graph {
	x.index()
	latest := make(map[string][]prov.Record, len(deltas))
	for _, d := range deltas {
		c := d.(landed)
		latest[c.key] = c.records
	}
	touched := make(map[prov.Ref][]prov.Record)
	for key, records := range latest {
		x.replace(key, bySubject(records), touched)
	}
	for ref := range touched {
		touched[ref] = x.records(ref)
	}
	return base.Replace(touched)
}

// landedPuts is what a write section's landed carrier PUTs hand the
// snapshot: each one data PUT plus its overflow and bundle PUTs, decoded
// only if they extend it.
func landedPuts(puts []dataPut) qcache.Landed {
	var mutations uint64
	for _, p := range puts {
		mutations += 1 + uint64(len(p.stored))
	}
	return qcache.Landed{Mutations: mutations, Deltas: func() ([]any, error) {
		deltas := make([]any, len(puts))
		for i, p := range puts {
			var err error
			if deltas[i], err = decodeLanded(p); err != nil {
				return nil, err
			}
		}
		return deltas, nil
	}}
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
