// Arc migration for the S3-only architecture (core.Migrator). Carriers
// move whole: a matching data object exports its body plus every record
// its metadata carries — own records and transient riders alike, since
// this architecture stores riders inside the carrier PUT and they must
// keep homing with it. Import re-encodes each carrier natively
// (overflow and bundle objects re-mint under the destination's bucket)
// and the destination's own ledger commits the carrier leaves via the
// same rider mechanism a normal PUT uses; source checkpoints are never
// copied, so each shard stays single-writer. Removal deletes the moved
// carriers and their referenced spill objects, drops the ledger slots,
// and persists the post-removal commitment on a dedicated marker
// carrier — this architecture has no ledger item, checkpoints only ever
// ride data-prefixed metadata where Audit harvests them.
package s3only

import (
	"context"
	"fmt"
	"iter"
	"strings"

	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// reshardMarker is the carrier that persists the post-removal checkpoint.
const reshardMarker = prov.ObjectID("/.reshard/checkpoint")

// arcCarrier is one exported data object: its body and the decoded
// records (own and foreign) its metadata carried.
type arcCarrier struct {
	ref     prov.Ref
	body    []byte
	own     []prov.Record
	foreign []prov.Record
}

// arcPayload is the architecture-specific half of a core.ArcExport.
type arcPayload struct {
	carriers []arcCarrier
}

// arcCarriers enumerates the carriers whose object ID matches the
// predicate, skipping the reshard marker (writer-local bookkeeping that
// never migrates).
func (s *Store) arcCarriers(ctx context.Context, bodies bool, match func(prov.ObjectID) bool) iter.Seq2[carrier, error] {
	return s.carriers(ctx, bodies, func(object prov.ObjectID) bool {
		return object != reshardMarker && match(object)
	})
}

// ExportArc implements core.Migrator.
func (s *Store) ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*core.ArcExport, error) {
	exp := &core.ArcExport{}
	payload := &arcPayload{}
	seen := make(map[prov.Ref]bool)
	for c, err := range s.arcCarriers(ctx, true, match) {
		if err != nil {
			return nil, err
		}
		ac := arcCarrier{ref: c.ref, body: c.body}
		for _, rec := range c.records {
			if rec.Subject == c.ref {
				ac.own = append(ac.own, rec)
			} else {
				ac.foreign = append(ac.foreign, rec)
			}
			if rec.Value.Kind == prov.KindString {
				exp.Bytes += int64(len(rec.Value.Str))
			}
			if !seen[rec.Subject] {
				seen[rec.Subject] = true
				exp.Subjects = append(exp.Subjects, rec.Subject)
			}
		}
		// The carrier subject itself is part of the arc even when all its
		// records rode elsewhere (a marker carrying only riders).
		if !seen[c.ref] {
			seen[c.ref] = true
			exp.Subjects = append(exp.Subjects, c.ref)
		}
		payload.carriers = append(payload.carriers, ac)
		exp.Objects++
		exp.Bytes += int64(len(c.body))
	}
	exp.Payload = payload
	return exp, nil
}

// ImportArc implements core.Migrator: each carrier re-encodes through
// the store's own metadata pipeline and lands with one PUT carrying
// data, provenance and this store's freshly minted checkpoint rider.
func (s *Store) ImportArc(ctx context.Context, exp *core.ArcExport) error {
	payload, ok := exp.Payload.(*arcPayload)
	if !ok {
		return fmt.Errorf("s3only: import of a foreign arc payload (%T)", exp.Payload)
	}
	defer s.writes.Bump()
	return s.writes.Own(func() error {
		for _, c := range payload.carriers {
			p, err := s.assemble(ctx, c.ref, c.body, c.own, c.foreign)
			if err != nil {
				return err
			}
			if err := s.land(ctx, "s3only/reshard-put", p); err != nil {
				return fmt.Errorf("s3only: reshard put: %w", err)
			}
		}
		return nil
	})
}

// RemoveArc implements core.Migrator.
func (s *Store) RemoveArc(ctx context.Context, match func(prov.ObjectID) bool) (int, error) {
	removed := 0
	err := s.writes.Own(func() error {
		type victim struct {
			key string
			ref prov.Ref
		}
		var victims []victim
		for c, err := range s.arcCarriers(ctx, false, match) {
			if err != nil {
				return err
			}
			victims = append(victims, victim{key: c.key, ref: c.ref})
		}
		// Phantom slots: a ledger entry whose carrier is already gone (a
		// tampered-away object the LIST can no longer surface).
		live := make(map[string]bool, len(victims))
		for _, v := range victims {
			live[v.key] = true
		}
		phantoms := s.ledger.Phantoms(live, func(slot string) bool {
			object := core.ObjectOfKey(slot)
			return strings.HasPrefix(slot, core.DataPrefix) && object != reshardMarker && match(object)
		})
		if len(victims) == 0 && len(phantoms) == 0 {
			return nil
		}
		defer s.writes.Bump()
		forget := func(key string) {
			if s.ledger != nil {
				s.ledger.Remove(key)
			}
			s.catalog.Forget(key)
			s.mu.Lock()
			delete(s.latest, key)
			s.mu.Unlock()
		}
		for _, v := range victims {
			// The carrier's overflow and bundle objects live under its
			// subject's prov/ prefix (foreign riders' spills included —
			// they encode under the carrier subject).
			if err := core.DeleteS3Prefix(ctx, s.retrier, s.cloud.S3, s.bucket, core.ProvKey(v.ref, "")); err != nil {
				return err
			}
			err := s.retrier.Do(ctx, "s3only/reshard-delete", func() error {
				return s.cloud.S3.Delete(s.bucket, v.key)
			})
			if err != nil {
				return fmt.Errorf("s3only: reshard delete: %w", err)
			}
			forget(v.key)
			removed++
		}
		for _, slot := range phantoms {
			forget(slot)
		}
		if s.ledger != nil {
			// Persist the post-removal commitment: without it, the highest
			// surviving rider still commits to the departed leaves and the
			// next audit would flag a root mismatch.
			meta := map[string]string{
				core.MetaVersion:   "0",
				integrity.AttrRoot: s.ledger.Commit(nil).Token(),
			}
			key := core.DataKey(reshardMarker)
			if err := s.putCarrier(ctx, "s3only/reshard-ledger-put", key, []byte{'.'}, meta); err != nil {
				return fmt.Errorf("s3only: reshard ledger put: %w", err)
			}
			s.catalog.Observe(key, 0)
		}
		return nil
	})
	return removed, err
}

var _ core.Migrator = (*Store)(nil)
