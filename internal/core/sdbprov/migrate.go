// Arc migration for the SimpleDB-indexed architectures (core.Migrator):
// export decodes matching items to their original record form (plus the
// raw S3 data objects, nonce metadata included, so the §4.2 consistency
// protocol keeps verifying on the destination), import re-encodes them
// through the layer's own write pipeline — the destination's ledger
// mints its own checkpoints over the imported leaves, riding the batch
// writes at zero extra cost, and each shard stays single-writer — and
// removal deletes items, their overflow/spill objects, the moved data
// objects, and the ledger slots, finishing with a fresh checkpoint on
// the ledger item so the source's commitment reflects the departure.
package sdbprov

import (
	"context"
	"errors"
	"fmt"

	"passcloud/internal/cloud/s3"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// arcItem is one exported item: the subject's decoded (original-form)
// records and its consistency record.
type arcItem struct {
	subject prov.Ref
	records []prov.Record
	md5     string
}

// arcData is one exported S3 data object, verbatim: body plus metadata
// (version and consistency nonce).
type arcData struct {
	key  string
	body []byte
	meta map[string]string
}

// arcPayload is the architecture-specific half of a core.ArcExport.
type arcPayload struct {
	items []arcItem
	datas []arcData
}

// ExportArc implements core.Migrator.
func (l *Layer) ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*core.ArcExport, error) {
	exp := &core.ArcExport{}
	payload := &arcPayload{}
	dataObjects := make(map[prov.ObjectID]bool)
	for it, err := range l.items(ctx, false, match) {
		if err != nil {
			return nil, err
		}
		payload.items = append(payload.items, arcItem{subject: it.ref, records: it.records, md5: it.md5})
		exp.Subjects = append(exp.Subjects, it.ref)
		exp.Objects++
		for _, rec := range it.records {
			if rec.Value.Kind == prov.KindString {
				exp.Bytes += int64(len(rec.Value.Str))
			}
		}
		if it.md5 != "" {
			dataObjects[it.ref.Object] = true
		}
	}
	// Data bodies travel verbatim: the nonce in the metadata is what the
	// copied consistency records hash over.
	for _, it := range payload.items {
		if !dataObjects[it.subject.Object] {
			continue
		}
		delete(dataObjects, it.subject.Object) // one object, one data key
		key := core.DataKey(it.subject.Object)
		var obj *s3.Object
		err := l.retrier.Do(ctx, "sdbprov/reshard-data-get", func() error {
			var gerr error
			obj, gerr = l.cfg.Cloud.S3.Get(l.cfg.Bucket, key)
			return gerr
		})
		if err != nil {
			if errors.Is(err, s3.ErrNoSuchKey) {
				continue // an orphaned item's data never landed
			}
			return nil, err
		}
		payload.datas = append(payload.datas, arcData{key: key, body: obj.Body, meta: obj.Metadata})
		exp.Objects++
		exp.Bytes += int64(len(obj.Body))
	}
	exp.Payload = payload
	return exp, nil
}

// ImportArc implements core.Migrator. Records re-encode natively
// (overflow objects re-mint under this layer's bucket) and the batch
// write commits the imported leaves to this layer's own ledger.
func (l *Layer) ImportArc(ctx context.Context, exp *core.ArcExport) error {
	payload, ok := exp.Payload.(*arcPayload)
	if !ok {
		return fmt.Errorf("sdbprov: import of a foreign arc payload (%T)", exp.Payload)
	}
	return l.writes.Own(func() error {
		for _, d := range payload.datas {
			err := l.retrier.Do(ctx, "sdbprov/reshard-data-put", func() error {
				return l.cfg.Cloud.S3.Put(l.cfg.Bucket, d.key, d.body, d.meta)
			})
			if err != nil {
				return fmt.Errorf("sdbprov: reshard data put: %w", err)
			}
		}
		writes := make([]ItemWrite, 0, len(payload.items))
		for _, it := range payload.items {
			encoded, err := l.EncodeValues(ctx, it.subject, it.records, nil)
			if err != nil {
				return err
			}
			w := ItemWrite{Subject: it.subject, Records: encoded, MD5: it.md5}
			if l.ledger != nil {
				w.Leaf = integrity.SubjectHash(it.subject, it.records)
			}
			writes = append(writes, w)
		}
		return l.WriteEncodedBatch(ctx, writes, WritePoints{})
	})
}

// RemoveArc implements core.Migrator.
func (l *Layer) RemoveArc(ctx context.Context, match func(prov.ObjectID) bool) (int, error) {
	removed := 0
	err := l.writes.Own(func() error {
		// Names only: removal fetches no attributes.
		var items []string
		var refs []prov.Ref
		for ref, err := range l.Subjects(ctx, ItemNames) {
			if err != nil {
				return err
			}
			if match(ref.Object) {
				items = append(items, prov.EncodeItemName(ref))
				refs = append(refs, ref)
			}
		}
		// Phantom slots: a ledger entry whose item is already gone (a
		// tampered-away item the Select can no longer surface).
		live := make(map[string]bool, len(items))
		for _, item := range items {
			live[item] = true
		}
		phantoms := l.ledger.Phantoms(live, func(slot string) bool {
			ref, perr := prov.ParseItemName(slot) // the ledger item never parses
			return perr == nil && match(ref.Object)
		})
		for _, slot := range phantoms {
			ref, _ := prov.ParseItemName(slot)
			l.catalog.Forget(ref)
			refs = append(refs, ref)
		}
		if len(items) == 0 && len(phantoms) == 0 {
			return nil
		}
		// Deletions change what queries see even if a later step fails.
		defer l.writes.Bump()
		seenObject := make(map[prov.ObjectID]bool)
		// refs lists the live items, then the phantoms: a phantom's item is
		// gone, but its overflow, spill and data objects may not be.
		for i, ref := range refs {
			// Overflow and spill objects all live under the item's prefix.
			if err := core.DeleteS3Prefix(ctx, l.retrier, l.cfg.Cloud.S3, l.cfg.Bucket, core.ProvKey(ref, "")); err != nil {
				return err
			}
			if i < len(items) {
				err := l.retrier.Do(ctx, "sdbprov/reshard-delete-item", func() error {
					return l.cfg.Cloud.SDB.DeleteAttributes(l.cfg.Domain, items[i], nil)
				})
				if err != nil {
					return fmt.Errorf("sdbprov: reshard delete item: %w", err)
				}
				l.catalog.Forget(ref)
				removed++
			}
			if object := ref.Object; !seenObject[object] {
				seenObject[object] = true
				err := l.retrier.Do(ctx, "sdbprov/reshard-delete-data", func() error {
					return l.cfg.Cloud.S3.Delete(l.cfg.Bucket, core.DataKey(object))
				})
				if err != nil {
					return fmt.Errorf("sdbprov: reshard delete data: %w", err)
				}
			}
		}
		return l.DropFromLedger(ctx, append(items, phantoms...))
	})
	return removed, err
}

var _ core.Migrator = (*Layer)(nil)
