// Package s3sdb implements the paper's second architecture (§4.2,
// Figure 2): data in S3, provenance in SimpleDB. SimpleDB's automatic
// indexing buys efficient queries; what the architecture gives up is
// atomicity — "a client crashes after storing the provenance of object on
// SimpleDB but before storing the object on S3. Clearly atomicity is
// violated here as provenance is recorded but not the data."
//
// The write protocol follows §4.2 exactly:
//
//  1. convert each provenance record into attribute-value pairs; values
//     above 1 KB go to S3 objects with pointers left behind;
//  2. add the MD5(data‖nonce) consistency record;
//  3. store the item with (possibly several) PutAttributes calls;
//  4. PUT the data to S3 with the nonce in its metadata.
//
// Consistency survives eventual consistency because reads verify the MD5
// and reissue until data and provenance agree (sdbprov.VerifiedGet).
// Recovery from the atomicity hole is the inelegant full-domain orphan scan
// the paper describes — implemented here as OrphanScan so the cost is
// measurable.
package s3sdb

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Points are the store's crash points, in protocol order, the ones it
// passes the SimpleDB layer included. Its windows are where Table 1's
// atomicity check crashes the client.
var Points sim.Points

// The crash points: before a batch, after its provenance items land (the
// §4.2 atomicity hole), after each BatchPutAttributes group, after each data
// PUT, and the layer's overflow, spill and chunk steps.
var (
	PointBeforePut        = Points.Declare("s3sdb/before-put")
	PointAfterProv        = Points.DeclareWindow("s3sdb/after-prov")
	PointAfterBatchPut    = Points.DeclareWindow("s3sdb/after-batchput")
	PointAfterData        = Points.Declare("s3sdb/after-data")
	PointAfterOverflowPut = Points.Declare("s3sdb/after-overflow-put")
	PointAfterSpillPut    = Points.Declare("s3sdb/after-spill-put")
	PointAfterChunk       = Points.Declare("s3sdb/after-putattrs-chunk")
)

// Config parameterizes the store.
type Config struct {
	// Cloud supplies S3 and SimpleDB. Required.
	Cloud *cloud.Cloud
	// Bucket and Domain follow sdbprov defaults when empty.
	Bucket string
	Domain string
	// Faults optionally injects client crashes at protocol points.
	Faults *sim.FaultPlan
	// DisableQueryCache turns off the sdbprov layer's generation-stamped
	// query cache, restoring the paper's one-query-run-per-call costs.
	DisableQueryCache bool
	// Retry bounds the transient-error backoff around every cloud call.
	Retry retry.Policy
	// Writer identifies this client in integrity checkpoints (default "w").
	Writer string
	// DisableIntegrity turns off the Merkle ledger and checkpoint riders —
	// the op-count parity baseline.
	DisableIntegrity bool
}

// Store is the S3+SimpleDB architecture: the write protocol and its
// recovery scan here, everything else the embedded read side.
type Store struct {
	sdbprov.ReadSide
	cloud  *cloud.Cloud
	faults *sim.FaultPlan

	mu sync.Mutex
	// latest tracks the highest version this client has successfully PUT
	// per object. Partial-batch recovery can reorder flushes across
	// retries; an older pending version retried after a newer one landed
	// must not overwrite the newer data (its provenance item is still
	// written — items are per-version).
	latest map[prov.ObjectID]prov.Version
}

// New builds the store, creating its bucket and domain if needed.
func New(cfg Config) (*Store, error) {
	if cfg.Cloud == nil {
		return nil, errors.New("s3sdb: Config.Cloud is required")
	}
	layer, err := sdbprov.New(sdbprov.Config{
		Cloud:             cfg.Cloud,
		Bucket:            cfg.Bucket,
		Domain:            cfg.Domain,
		Faults:            cfg.Faults,
		DisableQueryCache: cfg.DisableQueryCache,
		Retry:             cfg.Retry,
		Writer:            cfg.Writer,
		DisableIntegrity:  cfg.DisableIntegrity,
	})
	if err != nil {
		return nil, err
	}
	return &Store{ReadSide: sdbprov.NewReadSide(layer, archName), cloud: cfg.Cloud,
		faults: cfg.Faults, latest: make(map[prov.ObjectID]prov.Version)}, nil
}

const archName = "s3+sdb"

// Name implements core.Store.
func (s *Store) Name() string { return archName }

// Properties implements core.Store: Table 1 row 2. No atomicity.
func (s *Store) Properties() core.Properties {
	return core.Properties{
		Atomicity:      false,
		Consistency:    true,
		CausalOrdering: true,
		EfficientQuery: true,
	}
}

// PutBatch implements core.Store with the §4.2 protocol, batch-first: the
// whole batch's provenance items go to SimpleDB via grouped
// BatchPutAttributes calls (steps 1–3, ⌈K/25⌉ calls for K small items
// instead of K), then each file version's data is PUT to S3 with its nonce
// (step 4 — S3 has no batch PUT). The atomicity hole widens with the
// batch, exactly as the architecture predicts: a crash between the two
// phases now strands a batch of provenance without data.
//
// Cloud calls retry transient errors with backoff (both phases are
// idempotent under re-apply). A batch that still half-lands fails with a
// typed core.PartialWriteError naming the fully persisted events: transient
// subjects once their provenance landed (they carry no data), file versions
// only once their data PUT landed — provenance-without-data is the orphan
// shape, repaired by the caller's retry or the OrphanScan, never reported
// as durable.
func (s *Store) PutBatch(ctx context.Context, batch []pass.FlushEvent) error {
	return s.Layer().Writes().Own(func() error { return s.putBatch(ctx, batch) })
}

func (s *Store) putBatch(ctx context.Context, batch []pass.FlushEvent) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Invalidate cached query snapshots even when the batch fails partway:
	// the provenance phase's effects may already be visible to queries.
	defer s.Layer().Writes().Bump()
	if err := s.faults.Check(PointBeforePut); err != nil {
		return err
	}

	// Steps 1–2: encode values (>1 KB records go to S3 now) and compute
	// the MD5(data‖nonce) consistency record for every file version.
	// "the nonce is typically the file version" — plus entropy so a
	// re-put of the same version is still distinguishable.
	type dataPut struct {
		ev    pass.FlushEvent
		nonce string
	}
	writes := make([]sdbprov.ItemWrite, 0, len(batch))
	var datas []dataPut
	for _, ev := range batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		var md5hex, nonce string
		if ev.Persistent() {
			nonce = strconv.Itoa(int(ev.Ref.Version)) + "-" + s.cloud.RNG.Hex(4)
			md5hex = sdbprov.ConsistencyMD5(ev.Data, nonce)
			datas = append(datas, dataPut{ev: ev, nonce: nonce})
		}
		// The integrity leaf hashes the ORIGINAL record set — the form a
		// verifier re-derives after decoding pointers and escapes.
		var leaf string
		if s.Layer().IntegrityEnabled() {
			leaf = integrity.SubjectHash(ev.Ref, ev.Records)
		}
		encoded, err := s.Layer().EncodeValues(ctx, ev.Ref, ev.Records, PointAfterOverflowPut)
		if err != nil {
			return err
		}
		writes = append(writes, sdbprov.ItemWrite{Subject: ev.Ref, Records: encoded, MD5: md5hex, Leaf: leaf})
	}

	// landed maps provenance-phase progress to fully persisted events:
	// transient subjects are durable once their item lands; files need
	// their data PUT too.
	transientLanded := func(provLanded []prov.Ref) []prov.Ref {
		persistent := make(map[prov.Ref]bool, len(datas))
		for _, d := range datas {
			persistent[d.ev.Ref] = true
		}
		var out []prov.Ref
		for _, ref := range provLanded {
			if !persistent[ref] {
				out = append(out, ref)
			}
		}
		return out
	}

	// Step 3: the batch's provenance (and MD5 records) into SimpleDB.
	if err := s.Layer().WriteEncodedBatch(ctx, writes, sdbprov.WritePoints{
		AfterSpillPut: PointAfterSpillPut, AfterChunk: PointAfterChunk, AfterBatchPut: PointAfterBatchPut,
	}); err != nil {
		var pw *core.PartialWriteError
		if errors.As(err, &pw) {
			// Re-scope the landed set from provenance items to full events
			// before the error escapes: a file whose item landed without
			// its data is an orphan, not a durable event. The inner error
			// (item-level refs) must not leak to the flush layer.
			return &core.PartialWriteError{Landed: transientLanded(pw.Landed), Err: pw.Err}
		}
		return err
	}
	allProv := make([]prov.Ref, 0, len(writes))
	for _, w := range writes {
		allProv = append(allProv, w.Subject)
	}

	// The atomicity hole: a crash here leaves provenance without data.
	if err := s.faults.Check(PointAfterProv); err != nil {
		return core.PartialWrite(transientLanded(allProv), err)
	}

	// Step 4: each data PUT carries its nonce in its metadata. Landed
	// events accumulate transients (durable since step 3) plus each file
	// version whose PUT completes.
	landed := transientLanded(allProv)
	for _, d := range datas {
		if err := ctx.Err(); err != nil {
			return core.PartialWrite(landed, err)
		}
		s.mu.Lock()
		stale := s.latest[d.ev.Ref.Object] > d.ev.Ref.Version
		s.mu.Unlock()
		if stale {
			// A newer version already landed (flush reordering across
			// retries): PUTting this one would regress the object. Its
			// provenance item landed in step 3, and the data key
			// deliberately stays at the newer version — the event is
			// complete.
			landed = append(landed, d.ev.Ref)
			continue
		}
		meta := map[string]string{
			core.MetaNonce:   d.nonce,
			core.MetaVersion: strconv.Itoa(int(d.ev.Ref.Version)),
		}
		err := s.Layer().Retrier().Do(ctx, "s3sdb/data-put", func() error {
			return s.cloud.S3.Put(s.Layer().Bucket(), core.DataKey(d.ev.Ref.Object), d.ev.Data, meta)
		})
		if err != nil {
			return core.PartialWrite(landed, fmt.Errorf("s3sdb: data put: %w", err))
		}
		s.mu.Lock()
		if d.ev.Ref.Version > s.latest[d.ev.Ref.Object] {
			s.latest[d.ev.Ref.Object] = d.ev.Ref.Version
		}
		s.mu.Unlock()
		landed = append(landed, d.ev.Ref)
		if err := s.faults.Check(PointAfterData); err != nil {
			return core.PartialWrite(landed, err)
		}
	}
	return nil
}

// OrphanScan is the §4.2 recovery path: "On restart, the client could
// recover by scanning SimpleDB for 'orphan provenance' and remove
// provenance of objects that do not exist. However, this is an inelegant
// solution as it involves a scan of the entire SimpleDB domain."
//
// An item is an orphan when it carries a consistency record (so it
// described file data) but S3 holds no data at or beyond that version.
// Candidates are double-checked after waiting out the propagation horizon
// before anything is deleted: a freshly written object served from a stale
// replica must not get its provenance reaped (deleting live provenance is
// strictly worse than tolerating an orphan for one more scan).
// Returns the refs whose provenance was removed.
func (s *Store) OrphanScan(ctx context.Context) (refs []prov.Ref, err error) {
	err = s.Layer().Writes().Own(func() error {
		refs, err = s.orphanScan(ctx)
		return err
	})
	return refs, err
}

func (s *Store) orphanScan(ctx context.Context) ([]prov.Ref, error) {
	// Deletions below change query results behind the layer's back.
	defer s.Layer().Writes().Bump()

	// Pass 1: collect candidates without deleting anything.
	var candidates []prov.Ref
	for ref, err := range s.Layer().Subjects(ctx, sdbprov.AttrMD5) {
		if err != nil {
			return nil, err
		}
		orphan, err := s.isOrphan(ref)
		if err != nil {
			return nil, err
		}
		if orphan {
			candidates = append(candidates, ref)
		}
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	// Pass 2: wait for the region to converge, re-verify, then delete only
	// confirmed orphans.
	s.Layer().ConsistencyWait()
	var orphans []prov.Ref
	for _, ref := range candidates {
		if err := ctx.Err(); err != nil {
			return orphans, err
		}
		orphan, err := s.isOrphan(ref)
		if err != nil {
			return orphans, err
		}
		if !orphan {
			continue
		}
		item := prov.EncodeItemName(ref)
		if err := s.Layer().Retrier().Do(ctx, "s3sdb/orphan-delete", func() error {
			return s.cloud.SDB.DeleteAttributes(s.Layer().Domain(), item, nil)
		}); err != nil {
			return orphans, err
		}
		orphans = append(orphans, ref)
	}
	if len(orphans) > 0 {
		// The deletions changed the committed record set: retire the
		// orphans' leaves and re-persist the checkpoint so the verifier
		// sees a legitimate removal, not tampering.
		items := make([]string, len(orphans))
		for i, ref := range orphans {
			items[i] = prov.EncodeItemName(ref)
		}
		if err := s.Layer().DropFromLedger(ctx, items); err != nil {
			return orphans, err
		}
	}
	return orphans, nil
}

// isOrphan checks whether a persistent item's data is missing or older than
// the provenance claims.
func (s *Store) isOrphan(ref prov.Ref) (bool, error) {
	info, err := s.cloud.S3.Head(s.Layer().Bucket(), core.DataKey(ref.Object))
	if err != nil {
		if errors.Is(err, s3.ErrNoSuchKey) {
			return true, nil
		}
		return false, err
	}
	ver, err := core.StoredVersion(info.Metadata)
	if err != nil {
		return true, nil // data without version metadata cannot back an item
	}
	return ver < ref.Version, nil
}

var (
	_ core.Store        = (*Store)(nil)
	_ core.Querier      = (*Store)(nil)
	_ core.GraphQuerier = (*Store)(nil)
)
