// Package sdbprov is the SimpleDB provenance layer shared by the paper's
// second and third architectures (§4.2, §4.3): provenance lives in SimpleDB
// — one item per object version, one attribute-value pair per record — and
// data lives in S3, with an MD5-of-data-plus-nonce record tying the two
// together for consistency verification.
//
// The layer implements:
//
//   - the item encoding of §4.2 (ItemName=foo_2; input=bar:2; type=file),
//     with values above 1 KB diverted to S3 objects and referenced by
//     pointer ("We store any provenance values larger than the 1KB SimpleDB
//     limit as separate S3 objects, referenced from SimpleDB");
//   - chunked PutAttributes ("Since SimpleDB allows us to store only 100
//     attributes per call, we might have to issue multiple PutAttributes
//     calls");
//   - the verified read: fetch data and provenance, compare
//     MD5(data‖nonce) against the stored consistency record, and "reissue
//     the query, retrieving data from S3 until we get consistent provenance
//     and data";
//   - the indexed query engine behind Table 3's SimpleDB column, with the
//     N+1 lookups of the paper's description aggregated away: dependents'
//     type attributes ride the same QueryWithAttributes pass as the refs,
//     chunked ancestry queries run concurrently per BFS level, and query
//     results plus the full-repository graph are kept in a
//     generation-stamped snapshot cache (internal/core/qcache) so repeated
//     queries on an unchanged domain cost zero cloud ops.
package sdbprov

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"strconv"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/planner"
	"passcloud/internal/core/qcache"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Reserved attribute names on provenance items.
const (
	// AttrMD5 holds hex(MD5(data ‖ nonce)) — the consistency record.
	AttrMD5 = "x-md5"
	// AttrMore points to an S3 object holding records beyond SimpleDB's
	// 256-pairs-per-item limit. The paper's encoding ("all the provenance
	// of an object version ... as attributes of one item") silently
	// assumes items fit; a compile's linker reads thousands of inputs, so
	// the limit is real and the excess spills, exactly like the >1 KB
	// value rule.
	AttrMore = "x-more"
)

// LedgerItem names the non-provenance item that carries a fresh integrity
// checkpoint after out-of-band deletions (the orphan scan). Its name has no
// version suffix, so ParseItemName rejects it and every scan and query path
// skips it like any other foreign item.
const LedgerItem = "x-ledger"

// reservedAttrs are the bookkeeping attributes of an item: everything else
// on it is a provenance record.
var reservedAttrs = map[string]bool{AttrMD5: true, AttrMore: true, integrity.AttrRoot: true}

// Config parameterizes a Layer.
type Config struct {
	// Cloud supplies S3 and SimpleDB. Required.
	Cloud *cloud.Cloud
	// Bucket and Domain name the S3 bucket and SimpleDB domain; both are
	// created if missing. Defaults: core.DefaultBucket / core.DefaultDomain.
	Bucket string
	Domain string
	// Faults optionally injects crashes inside multi-step writes.
	Faults *sim.FaultPlan
	// DisableQueryCache turns off the generation-stamped query cache,
	// restoring one indexed query run per call (Table 3's SimpleDB row).
	DisableQueryCache bool
	// Retry bounds the transient-error backoff around every cloud call the
	// layer issues. The zero value uses the shared defaults.
	Retry retry.Policy
	// Writer identifies this client in integrity checkpoints (default "w").
	// Clients sharing a domain must use distinct writers.
	Writer string
	// DisableIntegrity turns off the Merkle ledger and its checkpoint
	// riders — the pre-integrity write shape, kept for the op-count parity
	// baselines.
	DisableIntegrity bool
}

// Layer is the shared provenance store.
type Layer struct {
	cfg Config

	// writes stamps the repository (pagination cursors bind to the stamp),
	// brackets this client's write sections — so the planner knows whether
	// anything else wrote to the shared region, and its predictions degrade
	// to estimates — and bumps the write generation on every provenance
	// write.
	writes *qcache.Writes
	// cache (nil when disabled) memoizes query results and the scanned graph
	// while the stamp is unchanged.
	cache *qcache.Cache
	// pins retains paginated queries' evaluated result sets.
	pins core.Pins
	// catalog mirrors this client's writes for Explain's cost predictions.
	catalog *planner.SDBCatalog
	// retrier backs off and retries transient cloud errors on every call
	// the layer issues; its meters feed the cost harness's retry-overhead
	// report.
	retrier *retry.Retrier
	// ledger rolls the Merkle commitment over committed items (nil when
	// integrity is disabled); its checkpoints ride batch writes as the
	// x-root attribute.
	ledger *integrity.Ledger
	// queryChunk is the number of OR-ed input values per dependents query
	// expression.
	queryChunk int
}

// New builds the layer, creating bucket and domain if needed.
func New(cfg Config) (*Layer, error) {
	if cfg.Cloud == nil {
		return nil, errors.New("sdbprov: Config.Cloud is required")
	}
	if cfg.Bucket == "" {
		cfg.Bucket = core.DefaultBucket
	}
	if cfg.Domain == "" {
		cfg.Domain = core.DefaultDomain
	}
	l := &Layer{
		cfg:        cfg,
		catalog:    planner.NewSDBCatalog(),
		writes:     qcache.NewWrites(cfg.Cloud),
		retrier:    retry.New(cfg.Retry, cfg.Cloud.Clock, cfg.Cloud.RNG),
		queryChunk: 32,
	}
	if !cfg.DisableIntegrity {
		l.ledger = integrity.NewLedger(cfg.Writer)
	}
	// Resource creation meters as a mutation (CreateBucket is an S3 PUT);
	// track it so a solo client's plans stay exact.
	err := l.writes.Own(func() error {
		//passvet:allow retrywrap -- one-shot namespace setup at construction: no caller context exists yet, and a failure surfaces directly instead of being retried behind the builder's back
		if err := cfg.Cloud.S3.CreateBucket(cfg.Bucket); err != nil && !errors.Is(err, s3.ErrBucketAlreadyExists) {
			return err
		}
		//passvet:allow retrywrap -- one-shot namespace setup at construction: no caller context exists yet, and a failure surfaces directly instead of being retried behind the builder's back
		if err := cfg.Cloud.SDB.CreateDomain(cfg.Domain); err != nil && !errors.Is(err, sdb.ErrDomainExists) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.DisableQueryCache {
		l.cache = qcache.New(l.writes.Stamp)
	}
	return l, nil
}

// Writes is the layer's own-write bookkeeping: the stores built on it run
// each outermost write section under its Own, and Bump it when they change
// what a query sees behind the layer's back (orphan-scan deletions, WAL
// batches).
func (l *Layer) Writes() *qcache.Writes { return l.writes }

// CacheStats exposes the query-cache counters (zero when disabled).
func (l *Layer) CacheStats() qcache.Stats { return l.cache.Stats() }

// ConsistencyWait blocks (in simulated time) for one full propagation
// horizon, the wait a client performs before trusting that a negative read
// — a missing object, a missing item — reflects reality rather than a
// stale replica. Recovery scans use it before destructive decisions.
func (l *Layer) ConsistencyWait() {
	for i := 0; i < 4; i++ {
		l.retryWait()
	}
}

// retryWait is the pause between consistency retries: a quarter of the
// propagation horizon on the simulated clock, modeling the real time a
// client would wait before reissuing.
func (l *Layer) retryWait() {
	l.cfg.Cloud.Clock.Advance(l.cfg.Cloud.S3.MaxDelay()/4 + time.Millisecond)
}

// Retrier returns the layer's retry executor, shared with the protocol code
// built on the layer (stores, commit daemon, cleaner) so one run's retry
// overhead is metered in one place.
func (l *Layer) Retrier() *retry.Retrier { return l.retrier }

// RetryStats snapshots the layer's retry counters.
func (l *Layer) RetryStats() retry.Snapshot { return l.retrier.Snapshot() }

// Bucket returns the S3 bucket name.
func (l *Layer) Bucket() string { return l.cfg.Bucket }

// Domain returns the SimpleDB domain name.
func (l *Layer) Domain() string { return l.cfg.Domain }

// ConsistencyMD5 computes the §4.2 consistency record: MD5 of the data
// concatenated with the nonce. "The MD5sum of the data itself (without the
// nonce) is sufficient ... except when a file is overwritten with the same
// data", hence the nonce.
func ConsistencyMD5(data []byte, nonce string) string {
	h := md5.New()
	h.Write(data)
	h.Write([]byte(nonce))
	return hex.EncodeToString(h.Sum(nil))
}

// EncodeValues prepares records for storage (core.EncodeValue): string
// values over 1 KB are written to their own S3 objects (their PUTs count
// toward the paper's op totals) and replaced by pointers; smaller literals
// are escaped. The returned records carry the stored form and can travel
// through the WAL or go straight to WriteEncodedBatch. afterOverflowPut,
// the caller's crash point, is checked after each overflow PUT.
func (l *Layer) EncodeValues(ctx context.Context, subject prov.Ref, records []prov.Record, afterOverflowPut *sim.Point) ([]prov.Record, error) {
	out := make([]prov.Record, len(records))
	overflowN := 0
	putOverflow := func(v string) (string, error) {
		okey := core.ProvKey(subject, strconv.Itoa(overflowN))
		overflowN++
		// Re-PUT of the same key/content is idempotent, so a retry
		// after a lost response cannot double-apply.
		err := l.retrier.Do(ctx, "sdbprov/overflow-put", func() error {
			return l.cfg.Cloud.S3.Put(l.cfg.Bucket, okey, []byte(v), nil)
		})
		if err != nil {
			return "", fmt.Errorf("sdbprov: overflow put: %w", err)
		}
		return okey, l.cfg.Faults.Check(afterOverflowPut)
	}
	for i, rec := range records {
		var err error
		if out[i], err = core.EncodeValue(rec, putOverflow); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildAttrs renders one subject's pre-encoded records into the item's
// attribute list: inline records, the MD5 consistency record, the integrity
// checkpoint rider (rootToken, when non-empty), and — for records beyond
// the 256-pairs-per-item limit — an S3 spill object referenced by the
// AttrMore attribute (the spill PUT happens here).
// observe mirrors the item into the planner catalog; callers invoke it
// only once the SimpleDB write succeeds, so a failed write cannot leave a
// phantom item skewing Explain.
func (l *Layer) buildAttrs(ctx context.Context, subject prov.Ref, encoded []prov.Record, md5hex, rootToken string, points WritePoints) (attrs []sdb.ReplaceableAttr, observe func(), err error) {
	// Reserve room for the bookkeeping attributes.
	reserved := 1 // AttrMore slot
	if md5hex != "" {
		reserved++
	}
	if rootToken != "" {
		reserved++
	}
	inline := encoded
	var spill []prov.Record
	if len(encoded)+reserved > sdb.MaxAttrsPerItem {
		cut := sdb.MaxAttrsPerItem - reserved
		inline, spill = encoded[:cut], encoded[cut:]
	}
	observe = func() { l.catalog.Observe(subject, inline, spill) }

	attrs = make([]sdb.ReplaceableAttr, 0, len(inline)+reserved)
	for _, rec := range inline {
		a := prov.SDBAttrOf(rec)
		attrs = append(attrs, sdb.ReplaceableAttr{Name: a.Name, Value: a.Value})
	}
	if md5hex != "" {
		attrs = append(attrs, sdb.ReplaceableAttr{Name: AttrMD5, Value: md5hex, Replace: true})
	}
	if rootToken != "" {
		attrs = append(attrs, sdb.ReplaceableAttr{Name: integrity.AttrRoot, Value: rootToken, Replace: true})
	}

	if len(spill) > 0 {
		blob, err := prov.MarshalJSONRecords(spill)
		if err != nil {
			return nil, nil, err
		}
		mkey := core.ProvKey(subject, "more")
		err = l.retrier.Do(ctx, "sdbprov/spill-put", func() error {
			return l.cfg.Cloud.S3.Put(l.cfg.Bucket, mkey, blob, nil)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("sdbprov: spill put: %w", err)
		}
		if err := points.Faults.Check(points.AfterSpillPut); err != nil {
			return nil, nil, err
		}
		attrs = append(attrs, sdb.ReplaceableAttr{Name: AttrMore, Value: mkey, Replace: true})
	}
	return attrs, observe, nil
}

// putChunked stores one oversized item via chunked PutAttributes calls
// ("Since SimpleDB allows us to store only 100 attributes per call, we
// might have to issue multiple PutAttributes calls").
func (l *Layer) putChunked(ctx context.Context, subject prov.Ref, attrs []sdb.ReplaceableAttr, points WritePoints) error {
	item := prov.EncodeItemName(subject)
	for start := 0; start < len(attrs); start += sdb.MaxAttrsPerCall {
		end := start + sdb.MaxAttrsPerCall
		if end > len(attrs) {
			end = len(attrs)
		}
		chunk := attrs[start:end]
		// PutAttributes is idempotent (§2.2): the same (name, value) pairs
		// collapse, so a retried-after-lost-response chunk cannot duplicate.
		err := l.retrier.Do(ctx, "sdbprov/put-attributes", func() error {
			return l.cfg.Cloud.SDB.PutAttributes(l.cfg.Domain, item, chunk)
		})
		if err != nil {
			return fmt.Errorf("sdbprov: put attributes: %w", err)
		}
		if err := points.Faults.Check(points.AfterChunk); err != nil {
			return err
		}
	}
	return nil
}

// WritePoints are the crash points WriteEncodedBatch checks, declared by the
// architecture that writes through the layer. A nil point is not checked.
type WritePoints struct {
	// AfterSpillPut follows the PUT of an item's spill object.
	AfterSpillPut *sim.Point
	// AfterChunk follows each PutAttributes call of an oversized item.
	AfterChunk *sim.Point
	// AfterBatchPut follows each BatchPutAttributes group.
	AfterBatchPut *sim.Point
	// Faults is the plan the points are checked against, the caller's:
	// the commit daemon's is not the store's. Nil: the layer's
	// Config.Faults.
	Faults *sim.FaultPlan
}

// ItemWrite is one subject's worth of a batched provenance write. Records
// must already carry their stored form (EncodeValues).
type ItemWrite struct {
	Subject prov.Ref
	Records []prov.Record
	// MD5 is the consistency record value; empty for transient subjects.
	MD5 string
	// Leaf is the subject's integrity leaf — integrity.SubjectHash over the
	// ORIGINAL (pre-encoding) record set. Empty skips the ledger for this
	// item (callers that predate the integrity subsystem).
	Leaf string
}

// WriteEncodedBatch stores many subjects' provenance with as few SimpleDB
// calls as possible: items that fit in a single call are grouped into
// BatchPutAttributes requests of up to 25 items each (the 2009 batch
// limit), and oversized items fall back to the chunked PutAttributes path.
// This is the write amortization both indexed architectures ride: a close
// with K unpersisted ancestors costs ⌈K/25⌉ SimpleDB calls instead of K.
//
// Transient SimpleDB errors are retried with backoff (re-sending a group is
// idempotent: per-item set semantics collapse duplicates). When the batch
// still fails after some groups landed, the error is a typed
// core.PartialWriteError listing the landed subjects, so callers can tell
// a half-landed batch from an all-or-nothing failure instead of guessing.
//
// When the batch carries integrity leaves, the whole batch is committed to
// the Merkle ledger up front and the minted checkpoint rides every item as
// one extra attribute — zero additional SimpleDB calls. Slot replacement
// makes the commit idempotent: a WAL replay or partial-batch retry
// re-commits the same items with the same leaves and converges to the same
// root (only the checkpoint sequence advances).
func (l *Layer) WriteEncodedBatch(ctx context.Context, writes []ItemWrite, points WritePoints) error {
	if points.Faults == nil {
		points.Faults = l.cfg.Faults
	}
	if len(writes) > 0 {
		// Invalidate cached query state even on failure: earlier groups of
		// a partially written batch are already visible to queries.
		defer l.writes.Bump()
	}
	rootToken := ""
	if l.ledger != nil {
		slots := make(map[string][]string)
		for _, w := range writes {
			if w.Leaf == "" {
				continue
			}
			item := prov.EncodeItemName(w.Subject)
			slots[item] = append(slots[item], w.Leaf)
		}
		if len(slots) > 0 {
			rootToken = l.ledger.Commit(slots).Token()
		}
	}
	var landed []prov.Ref
	var group []sdb.BatchItem
	var groupObserve []func()
	var groupSubjects []prov.Ref
	flushGroup := func() error {
		if len(group) == 0 {
			return nil
		}
		batch := group
		err := l.retrier.Do(ctx, "sdbprov/batch-put", func() error {
			return l.cfg.Cloud.SDB.BatchPutAttributes(l.cfg.Domain, batch)
		})
		if err != nil {
			return fmt.Errorf("sdbprov: batch put attributes: %w", err)
		}
		// The group landed: mirror its items into the planner catalog and
		// record them for partial-failure reporting.
		for _, observe := range groupObserve {
			observe()
		}
		landed = append(landed, groupSubjects...)
		group, groupObserve, groupSubjects = group[:0], groupObserve[:0], groupSubjects[:0]
		return points.Faults.Check(points.AfterBatchPut)
	}
	// partial tags errors with whatever landed before the failure.
	partial := func(err error) error { return core.PartialWrite(landed, err) }

	seen := make(map[string]bool, len(writes))
	for _, w := range writes {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		attrs, observe, err := l.buildAttrs(ctx, w.Subject, w.Records, w.MD5, rootToken, points)
		if err != nil {
			return partial(err)
		}
		if len(attrs) > sdb.MaxAttrsPerCall {
			// Oversized item: the chunked single-item path. Flush the
			// pending group first so the batch's ancestors-before-
			// descendants write order survives a crash between calls.
			if err := flushGroup(); err != nil {
				return partial(err)
			}
			clear(seen)
			if err := l.putChunked(ctx, w.Subject, attrs, points); err != nil {
				return partial(err)
			}
			observe()
			landed = append(landed, w.Subject)
			continue
		}
		name := prov.EncodeItemName(w.Subject)
		if seen[name] {
			// The same subject twice in one batch (version churn): flush
			// the group so the duplicate lands in a later call, preserving
			// write order without tripping the one-item-per-call rule.
			if err := flushGroup(); err != nil {
				return partial(err)
			}
			clear(seen)
		}
		seen[name] = true
		group = append(group, sdb.BatchItem{Name: name, Attrs: attrs})
		groupObserve = append(groupObserve, observe)
		groupSubjects = append(groupSubjects, w.Subject)
		if len(group) == sdb.MaxItemsPerBatch {
			if err := flushGroup(); err != nil {
				return partial(err)
			}
			clear(seen)
		}
	}
	return partial(flushGroup())
}

// storedItem is one item of the domain as read back. Bookkeeping items
// (the ledger item, foreign items in a shared domain) carry a rider at most.
type storedItem struct {
	name string
	// ref is the subject the item name parses to; subject is false for a
	// bookkeeping item.
	ref     prov.Ref
	subject bool
	// records are the subject's provenance, value pointers and the spill
	// object resolved; md5 is its consistency record (empty on transient
	// subjects), rider its integrity checkpoint token, if any.
	records    []prov.Record
	md5, rider string
}

// fetchItem reads one item — a GetAttributes under the retrier — and, for a
// subject, decodes its attributes (prov.DecodeSDBAttrs) and resolves value
// pointers and the spill object (one GET each). ok is false when the item
// is not (yet) visible.
func (l *Layer) fetchItem(ctx context.Context, it storedItem) (_ storedItem, ok bool, err error) {
	var attrs []sdb.Attr
	err = l.retrier.Do(ctx, "sdbprov/get-attributes", func() error {
		var gerr error
		attrs, ok, gerr = l.cfg.Cloud.SDB.GetAttributes(l.cfg.Domain, it.name)
		return gerr
	})
	if err != nil || !ok {
		return it, false, err
	}
	var moreKey string
	for _, a := range attrs {
		switch a.Name {
		case AttrMD5:
			it.md5 = a.Value
		case AttrMore:
			moreKey = a.Value
		case integrity.AttrRoot:
			it.rider = a.Value
		}
	}
	if !it.subject {
		return it, true, nil
	}
	it.records, err = l.decodeRecords(ctx, it.ref, attrs, moreKey)
	return it, err == nil, err
}

// decodeRecords converts a subject's stored attributes back into records.
func (l *Layer) decodeRecords(ctx context.Context, subject prov.Ref, attrs []sdb.Attr, moreKey string) ([]prov.Record, error) {
	records, err := prov.DecodeSDBAttrs(subject, attrs, reservedAttrs)
	if err != nil {
		return nil, fmt.Errorf("sdbprov: %w", err)
	}
	return core.ResolveRecords(records, moreKey, func(key string) ([]byte, error) {
		var obj *s3.Object
		err := l.retrier.Do(ctx, "sdbprov/prov-get", func() error {
			var gerr error
			obj, gerr = l.cfg.Cloud.S3.Get(l.cfg.Bucket, key)
			return gerr
		})
		if err != nil {
			return nil, fmt.Errorf("sdbprov: provenance object get: %w", err)
		}
		return obj.Body, nil
	})
}

// FetchItem retrieves and decodes a subject's provenance. ok is false when
// the item is not (yet) visible.
func (l *Layer) FetchItem(ctx context.Context, subject prov.Ref) (records []prov.Record, md5hex string, ok bool, err error) {
	it, ok, err := l.fetchItem(ctx, storedItem{name: prov.EncodeItemName(subject), ref: subject, subject: true})
	return it.records, it.md5, ok, err
}

// VerifiedGet implements the §4.2 read protocol: retrieve the data and its
// provenance, verify MD5(data‖nonce) against the consistency record, and
// retry on mismatch "until we get consistent provenance and data". It
// returns core.ErrInconsistent when the retry budget is exhausted and
// core.ErrNoProvenance when data exists but its item never appears —
// the atomicity-violation surface.
func (l *Layer) VerifiedGet(ctx context.Context, object prov.ObjectID) (*core.Object, error) {
	// maxReadRetries bounds the consistency retry loop.
	const maxReadRetries = 16
	var lastErr error = core.ErrInconsistent
	for attempt := 0; attempt <= maxReadRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			l.retryWait()
		}

		var obj *s3.Object
		err := l.retrier.Do(ctx, "sdbprov/data-get", func() error {
			var gerr error
			obj, gerr = l.cfg.Cloud.S3.Get(l.cfg.Bucket, core.DataKey(object))
			return gerr
		})
		if err != nil {
			if errors.Is(err, s3.ErrNoSuchKey) {
				lastErr = fmt.Errorf("%w: %s", core.ErrNotFound, object)
				continue // the object may simply not have propagated yet
			}
			return nil, err
		}
		nonce := obj.Metadata[core.MetaNonce]
		ver, verr := core.StoredVersion(obj.Metadata)
		if verr != nil {
			lastErr = fmt.Errorf("%w: data missing version metadata", core.ErrNoProvenance)
			continue
		}
		ref := prov.Ref{Object: object, Version: ver}

		records, md5hex, ok, err := l.FetchItem(ctx, ref)
		if err != nil {
			return nil, err
		}
		if !ok {
			lastErr = fmt.Errorf("%w: %s", core.ErrNoProvenance, ref)
			continue
		}
		if md5hex == "" || md5hex != ConsistencyMD5(obj.Body, nonce) {
			// Eventual consistency let S3 and SimpleDB disagree; reissue.
			lastErr = fmt.Errorf("%w: %s (md5 mismatch)", core.ErrInconsistent, ref)
			continue
		}
		return &core.Object{Ref: ref, Data: obj.Body, Records: records}, nil
	}
	return nil, lastErr
}

// --- query engine (Table 3, SimpleDB column) --------------------------------

// ItemNames is SelectItems' output list for a names-only enumeration.
const ItemNames = "itemName()"

// SelectItems is the one paged enumeration of the domain: it pages
// `select <output> from <domain>` and yields every returned item's name —
// subjects and bookkeeping items alike; callers parse. output is ItemNames,
// or an attribute name to enumerate only the items carrying it. Each page
// is fetched under the layer's retrier and ctx is honored before each
// request, so scans, audits, recovery and migration share one
// transient-error policy. The sequence ends after the first error.
func (l *Layer) SelectItems(ctx context.Context, output string) iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		expr, token := "select "+output+" from "+l.cfg.Domain, ""
		for {
			if err := ctx.Err(); err != nil {
				yield("", err)
				return
			}
			var res *sdb.SelectResult
			err := l.retrier.Do(ctx, "sdbprov/select-items", func() error {
				var serr error
				res, serr = l.cfg.Cloud.SDB.Select(expr, token)
				return serr
			})
			if err != nil {
				yield("", err)
				return
			}
			for _, item := range res.Items {
				if !yield(item.Name, nil) {
					return
				}
			}
			if res.NextToken == "" {
				return
			}
			token = res.NextToken
		}
	}
}

// Subjects enumerates the subjects among SelectItems' names: the ledger
// item and foreign items of a shared domain do not parse and are skipped.
func (l *Layer) Subjects(ctx context.Context, output string) iter.Seq2[prov.Ref, error] {
	return func(yield func(prov.Ref, error) bool) {
		for name, err := range l.SelectItems(ctx, output) {
			ref, perr := prov.ParseItemName(name)
			if err == nil && perr != nil {
				continue
			}
			if !yield(ref, err) || err != nil {
				return
			}
		}
	}
}

// items is the layer's one enumeration of stored items: SelectItems, then
// one fetchItem per subject whose object passes match (nil: all) — and, with
// bookkeeping set, per item that is no subject too, for the rider it may
// carry. "There is no way for SimpleDB to generalize the query and needs to
// issue one query per item" (§5, Q.1). Pagination keeps one Select page plus
// one item resident at a time; an item deleted since the Select is skipped,
// and ctx is honored before each fetch.
func (l *Layer) items(ctx context.Context, bookkeeping bool, match func(prov.ObjectID) bool) iter.Seq2[storedItem, error] {
	return func(yield func(storedItem, error) bool) {
		for name, err := range l.SelectItems(ctx, ItemNames) {
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				yield(storedItem{}, err)
				return
			}
			ref, perr := prov.ParseItemName(name)
			wanted := bookkeeping
			if perr == nil {
				wanted = match == nil || match(ref.Object)
			}
			if !wanted {
				continue
			}
			it, ok, err := l.fetchItem(ctx, storedItem{name: name, ref: ref, subject: perr == nil})
			if err != nil {
				yield(storedItem{}, err)
				return
			}
			if ok && !yield(it, nil) {
				return
			}
		}
	}
}

// scanSeq is the live repository scan.
func (l *Layer) scanSeq(ctx context.Context) iter.Seq2[core.Entry, error] {
	return func(yield func(core.Entry, error) bool) {
		for it, err := range l.items(ctx, false, nil) {
			if !yield(core.Entry{Ref: it.ref, Records: it.records}, err) || err != nil {
				return
			}
		}
	}
}

// ProvenanceGraph returns the repository graph, one scan materialized,
// shared from the snapshot cache (singleflight on a miss) when enabled.
// Read-only.
func (l *Layer) ProvenanceGraph(ctx context.Context) (*prov.Graph, error) {
	return l.cache.Graph(ctx, func(ctx context.Context) (*prov.Graph, error) {
		return core.CollectGraph(l.scanSeq(ctx))
	})
}

// --- integrity (chain/ledger/audit) -----------------------------------------

// IntegrityEnabled reports whether the layer maintains the Merkle ledger.
func (l *Layer) IntegrityEnabled() bool { return l.ledger != nil }

// DropFromLedger removes deleted items' leaves from the Merkle ledger and
// re-persists a fresh checkpoint on the dedicated ledger item, so the
// commitment follows a legitimate deletion (the orphan scan) instead of
// flagging it. This is the one place a checkpoint costs its own SimpleDB
// call — a recovery path, never the healthy write path.
func (l *Layer) DropFromLedger(ctx context.Context, items []string) error {
	if l.ledger == nil || len(items) == 0 {
		return nil
	}
	for _, item := range items {
		l.ledger.Remove(item)
	}
	cp := l.ledger.Commit(nil)
	attrs := []sdb.ReplaceableAttr{{Name: integrity.AttrRoot, Value: cp.Token(), Replace: true}}
	err := l.retrier.Do(ctx, "sdbprov/ledger-put", func() error {
		return l.cfg.Cloud.SDB.PutAttributes(l.cfg.Domain, LedgerItem, attrs)
	})
	if err != nil {
		return fmt.Errorf("sdbprov: ledger put: %w", err)
	}
	return nil
}

// Audit implements integrity.Auditor: a live full-domain scan (never the
// query cache — a verifier must read what is actually stored) returning
// every item's decoded records plus every checkpoint rider encountered.
// The op cost — Select pages, one GetAttributes per item, pointer GETs —
// is exactly what the verification-cost benchmark meters.
func (l *Layer) Audit(ctx context.Context) (*integrity.Audit, error) {
	a := &integrity.Audit{
		Entries:        make(map[prov.Ref][]prov.Record),
		RetainsHistory: true, // items are per-version and never reclaimed
	}
	for it, err := range l.items(ctx, true, nil) {
		if err != nil {
			return nil, err
		}
		if it.subject {
			a.Entries[it.ref] = it.records
		}
		// A rider that no longer parses was tampered with; dropping it (like
		// an item that carries none) surfaces as a stale or missing
		// checkpoint downstream.
		if cp, err := integrity.ParseCheckpoint(it.rider); err == nil {
			a.Checkpoints = append(a.Checkpoints, cp)
		}
	}
	return a, nil
}
