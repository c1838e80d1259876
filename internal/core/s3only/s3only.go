// Package s3only implements the paper's first architecture (§4.1, Figure 1):
// PASS with S3 as the only storage substrate. Each file maps to an S3
// object; its provenance travels as S3 user metadata in the very same PUT,
// which is what gives this architecture read correctness for free —
// "either both provenance and data are stored or they are both not stored".
//
// Two complications the paper describes are implemented faithfully:
//
//   - records whose values exceed 1 KB are stored as separate S3 objects
//     and referenced by pointer from the metadata (one extra PUT each);
//   - metadata beyond S3's 2 KB limit spills into a bundle object, which
//     "introduces read correctness challenges and only worsens the query
//     problem" — the bundle is written before the data PUT so a crash
//     leaves garbage, never data without provenance.
//
// Transient objects (processes, pipes) have no S3 object of their own:
// their records ride along in the metadata of the descendant file PUT that
// triggered their flush. This matches the paper's op accounting, where the
// only extra PUTs are the >1 KB overflow records.
//
// Querying is the architecture's weakness: "if we do not know the exact
// object whose provenance we seek, then we might need to iterate over the
// provenance of every object in the repository". The Querier implementation
// does exactly that — LIST plus one HEAD per object plus one GET per
// overflow object — so the metered cost exhibits the paper's Table 3 row.
// Three mitigations soften the cost without changing it: the per-page HEADs
// run with bounded concurrency (ScanConcurrency), cutting scan latency by
// the concurrency factor; the scanned graph is kept in a generation-stamped
// snapshot cache (internal/core/qcache), so repeated queries on an unchanged
// repository cost zero cloud ops; and on a strongly consistent region the
// snapshot follows this client's own acknowledged writes (follow.go) — the
// client knows exactly what it PUT — so only another writer's write, or a
// write of its own that did not settle cleanly, costs the next query a scan.
// Config.DisableQueryCache restores the paper's every-query-scans behaviour.
package s3only

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"strconv"
	"sync"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/awserr"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/planner"
	"passcloud/internal/core/qcache"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Points are the store's crash points, in protocol order. Its windows are
// where Table 1's atomicity check crashes the client.
var Points sim.Points

// The crash points: before a file's PUT, after a batch's PUTs, after an
// overflow object's PUT and after a spill bundle's PUT.
var (
	PointBeforePut        = Points.DeclareWindow("s3only/before-put")
	PointAfterPut         = Points.Declare("s3only/after-put")
	PointAfterOverflowPut = Points.DeclareWindow("s3only/after-overflow-put")
	PointAfterBundlePut   = Points.Declare("s3only/after-bundle-put")
)

// metaOverflow is this architecture's one reserved metadata key beyond the
// shared layout's (core.MetaVersion, integrity.AttrRoot): the pointer to
// the spill bundle object.
const metaOverflow = "x-over"

// budget is the metadata space left for provenance after reserved keys and
// the integrity checkpoint rider. The rider's worst-case size is reserved
// unconditionally — with integrity disabled too — so the spill boundaries
// (and with them the op counts) are bit-identical between an integrity run
// and its parity baseline.
const budget = s3.MaxMetadataSize - 64 - riderReserve

// riderReserve holds space for the x-root metadata key and its checkpoint
// token ("v2|writer|seq|count|32-hex-root").
const riderReserve = 96

// Config parameterizes the store.
type Config struct {
	// Cloud supplies the S3 service. Required.
	Cloud *cloud.Cloud
	// Bucket is created if missing. Defaults to core.DefaultBucket.
	Bucket string
	// Faults optionally injects client crashes at protocol points.
	Faults *sim.FaultPlan
	// PutConcurrency bounds the number of in-flight data PUTs when a
	// batch carries several independent file versions (default 4). S3 has
	// no batch PUT, so overlap is the only amortization available to this
	// architecture; versions of the same object always stay sequential so
	// last-writer-wins resolves in causal order.
	PutConcurrency int
	// ScanConcurrency bounds the in-flight HEADs per LIST page during
	// repository scans (default: PutConcurrency). The scan stays one LIST
	// page at a time; only the per-object HEADs within a page overlap.
	ScanConcurrency int
	// DisableQueryCache turns off the snapshot cache, restoring the
	// paper's behaviour of one full scan per query (Table 3's S3 row).
	DisableQueryCache bool
	// Retry bounds the transient-error backoff around every cloud call the
	// store issues. The zero value uses the shared defaults.
	Retry retry.Policy
	// Writer identifies this client in integrity checkpoints (default "w").
	Writer string
	// DisableIntegrity turns off the Merkle ledger and checkpoint riders —
	// the op-count parity baseline.
	DisableIntegrity bool
}

// Store is the S3-only architecture.
type Store struct {
	cloud       *cloud.Cloud
	bucket      string
	faults      *sim.FaultPlan
	concurrency int
	scanConc    int

	// writes stamps the repository (pagination cursors bind to the stamp),
	// brackets this client's write sections — so the planner knows whether
	// anything else wrote to the region — and bumps the write generation.
	writes *qcache.Writes
	// cache (nil when disabled) holds the scanned provenance graph while the
	// stamp is unchanged, and on a region with no propagation delay carries
	// it forward with this client's own writes (follow.go).
	cache *qcache.Cache
	// pins retains paginated queries’ evaluated result sets.
	pins core.Pins
	// catalog mirrors this client's data PUTs for Explain's predictions.
	catalog *planner.S3Catalog
	// retrier backs off and retries transient cloud errors; its meters
	// feed the cost harness's retry-overhead report.
	retrier *retry.Retrier
	// ledger rolls the Merkle commitment over carrier PUTs (nil when
	// integrity is disabled), keyed by data object key: this architecture
	// overwrites an object's metadata in place, so a slot's leaves are
	// replaced whenever its key is re-PUT.
	ledger *integrity.Ledger

	mu sync.Mutex
	// foreign buffers transient ancestors' records until the descendant
	// file PUT they will ride on. Client-side state: a crash loses it,
	// exactly like the paper's client-side caches.
	foreign []prov.Record
	// pnodeSeq numbers the marker objects Sync writes for trailing
	// transient provenance.
	pnodeSeq int
	// latest tracks the highest version this client has successfully PUT
	// per data key. Partial-batch recovery can reorder flushes across
	// retries (a new version lands while an older one stays pending); an
	// older version must then never overwrite the newer object.
	latest map[string]prov.Version
}

// New builds the store, creating its bucket if needed.
func New(cfg Config) (*Store, error) {
	if cfg.Cloud == nil {
		return nil, errors.New("s3only: Config.Cloud is required")
	}
	if cfg.Bucket == "" {
		cfg.Bucket = core.DefaultBucket
	}
	if cfg.PutConcurrency <= 0 {
		cfg.PutConcurrency = 4
	}
	if cfg.ScanConcurrency <= 0 {
		cfg.ScanConcurrency = cfg.PutConcurrency
	}
	s := &Store{cloud: cfg.Cloud, bucket: cfg.Bucket, faults: cfg.Faults,
		concurrency: cfg.PutConcurrency, scanConc: cfg.ScanConcurrency,
		catalog: planner.NewS3Catalog(), writes: qcache.NewWrites(cfg.Cloud),
		retrier: retry.New(cfg.Retry, cfg.Cloud.Clock, cfg.Cloud.RNG),
		latest:  make(map[string]prov.Version)}
	if !cfg.DisableIntegrity {
		s.ledger = integrity.NewLedger(cfg.Writer)
	}
	// Resource creation meters as a mutation (CreateBucket is an S3 PUT);
	// track it so a solo client's plans stay exact.
	err := s.writes.Own(func() error {
		//passvet:allow retrywrap -- one-shot namespace setup at construction: no caller context exists yet, and a failure surfaces directly instead of being retried behind the builder's back
		if err := cfg.Cloud.S3.CreateBucket(cfg.Bucket); err != nil && !errors.Is(err, s3.ErrBucketAlreadyExists) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.DisableQueryCache {
		s.cache = qcache.New(s.writes.Stamp)
	}
	return s, nil
}

// Name implements core.Store.
func (s *Store) Name() string { return "s3" }

// Properties implements core.Store: Table 1 row 1.
func (s *Store) Properties() core.Properties {
	return core.Properties{
		Atomicity:      true,
		Consistency:    true,
		CausalOrdering: true,
		EfficientQuery: false,
	}
}

// dataPut is one assembled file PUT awaiting execution.
type dataPut struct {
	key  string
	data []byte
	meta map[string]string
	// stored holds the bodies of the overflow and bundle objects assembling
	// this PUT wrote, by key; decoding the metadata costs a scan one GET
	// each, recorded into the planner catalog once the PUT lands.
	stored map[string][]byte
	// ref is the file version this PUT persists.
	ref prov.Ref
	// riders are the transient subjects whose buffered records travel in
	// this PUT's metadata: when the PUT lands, their provenance landed too.
	riders []prov.Ref
	// carriesSaved marks the PUT that drained pre-batch leftovers of the
	// foreign buffer; if it lands, a failed batch must not restore them.
	carriesSaved bool
}

// batchResult accumulates what a (possibly failing) putBatch achieved.
type batchResult struct {
	mu sync.Mutex
	// landed lists fully persisted refs: file versions whose PUT completed
	// plus the transient riders those PUTs carried.
	landed []prov.Ref
	// savedLanded reports that the pre-batch foreign leftovers persisted.
	savedLanded bool
	// puts lists the carrier PUTs that landed, in landing order.
	puts []dataPut
}

func (r *batchResult) record(p dataPut) {
	r.mu.Lock()
	r.puts = append(r.puts, p)
	r.landed = append(r.landed, p.ref)
	r.landed = append(r.landed, p.riders...)
	if p.carriesSaved {
		r.savedLanded = true
	}
	r.mu.Unlock()
}

func (r *batchResult) recordRef(ref prov.Ref) {
	r.mu.Lock()
	r.landed = append(r.landed, ref)
	r.mu.Unlock()
}

// PutBatch implements core.Store. Protocol (§4.1), batch-first: transient
// events buffer their records to ride the next file PUT of the batch (its
// triggering descendant, by PASS flush order); each file event's metadata
// is assembled sequentially (overflow and bundle PUTs happen here, before
// any data PUT); then the batch's independent data PUTs — each carrying
// its object and provenance atomically — execute concurrently under the
// PutConcurrency bound.
//
// The foreign buffer is transactional across the batch: on any error the
// buffer is restored so that pre-batch leftovers that did not persist are
// carried again, while leftovers that rode a PUT which landed are not —
// a replayed batch neither loses trailing transient provenance nor
// duplicates it.
//
// A failing batch in which some PUTs completed returns a typed
// core.PartialWriteError naming the fully persisted events (file versions
// and their transient riders); the caller retries only the remainder.
func (s *Store) PutBatch(ctx context.Context, batch []pass.FlushEvent) error {
	s.mu.Lock()
	saved := append([]prov.Record(nil), s.foreign...)
	s.mu.Unlock()
	res := &batchResult{}
	err := s.cache.Follow(s.writes, func() (qcache.Landed, error) {
		err := s.putBatch(ctx, batch, len(saved) > 0, res)
		// Move the stamp even when the batch fails: partial effects (overflow
		// or bundle PUTs) may already be visible to a scan. Only a batch that
		// succeeded carries the snapshot along.
		s.writes.Bump()
		return landedPuts(res.puts), err
	})
	if err == nil {
		return nil
	}
	s.mu.Lock()
	if res.savedLanded {
		// The leftovers persisted with a landed PUT; restoring them would
		// duplicate their records on the next flush. This-batch records are
		// dropped either way: the caller re-sends their events (minus the
		// landed ones).
		s.foreign = nil
	} else {
		s.foreign = saved
	}
	s.mu.Unlock()
	return core.PartialWrite(res.landed, err)
}

func (s *Store) putBatch(ctx context.Context, batch []pass.FlushEvent, savedPresent bool, res *batchResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var puts []dataPut
	for _, ev := range batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ev.Persistent() {
			// Transient object: buffer; its records ride the batch's next
			// file PUT.
			s.mu.Lock()
			s.foreign = append(s.foreign, ev.Records...)
			s.mu.Unlock()
			continue
		}

		if err := s.faults.Check(PointBeforePut); err != nil {
			return err
		}

		s.mu.Lock()
		stale := s.latest[core.DataKey(ev.Ref.Object)] > ev.Ref.Version
		s.mu.Unlock()
		if stale {
			// A newer version of this object already landed (an earlier
			// attempt of this chain persisted it before this older pending
			// version was retried): PUTting it would regress the object.
			// Its metadata records would be overwritten by the newer PUT
			// anyway — architecture 1 keeps one version per object — so
			// the event is complete as-is. The foreign buffer is NOT
			// drained: the riders move on to the next carrier.
			res.recordRef(ev.Ref)
			continue
		}

		s.mu.Lock()
		foreign := s.foreign
		s.foreign = nil
		s.mu.Unlock()

		p, err := s.assemble(ctx, ev.Ref, ev.Data, ev.Records, foreign)
		if err != nil {
			return err
		}
		if len(foreign) > 0 {
			p.carriesSaved = savedPresent
			savedPresent = false // the drain emptied the buffer
		}
		puts = append(puts, p)
	}

	// The data PUTs: data and provenance stored atomically, overlapped
	// across independent objects.
	if err := s.doPuts(ctx, puts, res); err != nil {
		return err
	}
	return s.faults.Check(PointAfterPut)
}

// putCarrier executes one provenance-carrying PUT under the retrier. When
// the retry budget exhausts on an ambiguous lost-response chain
// (awserr.ErrRequestTimeout: the op may have been applied), a HEAD probe
// settles whether this exact write — same body, same metadata — is in fact
// durable. Without the probe, a landed-but-reported-failed carrier would
// have its rider records restored and re-carried by a later PUT under a
// different key, double-applying them.
func (s *Store) putCarrier(ctx context.Context, op, key string, body []byte, meta map[string]string) error {
	err := s.retrier.Do(ctx, op, func() error {
		return s.cloud.S3.Put(s.bucket, key, body, meta)
	})
	if err == nil || !errors.Is(err, awserr.ErrRequestTimeout) {
		return err
	}
	info, herr := s.cloud.S3.Head(s.bucket, key)
	if herr != nil {
		return err
	}
	sum := md5.Sum(body)
	if info.ETag == hex.EncodeToString(sum[:]) && maps.Equal(info.Metadata, meta) {
		return nil // the lost-response attempt applied; the write is durable
	}
	return err
}

// assemble renders one carrier PUT: its metadata (overflow and bundle PUTs
// happen here, before the data PUT) and the checkpoint rider.
func (s *Store) assemble(ctx context.Context, ref prov.Ref, data []byte, own, foreign []prov.Record) (dataPut, error) {
	p := dataPut{key: core.DataKey(ref.Object), data: data, ref: ref}
	var err error
	if p.meta, p.stored, err = s.encodeMetadata(ctx, ref, own, foreign); err != nil {
		return p, err
	}
	riders := bySubject(foreign)
	for _, rider := range riders {
		p.riders = append(p.riders, rider.Ref)
	}
	s.mintRider(p, own, riders)
	return p, nil
}

// mintRider commits the carrier's leaf set to the ledger and stamps the
// checkpoint token into the PUT's metadata, so the commitment rides the
// write the batch was issuing anyway. The ledger slot is the data key:
// re-PUTting a key replaces its object and metadata wholesale, so the
// slot's previous leaves are replaced to match. A subject with no records
// contributes no leaf — the scan would never yield it as an entry.
func (s *Store) mintRider(p dataPut, own []prov.Record, riders []core.Entry) {
	if s.ledger == nil {
		return
	}
	var leaves []string
	if len(own) > 0 {
		leaves = append(leaves, integrity.SubjectHash(p.ref, own))
	}
	// One leaf per rider subject, in first-appearance order.
	for _, rider := range riders {
		leaves = append(leaves, integrity.SubjectHash(rider.Ref, rider.Records))
	}
	p.meta[integrity.AttrRoot] = s.ledger.Commit(map[string][]string{p.key: leaves}).Token()
}

// land executes an assembled PUT and, once it is durable, records its
// version and mirrors the object into the planner catalog.
func (s *Store) land(ctx context.Context, op string, p dataPut) error {
	if err := s.putCarrier(ctx, op, p.key, p.data, p.meta); err != nil {
		return err
	}
	s.mu.Lock()
	if p.ref.Version > s.latest[p.key] {
		s.latest[p.key] = p.ref.Version
	}
	s.mu.Unlock()
	s.catalog.Observe(p.key, int64(len(p.stored)))
	return nil
}

// bySubject groups records into one entry per subject, in first-appearance
// order; records about one subject — most carriers of a scan — are it, uncopied.
func bySubject(records []prov.Record) []core.Entry {
	if len(records) == 0 {
		return nil
	}
	if !slices.ContainsFunc(records, func(r prov.Record) bool { return r.Subject != records[0].Subject }) {
		return []core.Entry{{Ref: records[0].Subject, Records: records}}
	}
	var groups []core.Entry
	at := make(map[prov.Ref]int)
	for _, r := range records {
		i, seen := at[r.Subject]
		if !seen {
			i = len(groups)
			at[r.Subject] = i
			groups = append(groups, core.Entry{Ref: r.Subject})
		}
		groups[i].Records = append(groups[i].Records, r)
	}
	return groups
}

// doPuts executes the batch's data PUTs with bounded concurrency. PUTs to
// the same key (several versions of one object in one batch) stay in order
// on one worker, so last-writer-wins resolves to the newest version.
// Transient S3 errors back off and retry; a re-PUT of the same key, body
// and metadata is idempotent, so a retry after a lost response cannot
// double-apply. Completed PUTs are recorded in res even when a later PUT
// sinks the batch.
func (s *Store) doPuts(ctx context.Context, puts []dataPut, res *batchResult) error {
	if len(puts) == 0 {
		return nil
	}
	// Group same-key PUTs, preserving batch order within each group.
	var order []string
	groups := make(map[string][]dataPut)
	for _, p := range puts {
		if _, ok := groups[p.key]; !ok {
			order = append(order, p.key)
		}
		groups[p.key] = append(groups[p.key], p)
	}
	return core.RunLimited(ctx, len(order), s.concurrency, func(i int) error {
		for _, p := range groups[order[i]] {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.land(ctx, "s3only/data-put", p); err != nil {
				return fmt.Errorf("s3only: data put: %w", err)
			}
			res.record(p)
		}
		return nil
	})
}

// encodeMetadata renders own + foreign records into S3 metadata
// (prov.S3MetaEntry), diverting >1 KB values to overflow objects
// (core.EncodeValue) and spilling what the 2 KB limit leaves no room for
// into a bundle object. The overflow and bundle PUTs happen before the data
// PUT; stored returns their bodies by key (nil: none).
func (s *Store) encodeMetadata(ctx context.Context, subject prov.Ref, own, foreign []prov.Record) (meta map[string]string, stored map[string][]byte, err error) {
	ver := strconv.Itoa(int(subject.Version))
	meta = map[string]string{core.MetaVersion: ver}
	size := len(core.MetaVersion) + len(ver)
	var spill []prov.Record
	keep := func(key string, body []byte) {
		if stored == nil {
			stored = make(map[string][]byte)
		}
		stored[key] = body
	}

	putOverflow := func(v string) (string, error) {
		okey, body := core.ProvKey(subject, strconv.Itoa(len(stored))), []byte(v)
		err := s.retrier.Do(ctx, "s3only/overflow-put", func() error {
			return s.cloud.S3.Put(s.bucket, okey, body, nil)
		})
		if err != nil {
			return "", fmt.Errorf("s3only: overflow put: %w", err)
		}
		keep(okey, body)
		return okey, s.faults.Check(PointAfterOverflowPut)
	}
	add := func(i int, rec prov.Record, rider bool) error {
		rec, err := core.EncodeValue(rec, putOverflow)
		if err != nil {
			return err
		}
		key, entry := prov.S3MetaEntry(i, rec, rider)
		if size+len(key)+len(entry) > budget {
			// No metadata room left: the record goes to the spill bundle,
			// keeping its (possibly pointer-encoded) stored form.
			spill = append(spill, rec)
			return nil
		}
		meta[key] = entry
		size += len(key) + len(entry)
		return nil
	}

	for i, rec := range own {
		if err := add(i, rec, false); err != nil {
			return nil, nil, err
		}
	}
	for i, rec := range foreign {
		if err := add(i, rec, true); err != nil {
			return nil, nil, err
		}
	}

	if len(spill) > 0 {
		bkey := core.ProvKey(subject, "bundle")
		blob, err := prov.MarshalJSONRecords(spill)
		if err != nil {
			return nil, nil, err
		}
		err = s.retrier.Do(ctx, "s3only/bundle-put", func() error {
			return s.cloud.S3.Put(s.bucket, bkey, blob, nil)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("s3only: bundle put: %w", err)
		}
		keep(bkey, blob)
		if err := s.faults.Check(PointAfterBundlePut); err != nil {
			return nil, nil, err
		}
		meta[metaOverflow] = bkey
	}
	return meta, stored, nil
}

// carrier is one data object as read back: its key, the version its
// metadata records, every record that metadata carries (its own and its
// transient riders', overflow pointers and the spill bundle resolved), and
// the body when it was fetched by GET.
type carrier struct {
	key     string
	ref     prov.Ref
	meta    map[string]string
	body    []byte
	records []prov.Record
}

// own returns the carrier subject's records, without the riders'.
func (c carrier) own() []prov.Record {
	var out []prov.Record
	for _, r := range c.records {
		if r.Subject == c.ref {
			out = append(out, r)
		}
	}
	return out
}

// fetchCarrier reads and decodes one data object: a HEAD ("the only way to
// read provenance is by issuing a HEAD call on an object"), or a GET when
// the body is wanted, plus one GET per overflow and bundle object, every
// call under the retrier. ok is false only when the object does not exist
// (or was deleted since it was listed); any other failure is an error — a
// throttled call must never shorten a scan or an audit.
func (s *Store) fetchCarrier(ctx context.Context, key string, body bool) (c carrier, ok bool, err error) {
	c.key = key
	if body {
		err = s.retrier.Do(ctx, "s3only/data-get", func() error {
			obj, gerr := s.cloud.S3.Get(s.bucket, key)
			if gerr == nil {
				c.meta, c.body = obj.Metadata, obj.Body
			}
			return gerr
		})
	} else {
		err = s.retrier.Do(ctx, "s3only/data-head", func() error {
			info, herr := s.cloud.S3.Head(s.bucket, key)
			if herr == nil {
				c.meta = info.Metadata
			}
			return herr
		})
	}
	if err != nil {
		if errors.Is(err, s3.ErrNoSuchKey) {
			err = nil
		}
		return c, false, err
	}
	ver, err := core.StoredVersion(c.meta)
	if err != nil {
		return c, false, err
	}
	c.ref = prov.Ref{Object: core.ObjectOfKey(key), Version: ver}
	if c.records, err = prov.DecodeS3Metadata(c.ref, c.meta); err != nil {
		return c, false, err
	}
	c.records, err = core.ResolveRecords(c.records, c.meta[metaOverflow], func(pkey string) ([]byte, error) {
		var obj *s3.Object
		err := s.retrier.Do(ctx, "s3only/prov-get", func() error {
			var gerr error
			obj, gerr = s.cloud.S3.Get(s.bucket, pkey)
			return gerr
		})
		if err != nil {
			return nil, fmt.Errorf("s3only: provenance object get: %w", err)
		}
		return obj.Body, nil
	})
	return c, err == nil, err
}

// carriers is the store's one enumeration of the data prefix: LIST pages,
// and for every listed object whose ID passes match (nil: all) one
// fetchCarrier, at most ScanConcurrency objects of a page in flight,
// yielded in page order. An object deleted since the LIST is skipped; the
// first error ends the sequence. Every worker checks ctx before its fetch,
// so cancellation mid-page stops promptly instead of draining the page's
// remaining objects.
func (s *Store) carriers(ctx context.Context, bodies bool, match func(prov.ObjectID) bool) iter.Seq2[carrier, error] {
	return func(yield func(carrier, error) bool) {
		for infos, err := range core.S3Pages(ctx, s.retrier, s.cloud.S3, s.bucket, core.DataPrefix) {
			if err != nil {
				yield(carrier{}, err)
				return
			}
			page := make([]carrier, len(infos))
			fetched := make([]bool, len(infos))
			err := core.RunLimited(ctx, len(infos), s.scanConc, func(i int) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				if match != nil && !match(core.ObjectOfKey(infos[i].Key)) {
					return nil
				}
				var err error
				page[i], fetched[i], err = s.fetchCarrier(ctx, infos[i].Key, bodies)
				return err
			})
			if err != nil {
				yield(carrier{}, err)
				return
			}
			for i, c := range page {
				if fetched[i] && !yield(c, nil) {
					return
				}
			}
		}
	}
}

// Get implements core.Store. One GET returns data and metadata together, so
// the provenance always describes the returned bytes.
func (s *Store) Get(ctx context.Context, object prov.ObjectID) (*core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, ok, err := s.fetchCarrier(ctx, core.DataKey(object), true)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrNotFound, object)
	}
	return &core.Object{Ref: c.ref, Data: c.body, Records: c.own()}, nil
}

// Provenance implements core.Store. For the current version of an object a
// HEAD suffices; any other ref requires the full scan.
func (s *Store) Provenance(ctx context.Context, ref prov.Ref) ([]prov.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, ok, err := s.fetchCarrier(ctx, core.DataKey(ref.Object), false)
	if err != nil {
		return nil, err
	}
	if ok && c.ref == ref {
		return c.own(), nil
	}

	// Older version or transient subject: only the repository graph (the
	// warm snapshot, else one scan) knows it.
	g, err := s.ProvenanceGraph(ctx)
	if err != nil {
		return nil, err
	}
	if !g.Has(ref) {
		return nil, fmt.Errorf("%w: %s", core.ErrNotFound, ref)
	}
	// The graph is shared: hand out a copy.
	return append([]prov.Record(nil), g.Records(ref)...), nil
}

// scanSeq is the live repository scan: every carrier's records, one entry
// per subject the carrier holds, in page order — indexed by carrier into idx
// (nil: not indexed) as it goes.
func (s *Store) scanSeq(ctx context.Context, idx *carrierIndex) iter.Seq2[core.Entry, error] {
	return func(yield func(core.Entry, error) bool) {
		for c, err := range s.carriers(ctx, false, nil) {
			if err != nil {
				yield(core.Entry{}, err)
				return
			}
			entries := bySubject(c.records)
			idx.add(c.key, entries)
			for _, e := range entries {
				if !yield(e, nil) {
					return
				}
			}
		}
	}
}

// CacheStats exposes the snapshot cache counters (zero when disabled):
// GraphMisses counts scans, GraphPatches the snapshots patched with this
// client's own writes.
func (s *Store) CacheStats() qcache.Stats { return s.cache.Stats() }

// ProvenanceGraph implements core.GraphQuerier: the repository graph, one
// scan materialized, shared from the snapshot cache (singleflight on a
// miss) when enabled. A snapshot this client's own writes moved forward is
// patched with them at zero cloud ops, through the index the scan built.
// Read-only.
func (s *Store) ProvenanceGraph(ctx context.Context) (*prov.Graph, error) {
	return s.cache.PatchableGraph(ctx, func(ctx context.Context) (*prov.Graph, qcache.Patcher, error) {
		idx := &carrierIndex{}
		g, err := core.CollectGraph(s.scanSeq(ctx, idx))
		return g, idx, err
	})
}

// Query implements core.Querier. Every descriptor here costs at most one
// repository pass: the architecture has no index ("if we do not know the
// exact object whose provenance we seek, then we might need to iterate
// over the provenance of every object in the repository"), so filters and
// traversals evaluate client-side on the materialized graph — the refs
// pipeline on one graph (core.RunOnGraph) — while the unfiltered Q.1 shape
// streams the scan without materializing. Paginated descriptors pin their evaluation
// to the snapshot generation of the first page.
func (s *Store) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return core.Query(ctx, q, s, &s.pins, s.runQuery)
}

// StampToken implements core.Stamped: the repository generation this
// store's cursors bind to, also read by composing stores (the shard
// router) that mint composite stamps.
func (s *Store) StampToken() string { return s.writes.Stamp().Token() }

// runQuery executes one non-paginated descriptor. The architecture has one
// strategy, the repository pass, so there is nothing for the run and the plan
// to switch on: the plan costs that pass unless the snapshot is warm.
func (s *Store) runQuery(ctx context.Context, q prov.Query, yield func(core.Entry, error) bool) {
	if q.IsQ1() && !s.cache.Enabled() {
		// Q.1 — "iterate over the provenance of every object in the
		// repository": LIST pages, bounded-concurrency HEADs per page, one
		// GET per overflow/bundle object, the cost Table 3 charges this
		// architecture for every query class. Uncached it is the live paged
		// scan, one LIST page resident at a time, and a subject whose records
		// rode several carrier PUTs streams in pieces.
		s.scanSeq(ctx, nil)(yield)
		return
	}
	// Anything filtered or traversed needs whole subjects (records can split
	// across carrier PUTs) and possibly reverse edges: the graph from the same
	// single scan, zero cloud ops when warm.
	core.RunOnGraph(ctx, q, s, yield)
}

// Explain implements core.Querier: on this architecture every cold plan is
// the same full scan Table 3 charges — LIST pages, one HEAD per object,
// one GET per overflow/bundle object — and every warm plan is free.
func (s *Store) Explain(q prov.Query) core.QueryPlan {
	// Exact only while every region mutation was this client's own: the
	// catalog never sees other writers' objects.
	p := core.QueryPlan{Arch: s.Name(), Exact: s.writes.Foreign() == 0}
	return core.Explain(p, q, s, &s.pins, func(p *core.QueryPlan, _ prov.Query) {
		if s.cache.Warm() {
			p.Strategy, p.Cached = "snapshot", true
			p.AddStep("-", "snapshot", 0, "warm snapshot: zero cloud ops")
			return
		}
		p.Strategy = "scan"
		objects, gets := s.catalog.ScanCost()
		p.AddStep("S3", "LIST", core.PlanPages(objects, s3.DefaultMaxKeys), "page the data prefix")
		p.AddStep("S3", "HEAD", int64(objects), "provenance rides object metadata: one HEAD per object")
		if gets > 0 {
			p.AddStep("S3", "GET", gets, "resolve overflow and bundle objects")
		}
	})
}

// Sync persists any buffered transient provenance that no descendant PUT
// carried (processes whose flush trailed the session's last file close).
// The records ride a one-byte marker object so they remain discoverable by
// the metadata scan, preserving this architecture's single-PUT atomicity.
func (s *Store) Sync(ctx context.Context) error {
	return s.cache.Follow(s.writes, func() (qcache.Landed, error) {
		marker, err := s.sync(ctx)
		return landedPuts(marker), err
	})
}

// sync persists the trailing transient provenance, returning the marker PUT
// that landed (nil: nothing to persist).
func (s *Store) sync(ctx context.Context) ([]dataPut, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	foreign := s.foreign
	s.foreign = nil
	seq := s.pnodeSeq
	s.pnodeSeq++
	s.mu.Unlock()
	if len(foreign) == 0 {
		return nil, nil
	}
	// The marker PUT below changes what a scan sees; even a failed attempt
	// may have written overflow objects.
	defer s.writes.Bump()

	subject := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/.pnodes/%06d", seq)), Version: 0}
	restore := func() {
		s.mu.Lock()
		s.foreign = append(foreign, s.foreign...)
		s.mu.Unlock()
	}
	p, err := s.assemble(ctx, subject, []byte{'.'}, nil, foreign)
	if err != nil {
		restore()
		return nil, err
	}
	if err := s.land(ctx, "s3only/pnode-put", p); err != nil {
		// The records did not persist: put them back so a later Sync
		// retries them, and release the marker sequence number so that
		// retry targets the same key (an overwrite, never a duplicate
		// marker carrying the same records).
		restore()
		s.mu.Lock()
		if s.pnodeSeq == seq+1 {
			s.pnodeSeq = seq
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("s3only: pnode put: %w", err)
	}
	return []dataPut{p}, nil
}

// Audit implements integrity.Auditor: a live paged scan — never the query
// cache, a cached snapshot could mask live tampering — that unions each
// subject's stored records and harvests every surviving checkpoint rider
// from the carrier metadata. RetainsHistory is false: this architecture
// overwrites an object's metadata in place, so superseded file versions
// legitimately vanish and a missing predecessor is not a divergence.
func (s *Store) Audit(ctx context.Context) (*integrity.Audit, error) {
	a := &integrity.Audit{Entries: make(map[prov.Ref][]prov.Record)}
	for c, err := range s.carriers(ctx, false, nil) {
		if err != nil {
			return nil, err
		}
		if tok, ok := c.meta[integrity.AttrRoot]; ok {
			if cp, err := integrity.ParseCheckpoint(tok); err == nil {
				a.Checkpoints = append(a.Checkpoints, cp)
			}
		}
		for _, r := range c.records {
			a.Entries[r.Subject] = append(a.Entries[r.Subject], r)
		}
	}
	return a, nil
}

// RetryStats snapshots the store's retry counters.
func (s *Store) RetryStats() retry.Snapshot { return s.retrier.Snapshot() }

var (
	_ core.Store        = (*Store)(nil)
	_ core.Querier      = (*Store)(nil)
	_ core.GraphQuerier = (*Store)(nil)
	_ core.Syncer       = (*Store)(nil)
)
