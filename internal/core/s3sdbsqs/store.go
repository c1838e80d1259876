// Package s3sdbsqs implements the paper's third architecture (§4.3,
// Figure 3): data in S3, provenance in SimpleDB, and an SQS queue per
// client used as a write-ahead log to restore atomicity — and with it read
// correctness — on top of the second architecture.
//
// The protocol has two phases. The log phase (Store.PutBatch) runs at the
// client: it records everything the transaction will do on the WAL queue —
// a begin record with the transaction's record count, a pointer per file
// version to a temporary S3 object holding its data ("we store the file as
// a temporary S3 object, recording a pointer to the temporary object in
// the WAL queue"), the provenance in 8 KB chunks, the MD5 consistency
// records, and finally a commit record. One PASS flush batch — a close's
// whole ancestor chain — is one transaction, so begin/commit overhead is
// paid once per close rather than once per version. The commit phase
// (CommitDaemon) drains the queue, pushes committed transactions to S3 and
// SimpleDB (items grouped into BatchPutAttributes calls), and only then
// deletes the log records and the temporary objects.
//
// Idempotency makes replay after daemon crashes safe: COPY-then-delete (not
// rename) keeps the temporary object until the very end, and S3 and
// SimpleDB writes are idempotent. Uncommitted transactions are ignored;
// SQS's four-day retention reaps their messages and the Cleaner daemon
// reaps their temporary objects.
package s3sdbsqs

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// TmpPrefix prefixes temporary data objects awaiting commit.
const TmpPrefix = "tmp/"

// Points are the architecture's crash points, in protocol order: the
// client's log phase ("wal/"), then the commit daemon ("commit/"), the ones
// each passes the SimpleDB layer included. Its windows are where Table 1's
// atomicity check crashes the client.
var Points sim.Points

// The log phase's crash points: around the begin record, after an overflow
// object's PUT, after each temporary object's PUT, after the first two log
// records (by index), and around the commit record.
var (
	PointBeforeBegin      = Points.Declare("wal/before-begin")
	PointAfterBegin       = Points.DeclareWindow("wal/after-begin")
	PointAfterOverflowPut = Points.Declare("wal/after-overflow-put")
	PointAfterTmpPut      = Points.DeclareWindow("wal/after-tmp-put")
	PointAfterRecord      = [...]*sim.Point{Points.DeclareWindow("wal/after-record-0"), Points.DeclareWindow("wal/after-record-1")}
	PointBeforeCommit     = Points.DeclareWindow("wal/before-commit")
	PointAfterCommit      = Points.DeclareWindow("wal/after-commit")
)

// The commit daemon's crash points: after each COPY out of a temporary
// object, the layer's spill, chunk and batch steps, after the provenance
// write, after the log records' deletion and after the temporaries'.
var (
	PointCommitAfterCopy           = Points.Declare("commit/after-copy")
	PointCommitAfterSpillPut       = Points.Declare("commit/after-spill-put")
	PointCommitAfterChunk          = Points.Declare("commit/after-putattrs-chunk")
	PointCommitAfterBatchPut       = Points.Declare("commit/after-batchput")
	PointCommitAfterProvWrite      = Points.Declare("commit/after-prov-write")
	PointCommitAfterDeleteMessages = Points.Declare("commit/after-delete-messages")
	PointCommitAfterTmpDelete      = Points.Declare("commit/after-tmp-delete")
)

// Config parameterizes the store.
type Config struct {
	// Cloud supplies S3, SimpleDB and SQS. Required.
	Cloud *cloud.Cloud
	// Bucket and Domain follow sdbprov defaults when empty.
	Bucket string
	Domain string
	// ClientID names this client's WAL queue ("Each client has an SQS
	// queue that it uses as a write-ahead log"). Defaults to "client0".
	ClientID string
	// Faults optionally injects client crashes at protocol points.
	Faults *sim.FaultPlan
	// DisableQueryCache turns off the sdbprov layer's generation-stamped
	// query cache, restoring the paper's one-query-run-per-call costs.
	DisableQueryCache bool
	// Retry bounds the transient-error backoff around every cloud call.
	Retry retry.Policy
	// DisableIntegrity turns off the Merkle ledger and checkpoint riders —
	// the op-count parity baseline. Checkpoints are stamped with the
	// ClientID, so clients sharing a domain commit to their own writes.
	DisableIntegrity bool
}

// Store is the S3+SimpleDB+SQS architecture (client side): the log phase
// here, everything else the read side shared with architecture 2. Data
// logged but not yet committed is invisible to it until the commit daemon
// runs.
type Store struct {
	sdbprov.ReadSide
	cloud  *cloud.Cloud
	faults *sim.FaultPlan
	queue  string

	mu sync.Mutex
	// logged tracks the highest version this client has committed to the
	// WAL per object. Partial-batch recovery can reorder flushes across
	// retries; an older pending version logged after a newer one must not
	// carry a data record, or the commit daemon would regress the object.
	logged map[prov.ObjectID]prov.Version
}

// New builds the store, creating bucket, domain and WAL queue if needed.
func New(cfg Config) (*Store, error) {
	if cfg.Cloud == nil {
		return nil, errors.New("s3sdbsqs: Config.Cloud is required")
	}
	if cfg.ClientID == "" {
		cfg.ClientID = "client0"
	}
	layer, err := sdbprov.New(sdbprov.Config{
		Cloud:             cfg.Cloud,
		Bucket:            cfg.Bucket,
		Domain:            cfg.Domain,
		Faults:            cfg.Faults,
		DisableQueryCache: cfg.DisableQueryCache,
		Retry:             cfg.Retry,
		Writer:            cfg.ClientID,
		DisableIntegrity:  cfg.DisableIntegrity,
	})
	if err != nil {
		return nil, err
	}
	queue := "wal-" + cfg.ClientID
	//passvet:allow retrywrap -- one-shot namespace setup at construction: no caller context exists yet, and a failure surfaces directly instead of being retried behind the builder's back
	if err := cfg.Cloud.SQS.CreateQueue(queue); err != nil && !errors.Is(err, sqs.ErrQueueExists) {
		return nil, err
	}
	return &Store{ReadSide: sdbprov.NewReadSide(layer, archName), cloud: cfg.Cloud,
		faults: cfg.Faults, queue: queue, logged: make(map[prov.ObjectID]prov.Version)}, nil
}

const archName = "s3+sdb+sqs"

// Name implements core.Store.
func (s *Store) Name() string { return archName }

// Properties implements core.Store: Table 1 row 3 — everything.
func (s *Store) Properties() core.Properties {
	return core.Properties{
		Atomicity:      true,
		Consistency:    true,
		CausalOrdering: true,
		EfficientQuery: true,
	}
}

// Queue returns the WAL queue name.
func (s *Store) Queue() string { return s.queue }

// PutBatch implements core.Store: the §4.3 log phase, batch-first. The
// whole batch becomes ONE write-ahead-log transaction — a single begin
// record, one temporary-object pointer per file version, the batch's
// provenance in 8 KB chunks, the MD5 consistency records, and a single
// commit — so a close with K unpersisted ancestors pays one begin/commit
// pair instead of K, and the commit daemon can push the whole batch's
// items to SimpleDB with grouped BatchPutAttributes calls.
//
// Nothing touches the real data keys or the provenance domain here — only
// the WAL queue and temporary objects. A crash (or context cancellation)
// at any point leaves an uncommitted transaction that the commit daemon
// ignores and the cleaner eventually reaps, so a retried batch is safe.
func (s *Store) PutBatch(ctx context.Context, batch []pass.FlushEvent) error {
	return s.Layer().Writes().Own(func() error { return s.putBatch(ctx, batch) })
}

func (s *Store) putBatch(ctx context.Context, batch []pass.FlushEvent) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	// Query-visible state only changes when the commit daemon pushes this
	// transaction (WriteEncodedBatch bumps the layer's generation then),
	// but the contract is that every PutBatch invalidates: a retried or
	// replayed batch must never be answered from a pre-write snapshot.
	defer s.Layer().Writes().Bump()
	txid := s.cloud.RNG.Hex(8)

	// Assemble the messages that follow begin: per event — data pointer,
	// provenance chunks, MD5 record. Pre-encoding sends >1 KB values to S3
	// now, as the paper's formula requires (N_provrecs>1KB extra PUTs in
	// this architecture too); the WAL carries pointers.
	type tmpPut struct {
		key  string
		data []byte
		meta map[string]string
	}
	var msgs []walMessage
	var tmps []tmpPut
	for i, ev := range batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		item := prov.EncodeItemName(ev.Ref)
		// The integrity leaf hashes the ORIGINAL record set, before value
		// encoding diverts >1 KB values to pointers; it travels in the WAL
		// because the commit daemon never sees the decoded form.
		var leaf string
		if s.Layer().IntegrityEnabled() {
			leaf = integrity.SubjectHash(ev.Ref, ev.Records)
		}
		encoded, err := s.Layer().EncodeValues(ctx, ev.Ref, ev.Records, PointAfterOverflowPut)
		if err != nil {
			return err
		}
		chunks, err := prov.ChunkJSON(encoded, walChunkBudget)
		if err != nil {
			return err
		}
		s.mu.Lock()
		stale := ev.Persistent() && s.logged[ev.Ref.Object] > ev.Ref.Version
		s.mu.Unlock()
		var nonce, md5hex string
		if ev.Persistent() && !stale {
			// An event whose object already logged a newer version keeps
			// its provenance records but drops the data pointer: replaying
			// the old bytes through the commit daemon would regress the
			// object the newer transaction committed.
			nonce = strconv.Itoa(int(ev.Ref.Version)) + "-" + s.cloud.RNG.Hex(4)
			md5hex = sdbprov.ConsistencyMD5(ev.Data, nonce)
			tmpKey := fmt.Sprintf("%s%s-%d", TmpPrefix, txid, i)
			msgs = append(msgs, walMessage{
				TxID:    txid,
				Kind:    kindData,
				TmpKey:  tmpKey,
				RealKey: core.DataKey(ev.Ref.Object),
				Nonce:   nonce,
				Version: int(ev.Ref.Version),
			})
			tmps = append(tmps, tmpPut{key: tmpKey, data: ev.Data, meta: map[string]string{
				core.MetaNonce:   nonce,
				core.MetaVersion: strconv.Itoa(int(ev.Ref.Version)),
			}})
		}
		for _, chunk := range chunks {
			msgs = append(msgs, walMessage{TxID: txid, Kind: kindProv, Item: item, Records: chunk, Leaf: leaf})
		}
		if ev.Persistent() && !stale {
			msgs = append(msgs, walMessage{TxID: txid, Kind: kindMD5, Item: item, MD5: md5hex})
		}
	}
	// Seq-number the transaction: begin=0, records 1..N, commit=N+1. The
	// daemon assembles by distinct Seq, so duplicate deliveries and
	// duplicate (retried) sends collapse instead of inflating the count.
	total := len(msgs) + 2
	for i := range msgs {
		msgs[i].Seq = i + 1
	}
	commit := walMessage{TxID: txid, Kind: kindCommit, Seq: total - 1}

	// 1(b): begin record with the transaction's record count.
	if err := s.faults.Check(PointBeforeBegin); err != nil {
		return err
	}
	if err := s.send(ctx, walMessage{TxID: txid, Kind: kindBegin, Seq: 0, Count: total}); err != nil {
		return err
	}
	if err := s.faults.Check(PointAfterBegin); err != nil {
		return err
	}

	// 1(c): data goes to temporary objects; only pointers enter the log
	// ("we cannot directly record large data items on the WAL queue").
	// Re-PUT of the same temporary key/content is idempotent under retry.
	for _, tp := range tmps {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := s.Layer().Retrier().Do(ctx, "s3sdbsqs/tmp-put", func() error {
			return s.cloud.S3.Put(s.Layer().Bucket(), tp.key, tp.data, tp.meta)
		})
		if err != nil {
			return fmt.Errorf("s3sdbsqs: temp put: %w", err)
		}
		if err := s.faults.Check(PointAfterTmpPut); err != nil {
			return err
		}
	}

	// 1(c)–1(d): data pointers, provenance chunks, MD5 records.
	for i, m := range msgs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.send(ctx, m); err != nil {
			return err
		}
		if i < len(PointAfterRecord) {
			if err := s.faults.Check(PointAfterRecord[i]); err != nil {
				return err
			}
		}
	}
	if err := s.faults.Check(PointBeforeCommit); err != nil {
		return err
	}

	// 1(e): the commit record seals the transaction.
	if err := s.send(ctx, commit); err != nil {
		return err
	}
	// The transaction is sealed: remember the versions it will commit so a
	// reordered retry of an older pending version cannot log a data record
	// over them.
	s.mu.Lock()
	for _, ev := range batch {
		if ev.Persistent() && ev.Ref.Version > s.logged[ev.Ref.Object] {
			s.logged[ev.Ref.Object] = ev.Ref.Version
		}
	}
	s.mu.Unlock()
	if err := s.faults.Check(PointAfterCommit); err != nil {
		// The commit record is already on the queue: the transaction WILL
		// commit once the daemon drains it. Report every event as landed so
		// the caller does not replay the batch into a second transaction.
		landed := make([]prov.Ref, len(batch))
		for i, ev := range batch {
			landed[i] = ev.Ref
		}
		return core.PartialWrite(landed, err)
	}
	return nil
}

// send encodes and enqueues one WAL message, retrying transient SQS errors.
// A send retried after a lost response duplicates the message; the daemon's
// Seq-based assembly makes that harmless.
func (s *Store) send(ctx context.Context, m walMessage) error {
	body, err := m.encode()
	if err != nil {
		return err
	}
	err = s.Layer().Retrier().Do(ctx, "s3sdbsqs/wal-send", func() error {
		_, serr := s.cloud.SQS.SendMessage(s.queue, body)
		return serr
	})
	if err != nil {
		return fmt.Errorf("s3sdbsqs: wal send: %w", err)
	}
	return nil
}

var (
	_ core.Store        = (*Store)(nil)
	_ core.Querier      = (*Store)(nil)
	_ core.GraphQuerier = (*Store)(nil)
)
