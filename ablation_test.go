package passcloud

// Ablation tests: each design decision the paper argues for is tested by
// building the rejected alternative and demonstrating the failure the paper
// predicts.
//
//   - §4.1: a provenance database cached at clients and stored as one S3
//     object corrupts under concurrent update ("the database can become
//     corrupt if two clients pick up the same version of the database and
//     update it independently");
//   - §4.2: MD5 without the nonce misses the same-content overwrite
//     ("new provenance will be generated but the MD5sum of the data will
//     be the same as before");
//   - §4.3: renaming the temporary object instead of COPY-then-delete
//     breaks idempotent replay ("If we instead rename the temporary object
//     ... it cannot re-run the operations on system restart").

import (
	"context"
	"errors"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/core"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/prov"
)

// TestAblationSharedDatabaseOnS3LosesUpdates builds the §4.1 rejected
// design: the whole provenance "database" is one S3 object that clients
// download, modify, and upload. Two clients racing on it lose one client's
// records — which is exactly why the paper stores provenance per object.
func TestAblationSharedDatabaseOnS3LosesUpdates(t *testing.T) {
	ctx := context.Background()
	_ = ctx
	cl := cloud.New(cloud.Config{Seed: 3})
	if err := cl.S3.CreateBucket("pass"); err != nil {
		t.Fatal(err)
	}
	const dbKey = "provdb"

	// Seed the shared database with one record.
	seed := []prov.Record{prov.NewString(prov.Ref{Object: "/seed", Version: 0}, prov.AttrType, prov.TypeFile)}
	blob, err := prov.MarshalJSONRecords(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.S3.Put("pass", dbKey, blob, nil); err != nil {
		t.Fatal(err)
	}

	// Both clients download (cache) the same version...
	readDB := func() []prov.Record {
		obj, err := cl.S3.Get("pass", dbKey)
		if err != nil {
			t.Fatal(err)
		}
		records, err := prov.UnmarshalJSONRecords(obj.Body)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	cacheA := readDB()
	cacheB := readDB()

	// ...and independently add their own records, then upload.
	recA := prov.NewString(prov.Ref{Object: "/from-a", Version: 0}, prov.AttrType, prov.TypeFile)
	recB := prov.NewString(prov.Ref{Object: "/from-b", Version: 0}, prov.AttrType, prov.TypeFile)
	writeDB := func(records []prov.Record) {
		blob, err := prov.MarshalJSONRecords(records)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.S3.Put("pass", dbKey, blob, nil); err != nil {
			t.Fatal(err)
		}
	}
	writeDB(append(cacheA, recA))
	writeDB(append(cacheB, recB)) // last PUT wins

	final := readDB()
	subjects := map[prov.Ref]bool{}
	for _, r := range final {
		subjects[r.Subject] = true
	}
	if !subjects[recB.Subject] {
		t.Fatal("second writer's record missing; LWW did not apply")
	}
	if subjects[recA.Subject] {
		t.Fatal("both records survived; the shared-database design did not exhibit the lost update — the ablation premise is wrong")
	}
	// The paper's conclusion: client A's provenance is silently gone.
}

// TestAblationMD5WithoutNonceMissesSameContentOverwrite removes the nonce
// from the consistency record and shows the detector goes blind exactly
// where §4.2 predicts: a file overwritten with identical bytes.
func TestAblationMD5WithoutNonceMissesSameContentOverwrite(t *testing.T) {
	data := []byte("identical bytes both times")

	// Version 0 and version 1 store the same bytes.
	// Without a nonce, the consistency records collide...
	noNonceV0 := sdbprov.ConsistencyMD5(data, "")
	noNonceV1 := sdbprov.ConsistencyMD5(data, "")
	if noNonceV0 != noNonceV1 {
		t.Fatal("setup broken: same data hashed differently")
	}
	// ...so a reader holding version 1's provenance and version 0's stale
	// data verifies "consistent" — a silent read-correctness violation.
	staleDataDigest := noNonceV0
	if staleDataDigest != noNonceV1 {
		t.Fatal("unreachable")
	}

	// With version-derived nonces, the digests differ and the stale pair
	// is detected.
	withNonceV0 := sdbprov.ConsistencyMD5(data, "0-aaaa")
	withNonceV1 := sdbprov.ConsistencyMD5(data, "1-bbbb")
	if withNonceV0 == withNonceV1 {
		t.Fatal("nonce failed to separate identical-content versions")
	}
}

// TestAblationRenameBreaksCommitReplay mutates the commit protocol to
// rename (copy + immediately delete the temporary object) and shows replay
// after a daemon crash cannot re-run: the temporary object is gone. The
// paper: "It is important to COPY the temporary objects to their permanent
// locations before deleting them to maintain idempotency."
func TestAblationRenameBreaksCommitReplay(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 5})
	if err := cl.S3.CreateBucket("pass"); err != nil {
		t.Fatal(err)
	}
	const (
		tmpKey  = "tmp/tx1"
		realKey = "data/obj"
	)
	if err := cl.S3.Put("pass", tmpKey, []byte("payload"), nil); err != nil {
		t.Fatal(err)
	}

	// The rename variant: COPY then DELETE the temp at once, before the
	// WAL messages are acknowledged.
	if err := cl.S3.Copy("pass", tmpKey, "pass", realKey, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.S3.Delete("pass", tmpKey); err != nil {
		t.Fatal(err)
	}

	// Daemon crashes here: messages were never deleted, so after the
	// visibility timeout the transaction is redelivered and replayed.
	// The replayed COPY now fails — the rename destroyed its source.
	err := cl.S3.Copy("pass", tmpKey, "pass", realKey, nil)
	if !errors.Is(err, s3.ErrNoSuchKey) {
		t.Fatalf("replayed copy after rename: err = %v, want NoSuchKey (replay impossible)", err)
	}

	// The paper's protocol — keep the temp until after message deletion —
	// replays cleanly (verified in s3sdbsqs's TestDaemonCrashReplayIsIdempotent).
}

// TestAblationEventualConsistencyWithoutVerificationTearsReads disables the
// §4.2 read verification (raw GET + GetAttributes, no MD5 comparison) and
// demonstrates the torn read the paper's consistency property exists to
// prevent.
func TestAblationEventualConsistencyWithoutVerificationTearsReads(t *testing.T) {
	ctx := context.Background()
	cl := cloud.New(cloud.Config{Seed: 11, MaxDelay: 30 * time.Second})
	layer, err := sdbprov.New(sdbprov.Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}

	// Store three generations, marking data and provenance with matching
	// generation tags; partial propagation between writes.
	for v := 0; v < 3; v++ {
		ref := prov.Ref{Object: "/t", Version: prov.Version(v)}
		marker := []byte{byte('0' + v)}
		nonce := string(marker)
		if err := layer.WriteEncodedBatch(ctx, []sdbprov.ItemWrite{{
			Subject: ref,
			Records: []prov.Record{prov.NewString(ref, prov.AttrEnv, string(marker))},
			MD5:     sdbprov.ConsistencyMD5(marker, nonce),
		}}, sdbprov.WritePoints{}); err != nil {
			t.Fatal(err)
		}
		meta := map[string]string{core.MetaNonce: nonce, core.MetaVersion: "0"}
		// Note: version metadata deliberately pinned to 0 so the naive
		// reader always pairs the data with version 0's provenance.
		if err := cl.S3.Put("pass", core.DataKey("/t"), marker, meta); err != nil {
			t.Fatal(err)
		}
		cl.Clock.Advance(5 * time.Second)
	}

	// The naive reader: GET data, GET item "t_0", no verification.
	torn := false
	for i := 0; i < 200 && !torn; i++ {
		obj, err := cl.S3.Get("pass", core.DataKey("/t"))
		if err != nil {
			continue
		}
		records, _, ok, err := layer.FetchItem(context.Background(), prov.Ref{Object: "/t", Version: 0})
		if err != nil || !ok {
			continue
		}
		for _, r := range records {
			if r.Attr == prov.AttrEnv && r.Value.Str != string(obj.Body) {
				torn = true // data from one generation, provenance from another
			}
		}
	}
	if !torn {
		t.Fatal("naive unverified reads never tore; the consistency mechanism would be unnecessary")
	}

	// The verified reader on the same region either returns a matching
	// pair or an explicit error — never a torn pair.
	for i := 0; i < 100; i++ {
		obj, err := layer.VerifiedGet(ctx, "/t")
		if err != nil {
			continue
		}
		for _, r := range obj.Records {
			if r.Attr == prov.AttrEnv && r.Value.Str != string(obj.Data) {
				t.Fatalf("verified read returned torn pair: %q vs %q", r.Value.Str, obj.Data)
			}
		}
	}
}
