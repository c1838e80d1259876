package s3sdbsqs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

func testEvent(object string, version int, data string, extra ...prov.Record) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID(object), Version: prov.Version(version)}
	records := []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeFile),
		prov.NewString(ref, prov.AttrName, object),
	}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte(data), Records: append(records, extra...)}
}

// pumpUntilDrained runs fresh daemons (restart semantics) until a round
// commits nothing and holds no pending transactions.
func pumpUntilDrained(t *testing.T, cl *cloud.Cloud, st *Store, faults *sim.FaultPlan) {
	t.Helper()
	for i := 0; i < 12; i++ {
		d := NewCommitDaemon(st, faults)
		d.Visibility = 10 * time.Second
		n, err := d.RunOnce(context.Background(), true)
		cl.Clock.Advance(11 * time.Second)
		cl.Settle()
		if err == nil && n == 0 && d.PendingTransactions() == 0 {
			return
		}
	}
	t.Fatal("daemon never drained")
}

// TestCommitRedeliveryDoesNotDoubleCommit crashes the daemon between the
// SimpleDB provenance write and the WAL message deletes — the §4.3
// redelivery window. A restarted daemon reprocesses the whole transaction;
// the final state must be single-application: one consistent object, no
// duplicated provenance records.
func TestCommitRedeliveryDoesNotDoubleCommit(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 42, MaxDelay: time.Second, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch(ctx, []pass.FlushEvent{testEvent("/redeliver", 0, "payload")}); err != nil {
		t.Fatalf("log phase: %v", err)
	}
	cl.Settle()

	// First daemon crashes after writing provenance, before deleting the
	// WAL messages.
	faults.Arm(PointCommitAfterProvWrite)
	d1 := NewCommitDaemon(st, faults)
	d1.Visibility = 10 * time.Second
	if _, err := d1.RunOnce(ctx, true); !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	cl.Clock.Advance(11 * time.Second) // past visibility: messages redeliver
	cl.Settle()

	// A restarted daemon must reprocess the redelivered transaction to
	// completion without double-applying.
	pumpUntilDrained(t, cl, st, nil)

	obj, err := st.Get(ctx, "/redeliver")
	if err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
	if string(obj.Data) != "payload" {
		t.Fatalf("data = %q, want %q", obj.Data, "payload")
	}
	seen := map[string]int{}
	for _, r := range obj.Records {
		seen[r.Attr+"="+r.Value.String()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("record %q applied %d times after redelivery", k, n)
		}
	}
	if n, _ := cl.SQS.Exact(st.Queue()); n != 0 {
		t.Errorf("%d WAL messages left after recovery", n)
	}
}

// TestDuplicateCopiesCannotCompleteTransaction is the minimized regression
// for the count-by-copies bug: duplicate message copies (redelivery, or a
// client re-sending after a lost response) must never make a transaction
// look complete while a distinct record is missing.
func TestDuplicateCopiesCannotCompleteTransaction(t *testing.T) {
	tx := &txState{seqSeen: make(map[int]bool), receipts: make(map[string]string)}
	d := &CommitDaemon{pending: map[string]*txState{"tx1": tx}}

	absorb := func(msgID string, m walMessage) {
		d.absorb(m, sqs.Message{ID: msgID, ReceiptHandle: "r-" + msgID})
	}
	// A 4-message transaction: begin(0), prov(1), prov(2), commit(3).
	absorb("m0", walMessage{TxID: "tx1", Kind: kindBegin, Seq: 0, Count: 4})
	absorb("m1", walMessage{TxID: "tx1", Kind: kindProv, Seq: 1, Item: "foo_0"})
	// Seq 1 delivered twice more (a retried send and a redelivery); seq 2
	// is still missing. Under the old have>=count arithmetic these copies
	// would complete the transaction.
	absorb("m1b", walMessage{TxID: "tx1", Kind: kindProv, Seq: 1, Item: "foo_0"})
	absorb("m1c", walMessage{TxID: "tx1", Kind: kindProv, Seq: 1, Item: "foo_0"})
	absorb("m3", walMessage{TxID: "tx1", Kind: kindCommit, Seq: 3})
	if tx.complete() {
		t.Fatal("transaction completed from duplicate copies while seq 2 is missing")
	}
	absorb("m2", walMessage{TxID: "tx1", Kind: kindProv, Seq: 2, Item: "foo_0"})
	if !tx.complete() {
		t.Fatal("transaction with every distinct seq should be complete")
	}
	// Every copy's receipt must be tracked so the commit deletes them all.
	if len(tx.receipts) != 6 {
		t.Fatalf("tracked %d receipts, want 6 (duplicates must be deleted too)", len(tx.receipts))
	}
}

// TestStaleRedeliveryCannotRegressNewerVersion covers the crash-before-
// delete window followed by a newer commit: when v0's transaction
// redelivers after v1 already committed, replaying its COPY must not roll
// the object back. The propagation horizon (30s) deliberately exceeds the
// redelivery gap (9s), so v1's COPY has NOT converged when the replayed
// transaction is processed — the guard must wait out the horizon rather
// than trust whichever replica a HEAD happens to hit.
func TestStaleRedeliveryCannotRegressNewerVersion(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 2, MaxDelay: 30 * time.Second, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}

	// v0 logs and its daemon crashes after the provenance write — the WAL
	// messages survive and will redeliver. The 36s visibility outlasts the
	// settle before v1's commit round (so v0 stays locked through it) but
	// expires inside v1's 30s propagation window after its COPY.
	if err := st.PutBatch(ctx, []pass.FlushEvent{testEvent("/obj", 0, "old")}); err != nil {
		t.Fatal(err)
	}
	cl.Settle()
	faults.Arm(PointCommitAfterProvWrite)
	d1 := NewCommitDaemon(st, faults)
	d1.Visibility = 36 * time.Second
	if _, err := d1.RunOnce(ctx, true); !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}

	// v1 logs and commits cleanly on a fresh daemon while v0's messages
	// are still visibility-locked by the crashed round — so v1 lands in an
	// earlier round than v0's redelivery, and only the replay guard (not
	// same-round version ordering) can protect it. The fresh daemon knows
	// nothing about v0's transaction, exactly like a restart.
	if err := st.PutBatch(ctx, []pass.FlushEvent{testEvent("/obj", 1, "new")}); err != nil {
		t.Fatal(err)
	}
	cl.Clock.Advance(2 * time.Second) // v0 messages stay locked (36s visibility)
	cl.Settle()                       // v1's tmp object must be visible to its daemon
	d2 := NewCommitDaemon(st, nil)
	d2.Visibility = time.Second
	if n, err := d2.RunOnce(ctx, true); err != nil || n != 1 {
		t.Fatalf("v1 commit round: n=%d err=%v", n, err)
	}
	// Let v0's transaction redeliver to yet another fresh daemon while
	// v1's COPY is still inside the propagation window (9s < 30s horizon)
	// — no Settle here, that is the point.
	cl.Clock.Advance(9 * time.Second)
	pumpUntilDrained(t, cl, st, nil)

	obj, err := st.Get(ctx, "/obj")
	if err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
	if obj.Ref.Version != 1 || string(obj.Data) != "new" {
		t.Fatalf("object regressed: have v%d %q, want v1 %q", obj.Ref.Version, obj.Data, "new")
	}
}

// TestIncompleteTransactionPrunedAfterRetention: a transaction whose client
// crashed mid-log can never complete; once SQS retention has reaped its
// messages the daemon must drop the assembled fragment instead of holding
// it forever.
func TestIncompleteTransactionPrunedAfterRetention(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 3, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	// Crash after the first WAL record: begin + one record, no commit.
	faults.Arm(PointAfterRecord[0])
	err = st.PutBatch(ctx, []pass.FlushEvent{testEvent("/wedge", 0, "x")})
	if !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}

	d := NewCommitDaemon(st, faults)
	d.Visibility = time.Second
	if _, err := d.RunOnce(ctx, true); err != nil {
		t.Fatal(err)
	}
	if d.PendingTransactions() == 0 {
		t.Fatal("expected an incomplete transaction to be pending")
	}
	// Past retention, the same daemon must prune the fragment.
	cl.Clock.Advance(sqs.RetentionPeriod + time.Hour)
	if _, err := d.RunOnce(ctx, true); err != nil {
		t.Fatal(err)
	}
	if n := d.PendingTransactions(); n != 0 {
		t.Fatalf("%d incomplete transactions still pending after retention", n)
	}
}

// TestCommittedLogPhaseReportsLanded: a crash after the commit record is on
// the queue must tell the flush layer the batch landed — the transaction
// will commit; replaying it would log a duplicate transaction.
func TestCommittedLogPhaseReportsLanded(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 5, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm(PointAfterCommit)
	ev := testEvent("/sealed", 0, "data")
	err = st.PutBatch(ctx, []pass.FlushEvent{ev})
	if !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	var pw *core.PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("expected PartialWriteError, got %T: %v", err, err)
	}
	if len(pw.Landed) != 1 || pw.Landed[0] != ev.Ref {
		t.Fatalf("landed = %v, want [%s]", pw.Landed, ev.Ref)
	}
	if !strings.Contains(pw.Error(), "1 events landed") {
		t.Fatalf("unexpected error rendering: %v", pw)
	}
}

// TestReplayedOversizedItemSplitsAsBefore: a daemon that crashed between the
// PutAttributes chunks of an oversized item left part of its attributes
// behind. The restarted daemon receives the item's log chunks in the other
// order, and must still split the item between its attributes and its spill
// object as the crashed attempt did, or the two attempts' attributes
// together overfill the item.
func TestReplayedOversizedItemSplitsAsBefore(t *testing.T) {
	ctx := context.Background()
	// One plan for the store and the daemon.
	faults := sim.NewFaultPlan()
	st, _, cl := newTestStore(t, faults, 0)
	var records []prov.Record
	ref := prov.Ref{Object: "proc/1/wide", Version: 0}
	for i := 0; i < 300; i++ {
		records = append(records, prov.NewString(ref, fmt.Sprintf("k%03d", i), strings.Repeat("v", 40)))
	}
	ev := procEvent("wide", 1, records...)
	if err := core.Put(ctx, st, ev); err != nil {
		t.Fatal(err)
	}
	// commit drains the log into a fresh daemon and commits it with each
	// transaction's chunks in log order, or reversed.
	commit := func(reversed bool) error {
		d := NewCommitDaemon(st, faults)
		if err := d.drain(ctx); err != nil {
			return err
		}
		for _, tx := range d.pending {
			slices.SortFunc(tx.provMsgs, func(a, b walMessage) int { return a.Seq - b.Seq })
			if reversed {
				slices.Reverse(tx.provMsgs)
			}
		}
		cl.Clock.Advance(d.Visibility + time.Second)
		_, err := d.processReady(ctx)
		return err
	}
	faults.Arm(PointCommitAfterChunk)
	if err := commit(false); !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("daemon did not crash between chunks: %v", err)
	}
	if err := commit(true); err != nil {
		t.Fatalf("replay: %v", err)
	}
	got, err := st.Provenance(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ev.Records) {
		t.Fatalf("replayed item holds %d records, want %d", len(got), len(ev.Records))
	}
}

// TestDaemonPlanArmsCommitWritePoints: the commit daemon's SimpleDB write
// points are checked against the plan the daemon was given, not the
// store's. Each point is armed on a daemon-only plan — the store has none —
// and the daemon must crash there: the spill and chunk points on an item
// past both SimpleDB limits, the batch point on a small one.
func TestDaemonPlanArmsCommitWritePoints(t *testing.T) {
	ctx := context.Background()
	wide := procEvent("wide", 1)
	for i := 0; i < 300; i++ {
		wide.Records = append(wide.Records, prov.NewString(wide.Ref, fmt.Sprintf("k%03d", i), strings.Repeat("v", 40)))
	}
	for _, tc := range []struct {
		point *sim.Point
		ev    pass.FlushEvent
	}{
		{PointCommitAfterSpillPut, wide},
		{PointCommitAfterChunk, wide},
		{PointCommitAfterBatchPut, fileEvent("/small", 0, "small")},
	} {
		st, _, _ := newTestStore(t, nil, 0)
		if err := core.Put(ctx, st, tc.ev); err != nil {
			t.Fatal(err)
		}
		plan := sim.NewFaultPlan()
		plan.Arm(tc.point)
		if _, err := NewCommitDaemon(st, plan).RunOnce(ctx, true); !errors.Is(err, sim.ErrCrash) {
			t.Errorf("%v armed on the daemon's plan: RunOnce returned %v, want a crash", tc.point, err)
		}
	}
}
