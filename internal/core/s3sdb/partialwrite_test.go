package s3sdb

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

func flushFile(object string, version int, data string) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID(object), Version: prov.Version(version)}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte(data), Records: []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeFile),
		prov.NewString(ref, prov.AttrName, object),
	}}
}

func flushProc(name string) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID("proc/1/" + name), Version: 0}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeProcess, Records: []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeProcess),
		prov.NewString(ref, prov.AttrName, name),
	}}
}

// tightRetry exhausts fast so permanent-style windows surface quickly.
var tightRetry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Budget: 10 * time.Millisecond}

// TestPutBatchPartialFailureListsLandedEvents: when the data phase sinks
// mid-batch, the typed error must list exactly the fully persisted events —
// the transients (provenance-only, landed in step 3) and the files whose
// data PUT completed — and never a file whose provenance landed without
// data.
func TestPutBatchPartialFailureListsLandedEvents(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 1, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}

	proc := flushProc("tool")
	f1 := flushFile("/a", 0, "one")
	f2 := flushFile("/b", 0, "two")
	// Fail the SECOND data PUT (first file lands, second does not) with a
	// permanent error; permanent errors surface without retry, so one
	// fault is one failed batch, and the later repair sails through.
	faults.ArmOp("s3/PUT", sim.ClassPermanent, 1, 1)

	err = st.PutBatch(ctx, []pass.FlushEvent{proc, f1, f2})
	if err == nil {
		t.Fatal("expected the injected fault to fail the batch")
	}
	var pw *core.PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("expected PartialWriteError, got %T: %v", err, err)
	}
	want := map[prov.Ref]bool{proc.Ref: true, f1.Ref: true}
	if len(pw.Landed) != len(want) {
		t.Fatalf("landed = %v, want transients + first file", pw.Landed)
	}
	for _, ref := range pw.Landed {
		if !want[ref] {
			t.Errorf("ref %s reported landed; it must not be (data never PUT)", ref)
		}
	}

	// The surviving half is an orphan until repaired; the retry must
	// complete the batch idempotently.
	cl.Settle()
	if err := st.PutBatch(ctx, []pass.FlushEvent{f2}); err != nil {
		t.Fatalf("retry of the unlanded remainder: %v", err)
	}
	cl.Settle()
	for _, f := range []pass.FlushEvent{f1, f2} {
		obj, err := st.Get(ctx, f.Ref.Object)
		if err != nil {
			t.Fatalf("get %s: %v", f.Ref.Object, err)
		}
		if string(obj.Data) != string(f.Data) {
			t.Errorf("%s: data %q, want %q", f.Ref.Object, obj.Data, f.Data)
		}
	}
}

// TestWriteEncodedBatchPartialFailureListsLandedGroups: a 25+ item batch
// spans several BatchPutAttributes groups; when a later group fails, the
// typed error names the subjects of the groups that flushed, so callers can
// tell a half-landed batch from an all-or-nothing failure.
func TestWriteEncodedBatchPartialFailureListsLandedGroups(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 2, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}
	layer := st.Layer()

	var writes []sdbprov.ItemWrite
	for i := 0; i < 30; i++ { // 2 groups: 25 + 5
		ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/batch/%02d", i)), Version: 0}
		writes = append(writes, sdbprov.ItemWrite{Subject: ref, Records: []prov.Record{
			prov.NewString(ref, prov.AttrType, prov.TypeFile),
		}})
	}
	// First group lands; second group fails permanently.
	faults.ArmOp("sdb/BatchPutAttributes", sim.ClassPermanent, 1, 8)

	err = layer.WriteEncodedBatch(ctx, writes, sdbprov.WritePoints{})
	if err == nil {
		t.Fatal("expected the injected fault to fail the batch")
	}
	var pw *core.PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("expected PartialWriteError, got %T: %v", err, err)
	}
	if len(pw.Landed) != 25 {
		t.Fatalf("landed %d subjects, want the first full group of 25", len(pw.Landed))
	}
	for i, ref := range pw.Landed {
		if ref != writes[i].Subject {
			t.Fatalf("landed[%d] = %s, want %s (batch order)", i, ref, writes[i].Subject)
		}
	}
}

// TestOrphanScanDoesNotReapFreshWrites: a Head served by a stale replica
// right after a write must not get live provenance deleted — candidates are
// re-verified after the propagation horizon.
func TestOrphanScanDoesNotReapFreshWrites(t *testing.T) {
	ctx := context.Background()
	cl := cloud.New(cloud.Config{Seed: 9, MaxDelay: 5 * time.Second})
	st, err := New(Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}
	// Write and scan immediately — no settle, so replicas may not have the
	// data yet.
	if err := st.PutBatch(ctx, []pass.FlushEvent{flushFile("/fresh", 0, "x")}); err != nil {
		t.Fatal(err)
	}
	removed, err := st.OrphanScan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("orphan scan reaped live provenance: %v", removed)
	}
	cl.Settle()
	if _, err := st.Get(ctx, "/fresh"); err != nil {
		t.Fatalf("object unreadable after scan: %v", err)
	}
}
