package sdbprov

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

func newTestLayer(t *testing.T, maxDelay time.Duration) (*Layer, *cloud.Cloud) {
	t.Helper()
	cl := cloud.New(cloud.Config{Seed: 1, MaxDelay: maxDelay})
	layer, err := New(Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}
	return layer, cl
}

// testPoints are the crash points these tests pass the write path.
var testPoints sim.Points

var pointAfterSpillPut = testPoints.Declare("t/after-spill-put")

// writeItem encodes and stores one subject's provenance as a one-element
// batch — the write path the stores use — checking the spill point.
func writeItem(ctx context.Context, l *Layer, subject prov.Ref, records []prov.Record, md5hex string) error {
	return l.writes.Own(func() error {
		encoded, err := l.EncodeValues(ctx, subject, records, nil)
		if err != nil {
			return err
		}
		return l.WriteEncodedBatch(ctx, []ItemWrite{{Subject: subject, Records: encoded, MD5: md5hex}}, WritePoints{AfterSpillPut: pointAfterSpillPut})
	})
}

func ref(obj string, v int) prov.Ref {
	return prov.Ref{Object: prov.ObjectID(obj), Version: prov.Version(v)}
}

func TestWriteFetchRoundTrip(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	subject := ref("/f", 2)
	records := []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
		prov.NewInput(subject, ref("/dep", 0)),
		prov.NewString(subject, prov.AttrEnv, ""), // empty value survives
	}
	if err := writeItem(context.Background(), layer, subject, records, "cafebabe"); err != nil {
		t.Fatal(err)
	}
	got, md5hex, ok, err := layer.FetchItem(context.Background(), subject)
	if err != nil || !ok {
		t.Fatalf("fetch: %v %v", ok, err)
	}
	if md5hex != "cafebabe" {
		t.Fatalf("md5 = %q", md5hex)
	}
	if len(got) != 3 {
		t.Fatalf("records = %v", got)
	}
	byAttr := map[string]prov.Record{}
	for _, r := range got {
		byAttr[r.Attr] = r
	}
	if byAttr[prov.AttrInput].Value.Ref != ref("/dep", 0) {
		t.Fatalf("input = %v", byAttr[prov.AttrInput])
	}
	if byAttr[prov.AttrEnv].Value.Str != "" {
		t.Fatalf("empty env = %v", byAttr[prov.AttrEnv])
	}
}

func TestFetchMissingItem(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	_, _, ok, err := layer.FetchItem(context.Background(), ref("/ghost", 0))
	if err != nil || ok {
		t.Fatalf("missing item: ok=%v err=%v", ok, err)
	}
}

func TestOverflowValueRoundTrip(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	subject := ref("/big", 0)
	big := strings.Repeat("V", 5000)
	records := []prov.Record{prov.NewString(subject, prov.AttrEnv, big)}

	putsBefore := cl.Usage().OpCount(billing.S3, "PUT")
	if err := writeItem(context.Background(), layer, subject, records, ""); err != nil {
		t.Fatal(err)
	}
	if got := cl.Usage().OpCount(billing.S3, "PUT") - putsBefore; got != 1 {
		t.Fatalf("overflow PUTs = %d, want 1", got)
	}
	got, _, ok, err := layer.FetchItem(context.Background(), subject)
	if err != nil || !ok || len(got) != 1 || got[0].Value.Str != big {
		t.Fatalf("round trip failed: %v %v %v", got, ok, err)
	}
}

func TestItemSpillBeyond256Attrs(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	subject := ref("/wide", 0)
	var records []prov.Record
	for i := 0; i < 700; i++ {
		records = append(records, prov.NewInput(subject, ref(fmt.Sprintf("/dep%04d", i), 0)))
	}
	if err := writeItem(context.Background(), layer, subject, records, "beef"); err != nil {
		t.Fatal(err)
	}
	got, md5hex, ok, err := layer.FetchItem(context.Background(), subject)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if md5hex != "beef" {
		t.Fatalf("md5 lost in spill: %q", md5hex)
	}
	if len(got) != 700 {
		t.Fatalf("records = %d, want 700", len(got))
	}
	seen := map[prov.Ref]bool{}
	for _, r := range got {
		seen[r.Value.Ref] = true
	}
	if len(seen) != 700 {
		t.Fatalf("distinct inputs = %d", len(seen))
	}
}

func TestEscapedLiteralRoundTripQuick(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	i := 0
	f := func(value string) bool {
		if len(value) > 900 || strings.ContainsRune(value, 0) {
			return true
		}
		i++
		subject := ref(fmt.Sprintf("/q%d", i), 0)
		records := []prov.Record{prov.NewString(subject, prov.AttrEnv, value)}
		if err := writeItem(context.Background(), layer, subject, records, ""); err != nil {
			return false
		}
		got, _, ok, err := layer.FetchItem(context.Background(), subject)
		return err == nil && ok && len(got) == 1 && got[0].Value.Str == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyMD5(t *testing.T) {
	if ConsistencyMD5([]byte("a"), "x") == ConsistencyMD5([]byte("a"), "y") {
		t.Fatal("nonce has no effect")
	}
	if ConsistencyMD5([]byte("a"), "x") != ConsistencyMD5([]byte("a"), "x") {
		t.Fatal("not deterministic")
	}
	if len(ConsistencyMD5(nil, "")) != 32 {
		t.Fatal("not an MD5 hex digest")
	}
}

func TestVerifiedGetHappyPath(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	subject := ref("/v", 4)
	data := []byte("content")
	nonce := "4-abcd"
	if err := writeItem(context.Background(), layer, subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, ConsistencyMD5(data, nonce)); err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{core.MetaNonce: nonce, core.MetaVersion: "4"}
	if err := cl.S3.Put(layer.Bucket(), core.DataKey("/v"), data, meta); err != nil {
		t.Fatal(err)
	}
	obj, err := layer.VerifiedGet(context.Background(), "/v")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Ref != subject || string(obj.Data) != "content" || len(obj.Records) != 1 {
		t.Fatalf("obj = %+v", obj)
	}
}

func TestVerifiedGetDetectsTamperedData(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	subject := ref("/tampered", 0)
	nonce := "0-xyzw"
	if err := writeItem(context.Background(), layer, subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, ConsistencyMD5([]byte("original"), nonce)); err != nil {
		t.Fatal(err)
	}
	// The data stored does not match the consistency record.
	meta := map[string]string{core.MetaNonce: nonce, core.MetaVersion: "0"}
	if err := cl.S3.Put(layer.Bucket(), core.DataKey("/tampered"), []byte("doctored"), meta); err != nil {
		t.Fatal(err)
	}
	_, err := layer.VerifiedGet(context.Background(), "/tampered")
	if !errors.Is(err, core.ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestVerifiedGetNotFound(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	_, err := layer.VerifiedGet(context.Background(), "/absent")
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestVerifiedGetRetriesAcrossPropagation(t *testing.T) {
	// Data propagates before provenance: the verified reader must wait it
	// out (its retry wait advances the clock) and succeed, not tear.
	layer, cl := newTestLayer(t, 10*time.Second)
	subject := ref("/slow", 0)
	data := []byte("slow data")
	nonce := "0-slow"
	meta := map[string]string{core.MetaNonce: nonce, core.MetaVersion: "0"}
	if err := cl.S3.Put(layer.Bucket(), core.DataKey("/slow"), data, meta); err != nil {
		t.Fatal(err)
	}
	if err := writeItem(context.Background(), layer, subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, ConsistencyMD5(data, nonce)); err != nil {
		t.Fatal(err)
	}
	obj, err := layer.VerifiedGet(context.Background(), "/slow")
	if err != nil {
		t.Fatalf("verified get across propagation: %v", err)
	}
	if string(obj.Data) != "slow data" {
		t.Fatalf("data = %q", obj.Data)
	}
}

func TestQueryEngineAgainstGroundTruth(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	ctx := context.Background()

	// blast -> out -> child; other -> other-out.
	blast := ref("proc/1/blast", 0)
	other := ref("proc/2/other", 0)
	out := ref("/out", 0)
	otherOut := ref("/other-out", 0)
	child := ref("/child", 0)
	write := func(subject prov.Ref, records ...prov.Record) {
		t.Helper()
		if err := writeItem(context.Background(), layer, subject, records, ""); err != nil {
			t.Fatal(err)
		}
	}
	write(blast,
		prov.NewString(blast, prov.AttrType, prov.TypeProcess),
		prov.NewString(blast, prov.AttrName, "blast"))
	write(other,
		prov.NewString(other, prov.AttrType, prov.TypeProcess),
		prov.NewString(other, prov.AttrName, "other"))
	write(out,
		prov.NewString(out, prov.AttrType, prov.TypeFile),
		prov.NewInput(out, blast))
	write(otherOut,
		prov.NewString(otherOut, prov.AttrType, prov.TypeFile),
		prov.NewInput(otherOut, other))
	write(child,
		prov.NewString(child, prov.AttrType, prov.TypeFile),
		prov.NewInput(child, out))

	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil || len(outputs) != 1 || outputs[0] != out {
		t.Fatalf("OutputsOf = %v, %v", outputs, err)
	}
	desc, err := core.CollectRefs(layer.Query(ctx, prov.QDescendantsOfOutputs("blast")))
	if err != nil || len(desc) != 1 || desc[0] != child {
		t.Fatalf("Descendants = %v, %v", desc, err)
	}
	all, err := core.CollectBySubject(layer.Query(ctx, prov.Q1()))
	if err != nil || len(all) != 5 {
		t.Fatalf("AllProvenance = %d, %v", len(all), err)
	}
}

// TestInputChunkExprRoundTrip: the expression inputChunkExpr renders parses
// back to exactly the refs' string forms, whatever bytes the object names
// carry — each literal selects the item stored under that value and none of
// the near misses an escaping slip would produce.
func TestInputChunkExprRoundTrip(t *testing.T) {
	_, cl := newTestLayer(t, 0)
	const domain = "roundtrip"
	if err := cl.SDB.CreateDomain(domain); err != nil {
		t.Fatal(err)
	}
	refs := []prov.Ref{
		ref("/it's", 0),
		ref("/a:b:c", 12),
		ref("/rec\x1esep", 3),
		ref("/q'' or 'input' = '/plain:0", 1),
		ref("'", 0),
		ref("/plain", 0),
	}
	put := func(item, value string) {
		t.Helper()
		if err := cl.SDB.PutAttributes(domain, item, []sdb.ReplaceableAttr{{Name: prov.AttrInput, Value: value}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range refs {
		put(fmt.Sprintf("want%d", i), r.String())
		// What a literal would match if a quote were dropped, doubled or
		// allowed to end it early.
		put(fmt.Sprintf("decoy%d-doubled", i), strings.ReplaceAll(r.String(), "'", "''")+"~")
		put(fmt.Sprintf("decoy%d-dropped", i), strings.ReplaceAll(r.String(), "'", "")+"~")
		put(fmt.Sprintf("decoy%d-cut", i), strings.SplitN(r.String(), "'", 2)[0]+"~")
	}
	query := func(refs []prov.Ref) []string {
		t.Helper()
		res, err := cl.SDB.Query(domain, inputChunkExpr(refs), 0, "")
		if err != nil {
			t.Fatalf("%s: %v", inputChunkExpr(refs), err)
		}
		return res.ItemNames
	}
	for i, r := range refs {
		if got, want := query(refs[i:i+1]), []string{fmt.Sprintf("want%d", i)}; !reflect.DeepEqual(got, want) {
			t.Errorf("chunk of %q matched %v, want %v", r, got, want)
		}
	}
	if got := query(refs); len(got) != len(refs) {
		t.Errorf("whole chunk matched %v, want the %d wanted items", got, len(refs))
	}
}

func TestDependentsChunking(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}
	layer.queryChunk = 3
	ctx := context.Background()

	// One tool with 10 instances, each producing one file: the dependents
	// query must chunk the OR expression (ceil(10/3) = 4 queries) and
	// still find everything.
	var instances []prov.Ref
	for i := 0; i < 10; i++ {
		inst := ref(fmt.Sprintf("proc/%d/tool", i), 0)
		instances = append(instances, inst)
		if err := writeItem(context.Background(), layer, inst, []prov.Record{
			prov.NewString(inst, prov.AttrType, prov.TypeProcess),
			prov.NewString(inst, prov.AttrName, "tool"),
		}, ""); err != nil {
			t.Fatal(err)
		}
		out := ref(fmt.Sprintf("/out%d", i), 0)
		if err := writeItem(context.Background(), layer, out, []prov.Record{
			prov.NewString(out, prov.AttrType, prov.TypeFile),
			prov.NewInput(out, inst),
		}, ""); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.Usage()
	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 10 {
		t.Fatalf("outputs = %d, want 10", len(outputs))
	}
	after := cl.Usage()
	// 1 instance Query plus ceil(10/3) = 4 dependents chunks, which ride
	// QueryWithAttributes so the type filter needs no per-item follow-up.
	queries := after.OpCount(billing.SimpleDB, "Query") - before.OpCount(billing.SimpleDB, "Query")
	chunks := after.OpCount(billing.SimpleDB, "QueryWithAttributes") - before.OpCount(billing.SimpleDB, "QueryWithAttributes")
	if queries < 1 || chunks < 4 {
		t.Fatalf("queries = %d, chunked attr queries = %d; chunking not exercised", queries, chunks)
	}
	// The N+1 is gone: no GetAttributes per dependent.
	if gets := after.OpCount(billing.SimpleDB, "GetAttributes") - before.OpCount(billing.SimpleDB, "GetAttributes"); gets != 0 {
		t.Fatalf("OutputsOf issued %d GetAttributes; type must ride the chunk queries", gets)
	}
}

// TestPrefixSeededWalkNeverReexpandsSeeds: the starts-with level of a
// prefix-seeded descendant walk covers every version of the object at once,
// so a later version reached as its predecessor's dependent must not go
// back into the frontier — its chunk query would find only what level one
// already returned. Three chained versions with a child under each and one
// grandchild, two refs to a chunk: the seeds' redundant chunk is absent from
// the metered count, and from the plan.
func TestPrefixSeededWalkNeverReexpandsSeeds(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	layer.queryChunk = 2
	ctx := context.Background()
	write := func(subject prov.Ref, inputs ...prov.Ref) {
		t.Helper()
		records := []prov.Record{prov.NewString(subject, prov.AttrType, prov.TypeFile)}
		for _, in := range inputs {
			records = append(records, prov.NewInput(subject, in))
		}
		if err := writeItem(ctx, layer, subject, records, ""); err != nil {
			t.Fatal(err)
		}
	}
	write(ref("/obj", 0))
	want := []prov.Ref{ref("/grand", 0)}
	for v := 0; v < 3; v++ {
		if v > 0 {
			write(ref("/obj", v), ref("/obj", v-1))
		}
		child := ref(fmt.Sprintf("/child%d", v), 0)
		write(child, ref("/obj", v))
		want = append(want, child)
	}
	write(ref("/grand", 0), ref("/child0", 0))
	prov.SortRefs(want)

	// One starts-with query, then the three children in ⌈3/2⌉ chunks; the
	// unbounded walk also expands the grandchild, one chunk more. The two
	// later versions of /obj, back in the frontier, would make level two
	// ⌈5/2⌉ chunks.
	for depth, wantOps := range map[int]int64{0: 4, 2: 3} {
		q := prov.Query{RefPrefix: "/obj:", Direction: prov.TraverseDescendants, Depth: depth, Projection: prov.ProjectRefs}
		plan := layer.Explain(q)
		before := cl.Usage().TotalOps()
		got, err := core.CollectRefs(layer.Query(ctx, q))
		if err != nil {
			t.Fatal(err)
		}
		ops := cl.Usage().TotalOps() - before
		if !reflect.DeepEqual(sortedRefs(got), want) {
			t.Errorf("depth %d: walk returned %v, want %v", depth, got, want)
		}
		if ops != wantOps || plan.EstOps != wantOps {
			t.Errorf("depth %d: metered %d ops, Explain predicted %d, want %d\n%s", depth, ops, plan.EstOps, wantOps, plan)
		}
	}
}

// TestExplainPredictsRidingAttrPointerGets: a two-phase query whose filter
// attribute rides the phase-2 QueryWithAttributes must predict the S3 GET
// that decoding a pointer-encoded (overflow) value of that attribute
// issues — the metered==predicted contract holds for riding attributes too.
func TestExplainPredictsRidingAttrPointerGets(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	proc, out := ref("proc/1/blast", 0), ref("/out", 0)
	big := strings.Repeat("x", core.OverflowThreshold+1)
	if err := writeItem(context.Background(), layer, proc, []prov.Record{
		prov.NewString(proc, prov.AttrType, prov.TypeProcess),
		prov.NewString(proc, prov.AttrName, "blast"),
	}, ""); err != nil {
		t.Fatal(err)
	}
	if err := writeItem(context.Background(), layer, out, []prov.Record{
		prov.NewString(out, prov.AttrType, prov.TypeFile),
		prov.NewInput(out, proc),
		prov.NewString(out, "notes", big), // stored as an S3 pointer
	}, ""); err != nil {
		t.Fatal(err)
	}

	q := prov.Query{
		Tool:       "blast",
		Attrs:      []prov.AttrFilter{{Attr: "notes", Value: "short"}},
		Projection: prov.ProjectRefs,
	}
	plan := layer.Explain(q)
	if !plan.Exact {
		t.Fatalf("single-writer plan not exact: %+v", plan)
	}
	before := cl.Usage().TotalOps()
	entries, err := core.CollectEntries(layer.Query(context.Background(), q))
	if err != nil {
		t.Fatal(err)
	}
	metered := cl.Usage().TotalOps() - before
	if plan.EstOps != metered {
		t.Fatalf("Explain predicted %d ops, meters recorded %d\n%s", plan.EstOps, metered, plan)
	}
	if len(entries) != 0 {
		t.Fatalf("query matched %v, want none (the pointer value is not %q)", entries, "short")
	}
}

// TestFailedWriteLeavesNoPhantomCatalogItem: a write that fails before its
// SimpleDB item lands must not be mirrored into the planner catalog, or
// Explain would simulate plans over an item that does not exist.
func TestFailedWriteLeavesNoPhantomCatalogItem(t *testing.T) {
	faults := sim.NewFaultPlan()
	faults.Arm(pointAfterSpillPut)
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	subject := ref("/big", 0)
	records := make([]prov.Record, 0, sdb.MaxAttrsPerItem+10)
	for i := 0; i < sdb.MaxAttrsPerItem+10; i++ {
		records = append(records, prov.NewString(subject, fmt.Sprintf("k%03d", i), "v"))
	}
	if err := writeItem(context.Background(), layer, subject, records, ""); err == nil {
		t.Fatal("armed spill fault did not fire")
	}
	if n := layer.catalog.Items(); n != 0 {
		t.Fatalf("failed write left %d phantom catalog item(s)", n)
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	if layer.Bucket() != "pass" || layer.Domain() != "provenance" {
		t.Fatalf("defaults: %q %q", layer.Bucket(), layer.Domain())
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil cloud accepted")
	}
}

func TestWriteEncodedBatchGroupsItems(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	ctx := context.Background()

	// 27 small items: 25 fit the first BatchPutAttributes call, 2 the
	// second — two SimpleDB ops total instead of 27.
	var writes []ItemWrite
	for i := 0; i < 27; i++ {
		subject := ref(fmt.Sprintf("/batch/%02d", i), 0)
		writes = append(writes, ItemWrite{
			Subject: subject,
			Records: []prov.Record{
				prov.NewString(subject, prov.AttrType, prov.TypeFile),
				prov.NewString(subject, prov.AttrName, string(subject.Object)),
			},
		})
	}
	before := cl.Usage().Ops(billing.SimpleDB)
	if err := layer.WriteEncodedBatch(ctx, writes, WritePoints{}); err != nil {
		t.Fatal(err)
	}
	if got := cl.Usage().Ops(billing.SimpleDB) - before; got != 2 {
		t.Fatalf("27-item batch cost %d SimpleDB ops, want 2", got)
	}
	for _, w := range writes {
		records, _, ok, err := layer.FetchItem(context.Background(), w.Subject)
		if err != nil || !ok {
			t.Fatalf("fetch %v: ok=%v err=%v", w.Subject, ok, err)
		}
		if len(records) != 2 {
			t.Fatalf("records(%v) = %v", w.Subject, records)
		}
	}
}

func TestWriteEncodedBatchOversizedItemFallsBack(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	ctx := context.Background()

	// One item with >100 attributes cannot ride a single batch call: it
	// must take the chunked PutAttributes path, while its small sibling
	// still lands via the batch path.
	big := ref("/big", 0)
	var bigRecords []prov.Record
	for i := 0; i < 150; i++ {
		bigRecords = append(bigRecords, prov.NewInput(big, ref(fmt.Sprintf("/in/%03d", i), 0)))
	}
	small := ref("/small", 0)
	writes := []ItemWrite{
		{Subject: big, Records: bigRecords},
		{Subject: small, Records: []prov.Record{prov.NewString(small, prov.AttrType, prov.TypeFile)}, MD5: "beef"},
	}
	if err := layer.WriteEncodedBatch(ctx, writes, WritePoints{}); err != nil {
		t.Fatal(err)
	}
	records, _, ok, err := layer.FetchItem(context.Background(), big)
	if err != nil || !ok || len(records) != 150 {
		t.Fatalf("big item: ok=%v err=%v n=%d", ok, err, len(records))
	}
	_, md5hex, ok, err := layer.FetchItem(context.Background(), small)
	if err != nil || !ok || md5hex != "beef" {
		t.Fatalf("small item: ok=%v err=%v md5=%q", ok, err, md5hex)
	}
}

func TestWriteEncodedBatchCancellation(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	subject := ref("/c", 0)
	err := layer.WriteEncodedBatch(cctx, []ItemWrite{{Subject: subject,
		Records: []prov.Record{prov.NewString(subject, prov.AttrType, prov.TypeFile)}}}, WritePoints{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, ok, _ := layer.FetchItem(context.Background(), subject); ok {
		t.Fatal("cancelled batch wrote an item")
	}
}

// --- query-performance subsystem -------------------------------------------

func TestEscapeQueryNeutralizesQuotes(t *testing.T) {
	if got := escapeQuery("no quotes"); got != "no quotes" {
		t.Fatalf("escapeQuery mangled a clean name: %q", got)
	}
	if got := escapeQuery("a'b"); got != "a''b" {
		t.Fatalf("escapeQuery(a'b) = %q, want doubled quote", got)
	}

	// End to end: an attribute name containing a quote travels through a
	// bracket expression without terminating the quoted name early. The
	// expression must parse and match only the intended item.
	layer, cl := newTestLayer(t, 0)
	hostile := "attr'] or ['type' = 'file"
	subject := ref("/esc", 0)
	if err := writeItem(context.Background(), layer, subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, ""); err != nil {
		t.Fatal(err)
	}
	// Unescaped, the quote closes the attribute name early and the rest of
	// the string leaks into the expression grammar.
	if _, err := cl.SDB.Query(layer.Domain(), "['"+hostile+"' = 'x']", 0, ""); err == nil {
		t.Fatal("unescaped quote did not corrupt the expression; hostile input too tame")
	}
	expr := "['" + escapeQuery(hostile) + "' = 'x']"
	res, err := cl.SDB.Query(layer.Domain(), expr, 0, "")
	if err != nil {
		t.Fatalf("escaped expression failed to parse: %v", err)
	}
	// The whole hostile string is one (absent) attribute name: no match.
	if len(res.ItemNames) != 0 {
		t.Fatalf("escaped query matched %v; quote broke out of the name", res.ItemNames)
	}
}

func TestOutputsOfNoNPlusOne(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	ctx := context.Background()

	// One tool, many dependents: the old path issued one GetAttributes per
	// dependent to read its type.
	tool := ref("proc/1/tool", 0)
	if err := writeItem(context.Background(), layer, tool, []prov.Record{
		prov.NewString(tool, prov.AttrType, prov.TypeProcess),
		prov.NewString(tool, prov.AttrName, "tool"),
	}, ""); err != nil {
		t.Fatal(err)
	}
	const deps = 40
	for i := 0; i < deps; i++ {
		out := ref(fmt.Sprintf("/out/%02d", i), 0)
		if err := writeItem(context.Background(), layer, out, []prov.Record{
			prov.NewString(out, prov.AttrType, prov.TypeFile),
			prov.NewInput(out, tool),
		}, ""); err != nil {
			t.Fatal(err)
		}
	}

	before := cl.Usage()
	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != deps {
		t.Fatalf("outputs = %d, want %d", len(outputs), deps)
	}
	after := cl.Usage()
	if gets := after.OpCount(billing.SimpleDB, "GetAttributes") - before.OpCount(billing.SimpleDB, "GetAttributes"); gets != 0 {
		t.Fatalf("OutputsOf issued %d GetAttributes for %d dependents (N+1 not fixed)", gets, deps)
	}
	// Total SimpleDB ops: 1 instance query + ceil(40/32) = 2 chunked
	// attribute queries — far under one op per dependent.
	if ops := after.Ops(billing.SimpleDB) - before.Ops(billing.SimpleDB); ops > 4 {
		t.Fatalf("OutputsOf cost %d SimpleDB ops for %d dependents", ops, deps)
	}
}

func TestLayerCacheRepeatQueriesFree(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	ctx := context.Background()
	tool := ref("proc/1/tool", 0)
	if err := writeItem(context.Background(), layer, tool, []prov.Record{
		prov.NewString(tool, prov.AttrType, prov.TypeProcess),
		prov.NewString(tool, prov.AttrName, "tool"),
	}, ""); err != nil {
		t.Fatal(err)
	}
	out := ref("/out", 0)
	if err := writeItem(context.Background(), layer, out, []prov.Record{
		prov.NewString(out, prov.AttrType, prov.TypeFile),
		prov.NewInput(out, tool),
	}, ""); err != nil {
		t.Fatal(err)
	}

	cold := []func() error{
		func() error { _, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool"))); return err },
		func() error {
			_, err := core.CollectRefs(layer.Query(ctx, prov.QDescendantsOfOutputs("tool")))
			return err
		},
		func() error { _, err := core.CollectBySubject(layer.Query(ctx, prov.Q1())); return err },
		func() error { _, err := core.CollectRefs(layer.Query(ctx, prov.QDependents(tool.Object))); return err },
	}
	for _, q := range cold {
		if err := q(); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.Usage().TotalOps()
	for _, q := range cold { // warm repeats
		if err := q(); err != nil {
			t.Fatal(err)
		}
	}
	if ops := cl.Usage().TotalOps() - before; ops != 0 {
		t.Fatalf("repeat queries cost %d cloud ops, want 0", ops)
	}

	// A write invalidates: the next query pays cloud ops again and sees
	// the new item.
	out2 := ref("/out2", 0)
	if err := writeItem(context.Background(), layer, out2, []prov.Record{
		prov.NewString(out2, prov.AttrType, prov.TypeFile),
		prov.NewInput(out2, tool),
	}, ""); err != nil {
		t.Fatal(err)
	}
	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil || len(outputs) != 2 {
		t.Fatalf("OutputsOf after write = %v, %v; stale memo served", outputs, err)
	}
}

func TestUncachedLayerKeepsPaperCosts(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tool := ref("proc/1/tool", 0)
	if err := writeItem(context.Background(), layer, tool, []prov.Record{
		prov.NewString(tool, prov.AttrType, prov.TypeProcess),
		prov.NewString(tool, prov.AttrName, "tool"),
	}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool"))); err != nil {
		t.Fatal(err)
	}
	before := cl.Usage().TotalOps()
	if _, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool"))); err != nil {
		t.Fatal(err)
	}
	if ops := cl.Usage().TotalOps() - before; ops == 0 {
		t.Fatal("uncached repeat query cost 0 ops; the knob does not disable the cache")
	}
}

// TestRemoveArcDeletesTamperedItemsObjects: an item deleted out of band (the
// adversary of a migration's copy) leaves only its ledger slot behind, and
// removing the arc must still delete the data object the item described, or
// the shard keeps data without provenance.
func TestRemoveArcDeletesTamperedItemsObjects(t *testing.T) {
	ctx := context.Background()
	layer, cl := newTestLayer(t, 0)
	subject := ref("/moved", 0)
	data := []byte("payload")
	records := []prov.Record{prov.NewString(subject, prov.AttrType, prov.TypeFile)}
	err := layer.WriteEncodedBatch(ctx, []ItemWrite{{Subject: subject, Records: records,
		MD5: ConsistencyMD5(data, "n"), Leaf: integrity.SubjectHash(subject, records)}}, WritePoints{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.S3.Put(layer.Bucket(), core.DataKey(subject.Object), data, map[string]string{core.MetaNonce: "n"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.SDB.DeleteAttributes(layer.Domain(), prov.EncodeItemName(subject), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := layer.RemoveArc(ctx, func(prov.ObjectID) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.S3.Get(layer.Bucket(), core.DataKey(subject.Object)); !errors.Is(err, s3.ErrNoSuchKey) {
		t.Fatalf("the tampered-away item's data object survived the removal: %v", err)
	}
}
