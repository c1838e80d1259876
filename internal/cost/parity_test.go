package cost

import (
	"context"
	"reflect"
	"testing"
)

// TestHarnessParity pins every reading of the cost harness at scale 0.01,
// seed 2009, to the values the harness produced before its three loaders,
// two overhead switches and two metered query loops were folded into one
// cell (recorded at 9b802cb with passbench -json). The workload, the
// simulated region and the pricing are pure functions of the seed, so any
// drift here is a change in what is measured, not noise.
func TestHarnessParity(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run is slow")
	}
	ctx := context.Background()
	h := &Harness{Scale: 0.01, Seed: 2009}

	t2, err := h.Table2Measured(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantT2 := &Table2{RawBytes: 22155534, RawOps: 314, Method: "measured", Scale: 0.01, Rows: []Table2Row{
		{Arch: "s3", ProvBytes: 1709231, ProvOps: 334, Elapsed: 27604606723},
		{Arch: "s3+sdb", ProvBytes: 1557313, ProvOps: 682, Elapsed: 30003193187},
		{Arch: "s3+sdb+sqs", ProvBytes: 3765822, ProvOps: 6870, Elapsed: 83360315498},
	}}
	if !reflect.DeepEqual(t2, wantT2) {
		t.Errorf("Table 2 moved:\n got %+v\nwant %+v", t2, wantT2)
	}
	wantStats := DatasetStats{Objects: 314, DataBytes: 22155534, Records: 8321, ProvS3Bytes: 1415134,
		ProvSDBBytes: 1460505, Items: 1369, BigRecords: 328, Transients: 1055}
	if h.Stats() != wantStats {
		t.Errorf("dataset moved:\n got %+v\nwant %+v", h.Stats(), wantStats)
	}

	t3, err := h.Table3Measured(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantT3 := &Table3{Tool: "softmean", Scale: 0.01, Rows: []Table3Row{
		{Query: "Q.1", Arch: "S3", DataOut: 1740994, Ops: 649, Results: 1369},
		{Query: "Q.1", Arch: "SimpleDB", DataOut: 1488486, Ops: 1698, Results: 1369},
		{Query: "Q.2", Arch: "S3", DataOut: 1740994, Ops: 649, Results: 2},
		{Query: "Q.2", Arch: "SimpleDB", DataOut: 85, Ops: 2, Results: 2},
		{Query: "Q.3", Arch: "S3", DataOut: 1740994, Ops: 649, Results: 12},
		{Query: "Q.3", Arch: "SimpleDB", DataOut: 352, Ops: 7, Results: 12},
	}}
	if !reflect.DeepEqual(t3, wantT3) {
		t.Errorf("Table 3 moved:\n got %+v\nwant %+v", t3, wantT3)
	}

	sc, err := h.Sharded(ctx, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	audited := func(r ShardedRow) ShardedRow {
		r.VerifySubjects, r.VerifyRecords, r.VerifyClean = 1369, 8321, true
		return r
	}
	wantSharded := []ShardedRow{
		audited(ShardedRow{Arch: "s3", Shards: 1, ProvBytes: 1709231, ProvOps: 334, Queries: []ShardedQueryCost{
			{Query: "Q.1", Ops: 649, DataOut: 1740994, Results: 1369, USD: 0.004267511749818921},
			{Query: "Q.2", Ops: 649, DataOut: 1740994, Results: 2, USD: 0.004267511749818921},
			{Query: "Q.3", Ops: 649, DataOut: 1740994, Results: 12, USD: 0.004267511749818921},
		}, VerifyOps: 649, VerifyUSD: 0.004267511749818921}),
		audited(ShardedRow{Arch: "s3", Shards: 2, ProvBytes: 1708976, ProvOps: 334, Queries: []ShardedQueryCost{
			{Query: "Q.1", Ops: 650, DataOut: 1740739, Results: 1369, USD: 0.0042774357538968326},
			{Query: "Q.2", Ops: 650, DataOut: 1740739, Results: 2, USD: 0.0042774357538968326},
			{Query: "Q.3", Ops: 650, DataOut: 1740739, Results: 12, USD: 0.0042774357538968326},
		}, VerifyOps: 650, VerifyUSD: 0.0042774357538968326}),
		audited(ShardedRow{Arch: "s3+sdb", Shards: 1, ProvBytes: 1557313, ProvOps: 682, Queries: []ShardedQueryCost{
			{Query: "Q.1", Ops: 1698, DataOut: 1488486, Results: 1369, USD: 0.008820352715050111},
			{Query: "Q.2", Ops: 2, DataOut: 85, Results: 2, USD: 0.004045043004315467},
			{Query: "Q.3", Ops: 7, DataOut: 352, Results: 12, USD: 0.004060478767047129},
		}, VerifyOps: 1698, VerifyUSD: 0.008820352715050111}),
		audited(ShardedRow{Arch: "s3+sdb", Shards: 2, ProvBytes: 1556233, ProvOps: 682, Queries: []ShardedQueryCost{
			{Query: "Q.1", Ops: 1699, DataOut: 1487406, Results: 1369, USD: 0.008821751679654533},
			{Query: "Q.2", Ops: 6, DataOut: 391, Results: 2, USD: 0.004055897501144922},
			{Query: "Q.3", Ops: 16, DataOut: 658, Results: 12, USD: 0.004086726753876583},
		}, VerifyOps: 1699, VerifyUSD: 0.008821751679654533}),
		audited(ShardedRow{Arch: "s3+sdb+sqs", Shards: 1, ProvBytes: 3758977, ProvOps: 6868,
			VerifyOps: 1698, VerifyUSD: 0.008822191089933047}),
		audited(ShardedRow{Arch: "s3+sdb+sqs", Shards: 2, ProvBytes: 3758062, ProvOps: 6895,
			VerifyOps: 1699, VerifyUSD: 0.008823846680472905}),
	}
	// The two-shard SimpleDB Q.2 and Q.3 were re-recorded (8 → 6, 18 → 16
	// ops) when the router's filter round began asking each candidate on its
	// likely shards instead of on every shard: the two candidates cost one
	// GetAttributes each, not two.
	if !reflect.DeepEqual(sc.Rows, wantSharded) {
		t.Errorf("sharded matrix moved:\n got %+v\nwant %+v", sc.Rows, wantSharded)
	}

	rc, err := h.Replay(ctx, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	covered := func(r ReplayRow) ReplayRow {
		r.Subjects, r.Sources, r.Processes, r.Compared = 66, 248, 655, 314
		return r
	}
	// The two 1-shard SimpleDB rows' ExtractOps were re-recorded (3136 →
	// 3135) when the layer began answering ancestor walks by frontier
	// instead of from a Q.1 scan. The targets are every current file version
	// and their lineage is the whole domain (1369 of 1369 items), so the walk
	// fetches what the scan fetched — 1369 GetAttributes + 328 pointer GETs —
	// and saves only the scan's one Select page; the other 1438 ops are the
	// 314 pinned target fetches of extraction's second query and the 562
	// verified reads, unchanged. A value above 3136 would mean the walk and
	// the full-projection output each fetched the lineage (4819 without the
	// per-query item memo). The two-shard SimpleDB rows were re-recorded
	// (4818 → 4031) when the router's ancestor walk began fetching each
	// frontier ref on its likely shards instead of on both: only a ref the
	// edge naming it places off its home shard is still asked on two.
	wantReplay := []ReplayRow{
		covered(ReplayRow{Arch: "s3", Shards: 1, ExtractOps: 2194, ReplayOps: 679, ReplayUSD: 0.012325672651603819}),
		covered(ReplayRow{Arch: "s3", Shards: 2, ExtractOps: 2196, ReplayOps: 679, ReplayUSD: 0.012325615608096124}),
		covered(ReplayRow{Arch: "s3+sdb", Shards: 1, ExtractOps: 3135, ReplayOps: 984, ReplayUSD: 0.013667767241368332}),
		covered(ReplayRow{Arch: "s3+sdb", Shards: 2, ExtractOps: 4031, ReplayOps: 984, ReplayUSD: 0.013666867211232225}),
		covered(ReplayRow{Arch: "s3+sdb+sqs", Shards: 1, ExtractOps: 3135, ReplayOps: 7134, ReplayUSD: 0.022897498486543336}),
		covered(ReplayRow{Arch: "s3+sdb+sqs", Shards: 2, ExtractOps: 4031, ReplayOps: 7142, ReplayUSD: 0.0229042736110932}),
	}
	if !reflect.DeepEqual(rc.Rows, wantReplay) {
		t.Errorf("replay matrix moved:\n got %+v\nwant %+v", rc.Rows, wantReplay)
	}
}
