package cost

import (
	"context"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core/arch"
)

// TestShardedCostsSmall runs the sharded matrix at a tiny scale and checks
// its invariants: the 1-shard row reproduces the unsharded Table 2 write
// cost, the router returns the same query answers at every shard count,
// and every freshly loaded namespace verifies clean at a nonzero audit
// cost.
func TestShardedCostsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run is slow")
	}
	ctx := context.Background()
	h := &Harness{Scale: 0.01, Seed: 2009}
	sc, err := h.Sharded(ctx, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", sc)
	if len(sc.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(sc.Rows))
	}

	t2, err := h.Table2Measured(ctx)
	if err != nil {
		t.Fatal(err)
	}
	unshardedOps := map[string]int64{}
	for _, r := range t2.Rows {
		unshardedOps[r.Arch] = r.ProvOps
	}

	results := map[string]map[string]int{} // arch -> query -> results
	for _, r := range sc.Rows {
		if r.ProvOps <= 0 || r.ProvBytes <= 0 {
			t.Errorf("%s x%d: empty write cost: %+v", r.Arch, r.Shards, r)
		}
		if !r.VerifyClean {
			t.Errorf("%s x%d: fresh namespace did not verify clean", r.Arch, r.Shards)
		}
		if r.VerifyOps <= 0 || r.VerifySubjects <= 0 || r.VerifyRecords <= 0 {
			t.Errorf("%s x%d: audit did not cover the namespace: %+v", r.Arch, r.Shards, r)
		}
		if r.VerifyUSD <= 0 {
			t.Errorf("%s x%d: audit priced at $%f", r.Arch, r.Shards, r.VerifyUSD)
		}
		if r.Shards == 1 {
			// The 1-shard run is the unsharded build driven by the same
			// deterministic workload: identical write op counts. The WAL
			// architecture differs, deterministically: the matrix cell's
			// client label ("s0", where the Tables' cell keeps the
			// default) names its queue and rides every WAL message, so
			// message bytes and chunk counts shift (7 129 389 vs
			// 7 115 959 prov bytes, 12 895 vs 12 893 ops at scale 0.02).
			// It gets a small band; TestMatrixReadingOfTablesCell holds
			// the exact equality.
			got, want := r.ProvOps, unshardedOps[r.Arch]
			if r.Arch == "s3+sdb+sqs" {
				if got < want-want/100 || got > want+want/100 {
					t.Errorf("%s x1: prov ops %d outside 1%% of unsharded harness %d", r.Arch, got, want)
				}
			} else if got != want {
				t.Errorf("%s x1: prov ops %d differ from unsharded harness %d", r.Arch, got, want)
			}
		}
		if r.Arch == "s3+sdb+sqs" {
			if len(r.Queries) != 0 {
				t.Errorf("%s x%d: unexpected query rows", r.Arch, r.Shards)
			}
			continue
		}
		if len(r.Queries) != 3 {
			t.Fatalf("%s x%d: got %d query rows, want 3", r.Arch, r.Shards, len(r.Queries))
		}
		for _, q := range r.Queries {
			if q.Ops > 0 && q.USD <= 0 {
				t.Errorf("%s x%d %s: %d metered ops priced at $%.9f; query deltas must carry a positive Jan-2009 bill",
					r.Arch, r.Shards, q.Query, q.Ops, q.USD)
			}
			if prev, ok := results[r.Arch][q.Query]; ok {
				if prev != q.Results {
					t.Errorf("%s %s: results changed across shard counts: %d vs %d",
						r.Arch, q.Query, prev, q.Results)
				}
			} else {
				if results[r.Arch] == nil {
					results[r.Arch] = map[string]int{}
				}
				results[r.Arch][q.Query] = q.Results
			}
		}
	}
}

// TestMatrixReadingOfTablesCell: a cell built the way Load builds the
// Tables' cells — default client label, single-namespace region — and read
// the way the sharded matrix reads its cells reproduces Table 2's row
// exactly, for all three architectures. It fails if the Tables and the
// matrices ever load a cell or compute its overhead differently again.
func TestMatrixReadingOfTablesCell(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run is slow")
	}
	ctx := context.Background()
	h := &Harness{Scale: 0.01, Seed: 2009}
	t2, err := h.Table2Measured(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range arch.Names {
		b, err := arch.Compose(arch.Config{Name: name, Cloud: cloud.New(cloud.Config{Seed: h.Seed}), DisableQueryCache: true})
		if err != nil {
			t.Fatal(err)
		}
		c, err := h.load(ctx, name, b)
		if err != nil {
			t.Fatal(err)
		}
		row, err := h.shardedRow(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := t2.Rows[i]; row.Arch != want.Arch || row.ProvBytes != want.ProvBytes || row.ProvOps != want.ProvOps {
			t.Errorf("%s: matrix reading %d bytes / %d ops, Table 2 row %+v", name, row.ProvBytes, row.ProvOps, want)
		}
	}
}
