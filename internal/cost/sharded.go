package cost

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/integrity"
)

// ShardedQueryCost is one query class metered through the shard router.
// USD prices the query's metered delta (requests plus transfer; storage
// does not move under a read) at January-2009 rates, so the multi-hop
// planner's op savings on Q.2/Q.3 show up as dollars too.
type ShardedQueryCost struct {
	Query   string  `json:"query"`
	Ops     int64   `json:"ops"`
	DataOut int64   `json:"data_out"`
	Results int     `json:"results"`
	USD     float64 `json:"usd"`
}

// ShardedRow is one (architecture, shard count) cell of the sharded cost
// matrix: the Table 2 write cost and Table 3 query cost of the combined
// workload pushed through the router, plus what a full tamper-evidence
// audit of the resulting namespace costs.
type ShardedRow struct {
	Arch   string `json:"arch"`
	Shards int    `json:"shards"`
	// ProvBytes / ProvOps are the Table 2 provenance overheads summed
	// across the member shards' namespaces.
	ProvBytes int64 `json:"prov_bytes"`
	ProvOps   int64 `json:"prov_ops"`
	// Queries holds the Table 3 classes run through the router. Only the
	// first two architectures are queried (the paper: "the query results
	// are the same for the last two architectures").
	Queries []ShardedQueryCost `json:"queries,omitempty"`
	// VerifyOps / VerifyUSD are the cloud operations and the January-2009
	// bill a full VerifyStores audit of the namespace costs. VerifyUSD
	// prices only the audit's delta (requests and transfer; storage is
	// unchanged by reading).
	VerifyOps int64   `json:"verify_ops"`
	VerifyUSD float64 `json:"verify_usd"`
	// VerifySubjects / VerifyRecords report the audit's coverage, and
	// VerifyClean that the freshly loaded namespace verified with zero
	// divergences — a false positive here is a harness bug.
	VerifySubjects int  `json:"verify_subjects"`
	VerifyRecords  int  `json:"verify_records"`
	VerifyClean    bool `json:"verify_clean"`
}

// ShardedCosts is the sharded cost matrix: the Tables 2/3 workloads
// driven through the shard router at each shard count, with the
// verification cost of the loaded namespace alongside.
type ShardedCosts struct {
	Scale       float64      `json:"scale"`
	Seed        int64        `json:"seed"`
	Tool        string       `json:"tool"`
	ShardCounts []int        `json:"shard_counts"`
	Rows        []ShardedRow `json:"rows"`
}

// Sharded drives the combined workload through the shard router at each
// requested shard count and reads the billing meters: the Tables 2/3
// costs of scale-out, plus the ops and dollars a full tamper-evidence
// audit (integrity.VerifyStores) of each loaded namespace costs. Shard
// counts default to 1, 4 and 16; the 1-shard row is the unsharded
// baseline the others are read against.
func (h *Harness) Sharded(ctx context.Context, shardCounts []int) (*ShardedCosts, error) {
	h.defaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4, 16}
	}
	counts := append([]int(nil), shardCounts...)
	sort.Ints(counts)
	out := &ShardedCosts{Scale: h.Scale, Seed: h.Seed, Tool: h.Tool, ShardCounts: counts}

	for _, name := range arch.Names {
		for _, n := range counts {
			c, err := h.loadedCell(ctx, name, n)
			if err != nil {
				return nil, fmt.Errorf("cost: sharded %s x%d: %w", name, n, err)
			}
			row, err := h.shardedRow(ctx, c)
			if err != nil {
				return nil, fmt.Errorf("cost: sharded %s x%d: %w", name, n, err)
			}
			out.Rows = append(out.Rows, *row)
		}
	}
	return out, nil
}

// shardedRow reads one loaded cell: its Table 2 overhead, the Table 3
// classes and a full audit.
func (h *Harness) shardedRow(ctx context.Context, c *cell) (*ShardedRow, error) {
	row := &ShardedRow{Arch: c.name, Shards: len(c.Members)}
	row.ProvBytes, row.ProvOps = c.overhead(h.stats)

	// Table 3 classes through the router, cold, for the two backends the
	// paper reports.
	if c.name != "s3+sdb+sqs" {
		for _, q := range table3Queries(ctx, h.Tool) {
			qc, err := c.query(q)
			if err != nil {
				return nil, err
			}
			row.Queries = append(row.Queries, qc)
		}
	}

	// Verification cost: a full audit of every shard, composed into the
	// namespace root, priced off the meter delta.
	auditors := make([]integrity.Auditor, len(c.Members))
	for i, st := range c.Members {
		a, ok := st.(integrity.Auditor)
		if !ok {
			return nil, fmt.Errorf("shard %d is not auditable", i)
		}
		auditors[i] = a
	}
	before := c.Usage()
	res, err := integrity.VerifyStores(ctx, auditors)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	delta := c.Usage().Sub(before)
	row.VerifyOps = delta.TotalOps()
	row.VerifyUSD = billing.Jan2009.Price(delta).Total()
	row.VerifyClean = res.Clean()
	for _, sr := range res.Shards {
		row.VerifySubjects += sr.Subjects
		row.VerifyRecords += sr.Records
	}
	return row, nil
}

// String renders the matrix for terminal use.
func (t *ShardedCosts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded cost matrix (scale %.2f, seed %d): combined workload through the shard router\n", t.Scale, t.Seed)
	fmt.Fprintf(&b, "%-12s %7s %12s %12s %10s %10s %10s %10s %10s %11s %10s\n",
		"arch", "shards", "prov-bytes", "prov-ops", "Q.1-ops", "Q.2-ops", "Q.3-ops", "Q.2-$", "Q.3-$", "verify-ops", "verify-$")
	for _, r := range t.Rows {
		qops := map[string]string{"Q.1": "-", "Q.2": "-", "Q.3": "-"}
		qusd := map[string]string{"Q.2": "-", "Q.3": "-"}
		for _, q := range r.Queries {
			qops[q.Query] = fmt.Sprintf("%d", q.Ops)
			if q.Query != "Q.1" {
				qusd[q.Query] = fmt.Sprintf("%.6f", q.USD)
			}
		}
		clean := ""
		if !r.VerifyClean {
			clean = "  DIVERGED"
		}
		fmt.Fprintf(&b, "%-12s %7d %12s %12d %10s %10s %10s %10s %10s %11d %10.4f%s\n",
			r.Arch, r.Shards, fmtBytes(r.ProvBytes), r.ProvOps,
			qops["Q.1"], qops["Q.2"], qops["Q.3"], qusd["Q.2"], qusd["Q.3"], r.VerifyOps, r.VerifyUSD, clean)
	}
	fmt.Fprintf(&b, "verification coverage: per-row subjects/records audited ride the JSON report (verify_subjects, verify_records)\n")
	return b.String()
}
