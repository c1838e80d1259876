package cost

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
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

// matrixCell is one architecture at one shard count on its own fresh
// region, built like the unsharded harness builds (uncached queries, the
// WAL architecture's polling commit daemons): members on namespaces
// "s<i>", behind the shard router when n > 1.
type matrixCell struct {
	*arch.Sharded
	multi *cloud.Multi
}

func newMatrixCell(name string, seed int64, n int) (*matrixCell, error) {
	multi := cloud.NewMulti(cloud.Config{Seed: seed})
	b, err := arch.BuildSharded(multi, n, func(s int) (string, arch.Config) {
		key := fmt.Sprintf("s%d", s)
		return key, arch.Config{Name: name, ClientID: key, DisableQueryCache: true}
	})
	if err != nil {
		return nil, err
	}
	for _, d := range b.Daemons {
		d.Threshold = walThreshold
	}
	return &matrixCell{Sharded: b, multi: multi}, nil
}

// drain runs every commit daemon to quiescence (no-op off the WAL
// architecture) — one daemon at a time, so an already idle daemon's queue
// is not polled again while a neighbour finishes — then settles the region.
func (b *matrixCell) drain(ctx context.Context) error {
	for _, d := range b.Daemons {
		if err := s3sdbsqs.Drain(ctx, b.multi.Settle, d); err != nil {
			return err
		}
	}
	b.multi.Settle()
	return nil
}

// usage sums the member namespaces' meters.
func (b *matrixCell) usage() billing.Usage {
	var u billing.Usage
	for _, cl := range b.Clouds {
		u = u.Add(cl.Usage())
	}
	return u
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
			row, err := h.shardedRun(ctx, name, n)
			if err != nil {
				return nil, fmt.Errorf("cost: sharded %s x%d: %w", name, n, err)
			}
			out.Rows = append(out.Rows, *row)
		}
	}
	return out, nil
}

func (h *Harness) shardedRun(ctx context.Context, name string, n int) (*ShardedRow, error) {
	b, err := newMatrixCell(name, h.Seed, n)
	if err != nil {
		return nil, err
	}
	store := b.Store
	setup := b.usage()

	// Load: same flush shape as the unsharded harness — the WAL daemons
	// poll every few flushed events, then drain fully.
	flush := pollingFlush(core.Flusher(store), b.Daemons)
	// Collect dataset stats if the unsharded harness has not run: the
	// sharded matrix sees the identical deterministic flush stream.
	var collector *Collector
	if h.stats.Objects == 0 {
		collector = &Collector{}
		flush = collector.Tee(flush)
	}
	sys := pass.NewSystem(pass.Config{Flush: flush})
	w := workload.NewCombined(h.Scale)
	if err := workload.Run(ctx, sys, sim.NewRNG(h.Seed), w); err != nil {
		return nil, err
	}
	if collector != nil {
		h.stats = collector.Stats
	}
	if err := core.SyncStore(ctx, store); err != nil {
		return nil, err
	}
	if err := b.drain(ctx); err != nil {
		return nil, err
	}
	loadEnd := b.usage()

	rawBytes, rawOps := h.stats.DataBytes, h.stats.Objects
	row := &ShardedRow{Arch: name, Shards: n}
	row.ProvOps = loadEnd.TotalOps() - setup.TotalOps() - rawOps
	s3Extra := loadEnd.Storage(billing.S3) - rawBytes
	switch name {
	case "s3":
		row.ProvBytes = s3Extra
	case "s3+sdb":
		row.ProvBytes = loadEnd.Storage(billing.SimpleDB) + s3Extra
	case "s3+sdb+sqs":
		row.ProvBytes = loadEnd.BytesIn(billing.SQS) + loadEnd.BytesOut(billing.SQS) +
			loadEnd.Storage(billing.SimpleDB) + s3Extra
	}

	// Table 3 classes through the router, cold, for the two backends the
	// paper reports.
	if name != "s3+sdb+sqs" {
		for _, q := range table3Queries(ctx, h.Tool) {
			before := b.usage()
			results, err := q.run(store)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			after := b.usage()
			row.Queries = append(row.Queries, ShardedQueryCost{
				Query:   q.name,
				Ops:     after.TotalOps() - before.TotalOps(),
				DataOut: totalOut(after) - totalOut(before),
				Results: results,
				USD:     billing.Jan2009.Price(after.Sub(before)).Total(),
			})
		}
	}

	// Verification cost: a full audit of every shard, composed into the
	// namespace root, priced off the meter delta.
	auditors := make([]integrity.Auditor, len(b.Members))
	for i, st := range b.Members {
		a, ok := st.(integrity.Auditor)
		if !ok {
			return nil, fmt.Errorf("shard %d is not auditable", i)
		}
		auditors[i] = a
	}
	before := b.usage()
	res, err := integrity.VerifyStores(ctx, auditors)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	after := b.usage()
	delta := after.Sub(before)
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
