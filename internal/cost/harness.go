package cost

import (
	"context"
	"fmt"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// Harness runs the paper's evaluation: it loads the combined workload into
// cells — one architecture at one shard count on a fresh simulated region
// — and reads their billing meters. Tables 2 and 3 and the USD bill read
// the three unsharded cells Load builds; the sharded and replay matrices
// read cells of their own.
type Harness struct {
	// Scale is the workload scale (1.0 = paper scale). Default 0.1.
	Scale float64
	// Seed makes runs reproducible. Default 2009.
	Seed int64
	// Tool is the Q.2/Q.3 target. The paper queried blast; at our scaled
	// job counts blast has thousands of instances, so the default target
	// is softmean (the Provenance Challenge's bottleneck stage), which has
	// the selectivity the paper's blast queries had.
	Tool string
	// CachedQueries enables the qcache snapshot cache on the loaded
	// stores. Off by default so Table 3 measures the paper's uncached
	// costs; when on, Table3Measured additionally reports each query's
	// repeat cost (~0 cloud ops on an unchanged repository). Note that
	// with the cache on, queries share warmth across classes too — e.g.
	// Q.2 on S3 reuses the snapshot Q.1 built, so even its base row can
	// read ~0. Authoritative cold costs come from the uncached default.
	CachedQueries bool

	// stats is the dataset every load's flush stream carries: the workload
	// is a pure function of Scale and Seed.
	stats DatasetStats
	// cells are the three unsharded cells behind the Tables, by
	// architecture name.
	cells map[string]*cell
}

// cell is one loaded architecture: the store and its namespaces' meters,
// bracketed by the usage readings before and after the load.
type cell struct {
	*arch.Sharded
	name    string
	setup   billing.Usage // after construction, before load
	loadEnd billing.Usage // after load + drain
}

// walThreshold is the queue depth at which the harness's commit daemons
// drain, and walPollEvents how many flushed events pass between their
// depth checks ("the daemon periodically monitors the WAL queue").
const (
	walThreshold  = 256
	walPollEvents = 64
)

// pollingFlush wraps flush so every daemon checks its threshold each
// walPollEvents flushed events. With no daemons it is flush itself.
func pollingFlush(flush pass.FlushFunc, daemons []*s3sdbsqs.CommitDaemon) pass.FlushFunc {
	if len(daemons) == 0 {
		return flush
	}
	events := 0
	return func(ctx context.Context, batch []pass.FlushEvent) error {
		if err := flush(ctx, batch); err != nil {
			return err
		}
		if events += len(batch); events >= walPollEvents {
			events = 0
			for _, d := range daemons {
				if _, err := d.RunOnce(ctx, false); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// table3Queries are the paper's three query classes as descriptors, each
// reduced to its result count. Q.1 counts distinct subjects: an uncached
// S3 scan yields a subject whose records rode several PUTs in pieces.
func table3Queries(ctx context.Context, tool string) []table3Query {
	refs := func(d prov.Query) func(core.Querier) (int, error) {
		return func(q core.Querier) (int, error) {
			refs, err := core.CollectRefs(q.Query(ctx, d))
			return len(refs), err
		}
	}
	return []table3Query{
		{"Q.1", func(q core.Querier) (int, error) {
			all, err := core.CollectBySubject(q.Query(ctx, prov.Q1()))
			return len(all), err
		}},
		{"Q.2", refs(prov.QOutputsOf(tool))},
		{"Q.3", refs(prov.QDescendantsOfOutputs(tool))},
	}
}

// table3Query is one named query class.
type table3Query struct {
	name string
	run  func(core.Querier) (int, error)
}

// defaults fills zero fields.
func (h *Harness) defaults() {
	if h.Scale == 0 {
		h.Scale = 0.1
	}
	if h.Seed == 0 {
		h.Seed = 2009
	}
	if h.Tool == "" {
		h.Tool = "softmean"
	}
}

// Stats returns the dataset statistics collected while loading.
func (h *Harness) Stats() DatasetStats { return h.stats }

// load pushes the combined workload through b the way every section does
// — the WAL daemons poll their queue depth every few flushed events, then
// the store syncs and the cell drains — and brackets it with meter
// readings.
func (h *Harness) load(ctx context.Context, name string, b *arch.Sharded) (*cell, error) {
	for _, d := range b.Daemons {
		d.Threshold = walThreshold
	}
	c := &cell{Sharded: b, name: name, setup: b.Usage()}
	collector := &Collector{}
	sys := pass.NewSystem(pass.Config{Flush: collector.Tee(pollingFlush(core.Flusher(b.Store), b.Daemons))})
	if err := workload.Run(ctx, sys, sim.NewRNG(h.Seed), workload.NewCombined(h.Scale)); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := core.SyncStore(ctx, b.Store); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	if err := workload.Drain(ctx, b); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	h.stats = collector.Stats
	c.loadEnd = b.Usage()
	return c, nil
}

// build constructs an empty matrix cell: one architecture at n shards on
// its own fresh region, uncached like the Tables' cells.
func (h *Harness) build(name string, n int) (*arch.Sharded, error) {
	return workload.BuildCell(cloud.NewMulti(cloud.Config{Seed: h.Seed}), "", n,
		arch.Config{Name: name, DisableQueryCache: true})
}

// loadedCell builds a matrix cell and loads it.
func (h *Harness) loadedCell(ctx context.Context, name string, n int) (*cell, error) {
	b, err := h.build(name, n)
	if err != nil {
		return nil, err
	}
	return h.load(ctx, name, b)
}

// Load pushes the combined workload through all three architectures,
// unsharded. It is idempotent; the table calls trigger it automatically.
func (h *Harness) Load(ctx context.Context) error {
	if h.cells != nil {
		return nil
	}
	h.defaults()
	cells := make(map[string]*cell)
	for _, name := range arch.Names {
		b, err := arch.Compose(arch.Config{
			Name: name, Cloud: cloud.New(cloud.Config{Seed: h.Seed}), DisableQueryCache: !h.CachedQueries,
		})
		if err != nil {
			return fmt.Errorf("cost: build %s: %w", name, err)
		}
		if cells[name], err = h.load(ctx, name, b); err != nil {
			return fmt.Errorf("cost: %s: %w", name, err)
		}
	}
	h.cells = cells
	return nil
}

// overhead is Table 2's reading of a loaded cell: the bytes and operations
// the architecture added over storing stats' raw data alone.
func (c *cell) overhead(stats DatasetStats) (provBytes, provOps int64) {
	u := c.loadEnd
	provOps = u.TotalOps() - c.setup.TotalOps() - stats.Objects
	provBytes = u.Storage(billing.S3) - stats.DataBytes // metadata + overflow/spill objects
	switch c.name {
	case "s3+sdb":
		provBytes += u.Storage(billing.SimpleDB)
	case "s3+sdb+sqs":
		// The paper's 2·S_SQS + S_SimpleDB: each provenance byte is
		// stored into and read back out of SQS once.
		provBytes += u.BytesIn(billing.SQS) + u.BytesOut(billing.SQS) + u.Storage(billing.SimpleDB)
	}
	return provBytes, provOps
}

// query is Table 3's reading of a loaded cell: one query class priced off
// the meter delta it caused (requests plus transfer; storage does not move
// under a read).
func (c *cell) query(q table3Query) (ShardedQueryCost, error) {
	before := c.Usage()
	results, err := q.run(c.Store)
	if err != nil {
		return ShardedQueryCost{}, fmt.Errorf("%s on %s: %w", q.name, c.name, err)
	}
	delta := c.Usage().Sub(before)
	return ShardedQueryCost{
		Query:   q.name,
		Ops:     delta.TotalOps(),
		DataOut: delta.BytesOut(billing.S3) + delta.BytesOut(billing.SimpleDB) + delta.BytesOut(billing.SQS),
		Results: results,
		USD:     billing.Jan2009.Price(delta).Total(),
	}, nil
}

// Table2Measured reads the storage comparison off the billing meters.
func (h *Harness) Table2Measured(ctx context.Context) (*Table2, error) {
	if err := h.Load(ctx); err != nil {
		return nil, err
	}
	t := &Table2{
		RawBytes: h.stats.DataBytes,
		RawOps:   h.stats.Objects,
		Method:   "measured",
		Scale:    h.Scale,
	}
	for _, name := range arch.Names {
		c := h.cells[name]
		row := Table2Row{Arch: name, Elapsed: billing.WAN2009.Estimate(c.loadEnd)}
		row.ProvBytes, row.ProvOps = c.overhead(h.stats)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table2Estimated applies the paper's formulas to the collected stats,
// extrapolated to full paper scale.
func (h *Harness) Table2Estimated(ctx context.Context) (*Table2, error) {
	if err := h.Load(ctx); err != nil {
		return nil, err
	}
	t := Estimate(h.stats.Scale(h.Scale))
	t.Method = "estimated (paper formulas, extrapolated)"
	t.Scale = 1.0
	return t, nil
}

// Table3Measured runs the three query classes against the S3-only and
// SimpleDB backends, metering ops and data out. "The query results are the
// same for the last two architectures (as they both query SimpleDB), hence
// we omit the results for the third."
func (h *Harness) Table3Measured(ctx context.Context) (*Table3, error) {
	if err := h.Load(ctx); err != nil {
		return nil, err
	}
	t := &Table3{Tool: h.Tool, Scale: h.Scale}
	// With the cache on, each class runs again on the unchanged repository
	// as "<name>+": the snapshot cache answers without touching the cloud.
	runs := []string{""}
	if h.CachedQueries {
		runs = append(runs, "+")
	}
	backends := []struct{ label, arch string }{{"S3", "s3"}, {"SimpleDB", "s3+sdb"}}
	for _, q := range table3Queries(ctx, h.Tool) {
		for _, backend := range backends {
			for _, suffix := range runs {
				qc, err := h.cells[backend.arch].query(q)
				if err != nil {
					return nil, fmt.Errorf("cost: %w", err)
				}
				t.Rows = append(t.Rows, Table3Row{
					Query: q.name + suffix, Arch: backend.label, DataOut: qc.DataOut, Ops: qc.Ops, Results: qc.Results,
				})
			}
		}
	}
	return t, nil
}

// Usage returns the load-phase usage snapshot of one architecture.
func (h *Harness) Usage(arch string) (billing.Usage, bool) {
	c, ok := h.cells[arch]
	if !ok {
		return billing.Usage{}, false
	}
	return c.loadEnd, true
}

// RetrySnapshot returns one architecture's cumulative retry counters —
// zero across the board on a healthy region, so trajectory tooling can
// gate on retry overhead appearing.
func (h *Harness) RetrySnapshot(arch string) (retry.Snapshot, bool) {
	c, ok := h.cells[arch]
	if !ok {
		return retry.Snapshot{}, false
	}
	return c.RetryStats(), true
}
