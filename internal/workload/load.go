package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/content"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// This file is the sustained-load harness: an open-loop multi-tenant
// generator that drives a (possibly sharded) provenance store with
// tenants × writers concurrent PASS clients and then tenants × queriers
// concurrent readers, and reports modeled throughput: the WAN2009 latency
// model applied per namespace, makespan = the slowest namespace —
// deterministic, which is what the CI scale gate compares across commits.
// Host time is not measured here; that is benchmark/'s job.
//
// "Open loop" here means the offered workload is fixed by the seed — which
// objects, which bytes, which order per writer — independent of how the
// store behaves; writers issue their flushes back to back, so the
// measurement is the saturation throughput of the write path.
//
// The write phase and the query phase are separated by a quiescent drain:
// write-phase operation counts are therefore deterministic for a given
// seed and configuration (interleaving can reorder but not add cloud
// ops) on the S3-only and S3+SimpleDB architectures. The WAL architecture
// is near-deterministic: its commit daemon's receive count depends on the
// order writers' messages interleaved on the queue, which can shift the
// total by a few ops (<0.1%) — benchdiff's tolerance absorbs that.

// LoadConfig parameterizes one sustained-load run. The zero value of any
// field selects its default.
type LoadConfig struct {
	// Tenants is the number of isolated tenants (default 2). Each tenant
	// gets its own store (its own namespaces) from the builder.
	Tenants int
	// Writers is the number of concurrent writer clients per tenant
	// (default 2). Writers share the tenant's store, as PASS clients of
	// one repository do.
	Writers int
	// Queriers is the number of concurrent reader clients per tenant in
	// the query phase (default 1).
	Queriers int
	// Batches is the number of file closes each writer issues (default 40).
	Batches int
	// PayloadBytes sizes each written file (default 256). Kept small so
	// ride-along provenance never spills, which keeps operation counts
	// independent of goroutine interleaving.
	PayloadBytes int
	// Seed fixes the generated workload.
	Seed int64
	// HotShardFraction, when positive, routes that fraction of each
	// writer's files onto the hot shard (hot-shard skew). Requires the
	// store to expose placement (ShardPlacer); ignored otherwise.
	HotShardFraction float64
	// HotShard selects which shard receives the skewed fraction
	// (default 0). Out-of-range values wrap modulo the shard count.
	HotShard int
	// HotShardShiftAt, when positive, moves the hotspot mid-run: batches
	// with index >= HotShardShiftAt heat HotShardShiftTo instead of
	// HotShard — a moving hot arc for the resharding controller to chase.
	HotShardShiftAt int
	// HotShardShiftTo is the shard the hotspot moves to at the shift
	// point (wraps like HotShard).
	HotShardShiftTo int
	// Placer, when non-nil, overrides the store's own placement for skew
	// name generation. The rebalance bench freezes the pre-migration ring
	// here so phase-2 traffic replays the pre-split pattern against the
	// flipped ring.
	Placer ShardPlacer
	// Latency is the request latency model for the modeled throughput
	// (default billing.WAN2009).
	Latency billing.LatencyModel
}

// withDefaults fills unset fields.
func (cfg LoadConfig) withDefaults() LoadConfig {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 2
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 2
	}
	if cfg.Queriers <= 0 {
		cfg.Queriers = 1
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 40
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 256
	}
	if cfg.Latency.Concurrency == 0 {
		cfg.Latency = billing.WAN2009
	}
	return cfg
}

// ShardPlacer is implemented by sharded stores that can report an
// object's home shard (shard.Router does). The harness uses it to build
// hot-shard workloads and per-shard op attribution.
type ShardPlacer interface {
	ShardFor(object prov.ObjectID) int
	NumShards() int
}

// LoadResult is one run's measurements.
type LoadResult struct {
	// Configuration echo (post-default).
	Tenants, Writers, Queriers, Batches int
	// Shards is the shard count of the tenant stores (1 when unsharded).
	Shards int

	// Events is the number of flush events durably written; FlushBatches
	// the number of store-level flushes that carried them.
	Events, FlushBatches int64
	// WriteOps is the total cloud operation count of the write phase
	// (including drains), summed over every namespace; PerShardOps splits
	// it by shard index (summed across tenants). Deterministic per seed.
	WriteOps    int64
	PerShardOps []int64
	// BytesIn is the bytes uploaded during the write phase.
	BytesIn int64

	// ModeledWrite is the write phase's modeled elapsed time: the latency
	// model applied to each namespace's usage, makespan over namespaces —
	// tenants and shards serve in parallel, requests within a namespace
	// contend. Deterministic per seed.
	ModeledWrite time.Duration
	// ThroughputEPS is Events per modeled second — the scale gate metric.
	ThroughputEPS float64

	// Queries and QueryResults count the query phase's work.
	Queries, QueryResults int64
}

// RunLoad executes one sustained-load run: build one cell per tenant (its
// Clouds, in shard order, are the billing keys per-shard op counts and the
// modeled makespan read from), drive the write phase to quiescence,
// snapshot the (deterministic) write metrics, then run the query phase.
func RunLoad(ctx context.Context, cfg LoadConfig, build func(tenant int) (*arch.Sharded, error)) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	targets := make([]*arch.Sharded, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		tg, err := build(t)
		if err != nil {
			return nil, fmt.Errorf("workload: build tenant %d: %w", t, err)
		}
		targets[t] = tg
	}
	res := &LoadResult{
		Tenants: cfg.Tenants, Writers: cfg.Writers, Queriers: cfg.Queriers,
		Batches: cfg.Batches, Shards: len(targets[0].Clouds),
	}
	// Baseline per-namespace usage: resource creation (buckets, domains,
	// queues) happened at build time and is not write-path load.
	baseline := make([][]billing.Usage, cfg.Tenants)
	for t, tg := range targets {
		baseline[t] = make([]billing.Usage, len(tg.Clouds))
		for s, cl := range tg.Clouds {
			baseline[t][s] = cl.Usage()
		}
	}

	var events, batches atomic.Int64

	// Each writer is one PASS client: its own observed process tree, its
	// own namespace, flushing into the shared tenant store.
	type writer struct {
		tenant int
		sys    *pass.System
		run    func(context.Context) error
	}
	var writers []writer
	for t := 0; t < cfg.Tenants; t++ {
		tg := targets[t]
		store := tg.Store
		flush := func(ctx context.Context, batch []pass.FlushEvent) error {
			if err := store.PutBatch(ctx, batch); err != nil {
				return err
			}
			events.Add(int64(len(batch)))
			batches.Add(1)
			return nil
		}
		for w := 0; w < cfg.Writers; w++ {
			t, w := t, w
			sys := pass.NewSystem(pass.Config{
				Kernel:    "2.6.23",
				Namespace: fmt.Sprintf("t%d-w%d", t, w),
				Flush:     flush,
			})
			names := objectNames(cfg, tg.Store, t, w)
			writers = append(writers, writer{tenant: t, sys: sys, run: func(ctx context.Context) error {
				return runWriter(ctx, cfg, sys, names, t, w)
			}})
		}
	}

	// --- write phase ---------------------------------------------------------
	var wg sync.WaitGroup
	errc := make(chan error, len(writers))
	for _, w := range writers {
		wg.Add(1)
		go func(w writer) {
			defer wg.Done()
			if err := w.run(ctx); err != nil {
				errc <- fmt.Errorf("workload: tenant %d writer: %w", w.tenant, err)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return nil, err
	}
	// Quiescent drain, sequential so trailing markers and commit pushes
	// meter deterministically.
	for _, w := range writers {
		if err := w.sys.Sync(ctx); err != nil {
			return nil, fmt.Errorf("workload: final sync: %w", err)
		}
	}
	for t := range targets {
		if err := core.SyncStore(ctx, targets[t].Store); err != nil {
			return nil, fmt.Errorf("workload: store sync: %w", err)
		}
		if err := Drain(ctx, targets[t]); err != nil {
			return nil, fmt.Errorf("workload: drain tenant %d: %w", t, err)
		}
	}
	res.Events = events.Load()
	res.FlushBatches = batches.Load()

	// Deterministic write metrics from the per-namespace meters: the
	// write phase's delta over the build-time baseline.
	res.PerShardOps = make([]int64, res.Shards)
	var makespan time.Duration
	for t, tg := range targets {
		for s, cl := range tg.Clouds {
			u := cl.Usage().Sub(baseline[t][s])
			ops := u.TotalOps()
			res.WriteOps += ops
			if s < len(res.PerShardOps) {
				res.PerShardOps[s] += ops
			}
			res.BytesIn += u.BytesIn(billing.S3) + u.BytesIn(billing.SimpleDB) + u.BytesIn(billing.SQS)
			if d := cfg.Latency.Estimate(u); d > makespan {
				makespan = d
			}
		}
	}
	res.ModeledWrite = makespan
	if makespan > 0 {
		res.ThroughputEPS = float64(res.Events) / makespan.Seconds()
	}

	// --- query phase ---------------------------------------------------------
	var queries, results atomic.Int64
	var qwg sync.WaitGroup
	qerrc := make(chan error, cfg.Tenants*cfg.Queriers)
	for t := 0; t < cfg.Tenants; t++ {
		q := targets[t].Store
		for k := 0; k < cfg.Queriers; k++ {
			t := t
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				for _, desc := range querySet(t) {
					n := int64(0)
					for _, err := range q.Query(ctx, desc) {
						if err != nil {
							qerrc <- fmt.Errorf("workload: tenant %d query: %w", t, err)
							return
						}
						n++
					}
					queries.Add(1)
					results.Add(n)
				}
			}()
		}
	}
	qwg.Wait()
	close(qerrc)
	for err := range qerrc {
		return nil, err
	}
	res.Queries = queries.Load()
	res.QueryResults = results.Load()
	return res, nil
}

// objectNames precomputes writer (t, w)'s file paths. With hot-shard skew
// requested and a placement-aware store, names are chosen by probing the
// ring so the configured fraction lands on the hot shard (which may shift
// mid-run); otherwise names are taken as generated (consistent hashing
// spreads them).
func objectNames(cfg LoadConfig, store core.Store, t, w int) []string {
	placer, _ := store.(ShardPlacer)
	if cfg.Placer != nil {
		placer = cfg.Placer
	}
	skew := cfg.HotShardFraction > 0 && placer != nil && placer.NumShards() > 1
	names := make([]string, cfg.Batches)
	probe := 0
	rng := loadRNG(cfg.Seed, t, w)
	for b := range names {
		if !skew {
			names[b] = fmt.Sprintf("/t%d/w%d/f%d", t, w, b)
			continue
		}
		target := cfg.HotShard
		if cfg.HotShardShiftAt > 0 && b >= cfg.HotShardShiftAt {
			target = cfg.HotShardShiftTo
		}
		target = ((target % placer.NumShards()) + placer.NumShards()) % placer.NumShards()
		hot := rng.Float64() < cfg.HotShardFraction
		for {
			cand := fmt.Sprintf("/t%d/w%d/f%d-%d", t, w, b, probe)
			probe++
			if (placer.ShardFor(prov.ObjectID(cand)) == target) == hot {
				names[b] = cand
				break
			}
		}
	}
	return names
}

// runWriter drives one writer's deterministic batch sequence: a generator
// process writes each file, re-reading an earlier output every few
// batches so lineage chains form (and cross shards).
func runWriter(ctx context.Context, cfg LoadConfig, sys *pass.System, names []string, t, w int) error {
	rng := loadRNG(cfg.Seed+1, t, w)
	var proc *pass.Process
	for b, name := range names {
		if b%8 == 0 {
			if proc != nil {
				sys.Exit(proc)
			}
			proc = sys.Exec(nil, pass.ExecSpec{
				Name: "loadgen",
				Argv: []string{"loadgen", fmt.Sprintf("-t%d", t), fmt.Sprintf("-w%d", w)},
			})
		}
		if b > 0 && b%3 == 0 {
			if err := sys.Read(proc, names[rng.Intn(b)]); err != nil {
				return err
			}
		}
		payload := content.Bytes(uint64(cfg.Seed)+uint64(t)<<32+uint64(w)<<16+uint64(b), cfg.PayloadBytes)
		if err := sys.Write(proc, name, payload, pass.Truncate); err != nil {
			return err
		}
		if err := sys.Close(ctx, proc, name); err != nil {
			return err
		}
	}
	if proc != nil {
		sys.Exit(proc)
	}
	return nil
}

// querySet is the fixed per-querier descriptor sequence: a repository
// listing, a tenant-prefix filter, and a dependents lookup — repeated so
// the warm-cache path is exercised too.
func querySet(tenant int) []prov.Query {
	prefix := fmt.Sprintf("/t%d/", tenant)
	return []prov.Query{
		{Type: prov.TypeFile, Projection: prov.ProjectRefs},
		{RefPrefix: prefix, Projection: prov.ProjectRefs},
		prov.QDependents(prov.ObjectID(fmt.Sprintf("/t%d/w0/f0", tenant))),
		{Type: prov.TypeFile, Projection: prov.ProjectRefs},
		{RefPrefix: prefix, Projection: prov.ProjectFull},
	}
}

// loadRNG derives a writer-scoped deterministic random stream.
func loadRNG(seed int64, t, w int) *loadRand {
	return &loadRand{state: uint64(seed)*2654435761 + uint64(t)<<40 + uint64(w)<<20 + 0x9e3779b97f4a7c15}
}

// loadRand is a tiny splitmix64 stream — enough for name skew and read
// choices without sharing sim.RNG locks across writers.
type loadRand struct{ state uint64 }

func (r *loadRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (r *loadRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Intn returns a uniform int in [0, n).
func (r *loadRand) Intn(n int) int { return int(r.next() % uint64(n)) }
