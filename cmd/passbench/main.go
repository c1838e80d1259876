// Command passbench regenerates the paper's evaluation: Table 1 (properties
// comparison), Table 2 (storage cost comparison) and Table 3 (query cost
// comparison), from the calibrated combined workload (Linux compile + Blast
// + Provenance Challenge).
//
//	passbench -table all -scale 0.1
//	passbench -table 2 -estimate        # the paper's analytical formulas
//	passbench -table 3 -tool softmean
//	passbench -table 3 -qcache          # adds Q.n+ repeat rows (snapshot cache)
//	passbench -usd                      # January-2009 USD pricing
//	passbench -json > BENCH_run.json    # machine-readable, for trajectory tracking
//	passbench -load                     # scale-out matrix: 3 archs x 1/4/16 shards
//	passbench -load -load-shards 1,8    # custom shard counts
//	passbench -load-rebalance           # elastic resharding: skewed load -> split -> replay
//	passbench -sharded                  # Tables 2/3 through the shard router + verification cost
//	passbench -replay                   # replay cost matrix: every lineage re-executed on a fresh namespace
//	passbench -cpuprofile cpu.out -memprofile mem.out   # pprof profiles of the run
//
// The -load mode runs the sustained-load harness (internal/workload): an
// open-loop multi-tenant generator against each architecture sharded
// across isolated namespaces, reporting deterministic write throughput
// under the WAN2009 latency model. Host time is benchmark/'s to measure.
// With -json the numbers ride the report's "load" section, which
// benchdiff gates the same way it gates the cost tables.
//
// Scale 1.0 reproduces the paper's dataset size (~1.27 GB, ~31k objects);
// the default 0.1 keeps memory modest while preserving every ratio.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/props"
	"passcloud/internal/cost"
	"passcloud/internal/workload"
)

// report is the machine-readable form -json emits: everything the run
// produced, under a stable schema tag so trajectory tooling can diff
// BENCH_*.json files across commits.
type report struct {
	Schema string  `json:"schema"` // "passbench/v1"
	Scale  float64 `json:"scale"`
	Seed   int64   `json:"seed"`
	Tool   string  `json:"tool"`
	// QueryCache records whether Table 3 ran with the snapshot cache
	// enabled (its rows then include "+"-suffixed repeat runs).
	QueryCache bool               `json:"query_cache,omitempty"`
	Table1     []cost.Table1Row   `json:"table1,omitempty"`
	Table2     *cost.Table2       `json:"table2,omitempty"`
	Table3     *cost.Table3       `json:"table3,omitempty"`
	Dataset    *cost.DatasetStats `json:"dataset,omitempty"`
	// Retry reports each architecture's cumulative retry overhead for the
	// run (attempts, retries, recoveries, exhaustions, backoff wait). On a
	// healthy simulated region every counter except Attempts is zero;
	// benchdiff gates on regressions.
	Retry map[string]retryTotals `json:"retry,omitempty"`
	// USD is the January-2009 load-phase bill per architecture.
	USD map[string]float64 `json:"usd,omitempty"`
	// Load is the scale-out matrix (-load): sustained-load throughput per
	// architecture and shard count.
	Load *loadReportJSON `json:"load,omitempty"`
	// Rebalance is the elastic-resharding measurement (-load-rebalance):
	// hot-shard op shares before and after the migration controller's
	// split, plus the migration's own metered cost. benchdiff gates the
	// post-split share and the migration cost.
	Rebalance *rebalanceReportJSON `json:"rebalance,omitempty"`
	// Sharded is the sharded cost matrix (-sharded): the Tables 2/3
	// workloads through the shard router at each shard count, plus the
	// ops and dollars a full tamper-evidence audit of each namespace
	// costs. benchdiff gates its op counts and the verification cost.
	Sharded *cost.ShardedCosts `json:"sharded,omitempty"`
	// Replay is the replay cost matrix (-replay): every current lineage
	// re-executed against a fresh sandbox namespace, with the extraction
	// and re-execution ops and the January-2009 re-execution bill.
	// benchdiff gates the op counts, the bill, and that the replay of a
	// faithful capture stays divergence-free.
	Replay *cost.ReplayCosts `json:"replay,omitempty"`
}

// retryTotals is the stable JSON shape for one architecture's retry
// counters (wait rendered in milliseconds for the trajectory log).
type retryTotals struct {
	Attempts  int64   `json:"attempts"`
	Retries   int64   `json:"retries"`
	Recovered int64   `json:"recovered"`
	Exhausted int64   `json:"exhausted"`
	WaitMS    float64 `json:"wait_ms"`
}

func main() {
	table := flag.String("table", "all", "which table to produce: 1, 2, 3 or all")
	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 2009, "random seed")
	tool := flag.String("tool", "softmean", "Q.2/Q.3 target tool")
	estimate := flag.Bool("estimate", false, "also print Table 2 from the paper's analytical formulas, extrapolated to scale 1.0")
	usd := flag.Bool("usd", false, "also print the January-2009 USD bill per architecture")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON report on stdout instead of the text tables")
	qcacheOn := flag.Bool("qcache", false, "enable the query snapshot cache; Table 3 adds Q.n+ repeat rows, and base rows after the first query may be warm too (classes share the snapshot) — omit for the paper's cold costs")
	load := flag.Bool("load", false, "run the sustained-load scale-out matrix (all architectures at every -load-shards count)")
	rebalance := flag.Bool("load-rebalance", false, "run the elastic-resharding rebalance bench: skewed load, hot-shard detection + split, replayed load (all architectures at 4 shards)")
	loadShards := flag.String("load-shards", "1,4,16", "comma-separated shard counts for -load")
	sharded := flag.Bool("sharded", false, "run the sharded cost matrix: Tables 2/3 workloads through the shard router plus verification cost, at every -shard-counts count")
	shardCounts := flag.String("shard-counts", "1,4,16", "comma-separated shard counts for -sharded")
	replayBench := flag.Bool("replay", false, "run the replay cost matrix: every current lineage re-executed against a fresh sandbox namespace, at every -replay-shards count")
	replayShards := flag.String("replay-shards", "1,4", "comma-separated shard counts for -replay")
	loadTenants := flag.Int("load-tenants", 2, "tenants for -load (each gets isolated namespaces and its own billing keys)")
	loadWriters := flag.Int("load-writers", 2, "concurrent writers per tenant for -load")
	loadQueriers := flag.Int("load-queriers", 1, "concurrent queriers per tenant for -load")
	loadBatches := flag.Int("load-batches", 40, "file closes per writer for -load")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	ctx := context.Background()
	want := func(t string) bool { return *table == "all" || *table == t }
	rep := &report{Schema: "passbench/v1", Scale: *scale, Seed: *seed, Tool: *tool, QueryCache: *qcacheOn}

	if want("1") {
		rows, err := runTable1(ctx, *seed)
		if err != nil {
			log.Fatalf("table 1: %v", err)
		}
		rep.Table1 = rows
		if !*jsonOut {
			fmt.Println(cost.Table1Report(rows))
		}
	}

	if want("2") || want("3") || *usd || *sharded {
		h := &cost.Harness{Scale: *scale, Seed: *seed, Tool: *tool, CachedQueries: *qcacheOn}
		fmt.Fprintf(os.Stderr, "passbench: loading combined workload at scale %.2f into all three architectures...\n", *scale)

		if want("2") {
			t2, err := h.Table2Measured(ctx)
			if err != nil {
				log.Fatalf("table 2: %v", err)
			}
			rep.Table2 = t2
			st := h.Stats()
			rep.Dataset = &st
			if !*jsonOut {
				fmt.Println(t2)
				if *estimate {
					est, err := h.Table2Estimated(ctx)
					if err != nil {
						log.Fatalf("table 2 estimate: %v", err)
					}
					fmt.Println(est)
				}
				fmt.Printf("dataset: %d objects, %d items, %d records (%d over 1KB), %d transient versions\n\n",
					st.Objects, st.Items, st.Records, st.BigRecords, st.Transients)
			}
		}

		if want("3") {
			t3, err := h.Table3Measured(ctx)
			if err != nil {
				log.Fatalf("table 3: %v", err)
			}
			rep.Table3 = t3
			if !*jsonOut {
				fmt.Println(t3)
			}
		}

		// Retry overhead counters ride every report that loaded the
		// workload, so the trajectory gate sees retries appearing.
		rep.Retry = make(map[string]retryTotals)
		for _, name := range arch.Names {
			snap, ok := h.RetrySnapshot(name)
			if !ok {
				continue
			}
			rep.Retry[name] = retryTotals{
				Attempts:  snap.Total.Attempts,
				Retries:   snap.Total.Retries,
				Recovered: snap.Total.Recovered,
				Exhausted: snap.Total.Exhausted,
				WaitMS:    float64(snap.Total.Wait) / float64(time.Millisecond),
			}
		}

		if *usd {
			if err := h.Load(ctx); err != nil {
				log.Fatalf("usd: %v", err)
			}
			rep.USD = make(map[string]float64)
			if !*jsonOut {
				fmt.Println("January-2009 USD bill per architecture (load phase):")
			}
			for _, name := range arch.Names {
				u, ok := h.Usage(name)
				if !ok {
					continue
				}
				rep.USD[name] = billing.Jan2009.Price(u).Total()
				if !*jsonOut {
					fmt.Println(cost.USDReport(name, u))
				}
			}
			if !*jsonOut {
				fmt.Println()
			}
		}

		if *sharded {
			counts, err := parseShardCounts(*shardCounts)
			if err != nil {
				log.Fatalf("sharded: %v", err)
			}
			fmt.Fprintf(os.Stderr, "passbench: sharded cost matrix at shard counts %v...\n", counts)
			sc, err := h.Sharded(ctx, counts)
			if err != nil {
				log.Fatalf("sharded: %v", err)
			}
			rep.Sharded = sc
			if !*jsonOut {
				fmt.Println(sc)
			}
		}
	}

	if *replayBench {
		counts, err := parseShardCounts(*replayShards)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		fmt.Fprintf(os.Stderr, "passbench: replay cost matrix at shard counts %v...\n", counts)
		h := &cost.Harness{Scale: *scale, Seed: *seed, Tool: *tool}
		rc, err := h.Replay(ctx, counts)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		rep.Replay = rc
		if !*jsonOut {
			fmt.Println(rc)
		}
	}

	if *load {
		counts, err := parseShardCounts(*loadShards)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
		cfg := workload.LoadConfig{
			Tenants: *loadTenants, Writers: *loadWriters, Queriers: *loadQueriers,
			Batches: *loadBatches, Seed: *seed,
		}
		lrep, err := runLoadMatrix(ctx, cfg, counts)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
		rep.Load = lrep
		if !*jsonOut {
			fmt.Println(lrep.text())
		}
	}

	if *rebalance {
		cfg := workload.LoadConfig{
			Writers: *loadWriters, Batches: *loadBatches, Seed: *seed,
		}
		rrep, err := runRebalanceMatrix(ctx, cfg)
		if err != nil {
			log.Fatalf("rebalance: %v", err)
		}
		rep.Rebalance = rrep
		if !*jsonOut {
			fmt.Println(rrep.text())
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	}
}

func runTable1(ctx context.Context, seed int64) ([]cost.Table1Row, error) {
	var rows []cost.Table1Row
	for _, h := range props.StandardHarnesses(seed) {
		report, err := props.Check(ctx, h)
		if err != nil {
			return nil, err
		}
		rows = append(rows, cost.Table1Row{
			Arch:           report.Name,
			Atomicity:      report.Measured.Atomicity,
			Consistency:    report.Measured.Consistency,
			CausalOrdering: report.Measured.CausalOrdering,
			EfficientQuery: report.Measured.EfficientQuery,
		})
		for _, v := range report.Violations {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", report.Name, v)
		}
	}
	return rows, nil
}
