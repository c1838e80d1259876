package e2e

import (
	"fmt"
	"time"

	"passcloud"
	"passcloud/benchmark/trace"
)

// Spec is one workload: a repository configuration, the trace each client
// replays, and how the measured phases cut that trace up.
//
// Every client's trace is consumed in two parts. The ingest phase replays
// all but the last Rounds*RoundCloses Closes; the repository is then
// dumped once to build the reference. The query phase replays the rest,
// RoundCloses at a time, each group followed by a cold and a warm query
// round. Query targets are all Challenge objects and the trailing Closes
// are never Challenge objects, so one reference holds for the whole phase.
type Spec struct {
	Name string
	// Why records what the workload is for (one line, as in BENCHMARK.json).
	Why     string
	Options passcloud.Options
	// Clients is the number of concurrent load-generating goroutines, each
	// with its own client of the shared region.
	Clients int
	// Build appends one client's shapes. scale multiplies the counts that
	// set run length; the trace must end with tail Closes of objects no
	// query touches.
	Build func(b *trace.Builder, scale float64, tail int)
	// Rounds (at scale 1) and RoundCloses size the query phase, per client.
	Rounds, RoundCloses int
	// SyncEvery makes the ingest phase Sync and Settle after that many
	// Closes (0: once, at the end).
	SyncEvery int
	// SyncRounds makes each query round Sync and Settle between its Closes
	// and its queries — required where a Close is not queryable until the
	// commit daemon has run.
	SyncRounds bool
	// Audits and Replays are repetition counts (at scale 1) of VerifyAll and Replay
	// (replays cycle through every Challenge graphic of client 0).
	Audits, Replays int
}

func scaled(n int, scale float64, minimum int) int {
	return max(int(float64(n)*scale+0.5), minimum)
}

// Workloads lists the benchmark's workloads by name, in reporting order.
var Workloads = []Spec{ingestSDB, queryS3x4, mixedWALx4}

// Lookup finds a workload by name.
func Lookup(name string) (Spec, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// challengeRuns is the fixed number of Challenge DAGs per client: enough
// distinct final graphics for the replay targets, few enough that the
// lineage queries' result sets do not grow with the run length.
const challengeRuns = 6

var ingestSDB = Spec{
	Name: "ingest-sdb",
	Why: "write path: ~3200 closes into one SimpleDB-backed ledger (pass coalescing, integrity commit, " +
		"sdbprov BatchPut); router, s3only, sqs and the cache-hit path stay idle",
	Options:     passcloud.Options{Architecture: passcloud.S3SimpleDB},
	Clients:     1,
	Rounds:      160,
	RoundCloses: 1,
	Audits:      15,
	Replays:     54,
	Build: func(b *trace.Builder, scale float64, tail int) {
		b.Challenge(trace.ChallengeConfig{Runs: challengeRuns, ImageSize: 24 << 10})
		b.Compile(trace.CompileConfig{
			Units:   scaled(3000, scale, 8) + tail,
			Sources: 256, Headers: 64, HeaderFanIn: 14,
			SourceSize: 10 << 10, ObjectSize: 16 << 10,
		})
	},
}

var queryS3x4 = Spec{
	Name: "query-s3x4",
	Why: "read path: cold and warm query rounds on 4 S3-only shards (scan/decode, router fan-in, " +
		"union graph and graph cache, qcache snapshot); ledger, sdb and sqs do little",
	Options:     passcloud.Options{Architecture: passcloud.S3Only, Shards: 4},
	Clients:     1,
	Rounds:      320,
	RoundCloses: 1,
	Audits:      15,
	Replays:     54,
	Build: func(b *trace.Builder, scale float64, tail int) {
		b.Challenge(trace.ChallengeConfig{Runs: challengeRuns, ImageSize: 24 << 10})
		b.Compile(trace.CompileConfig{
			Units:   scaled(1500, scale, 8) + tail,
			Sources: 128, Headers: 64, HeaderFanIn: 14,
			SourceSize: 10 << 10, ObjectSize: 16 << 10,
		})
	},
}

var mixedWALx4 = Spec{
	Name: "mixed-walx4",
	Why: "writes beside reads: 2 concurrent clients on 4 WAL shards under 2 s eventual consistency " +
		"(WAL transactions, commit daemon, sqs, multi-hop planner, verified reads, two-writer contention)",
	Options: passcloud.Options{
		Architecture: passcloud.S3SimpleDBSQS, Shards: 4, ConsistencyDelay: 2 * time.Second,
	},
	Clients:     2,
	Rounds:      80,
	RoundCloses: trace.BlastCloses,
	SyncEvery:   10,
	SyncRounds:  true,
	Audits:      15,
	Replays:     54,
	Build: func(b *trace.Builder, scale float64, tail int) {
		b.Challenge(trace.ChallengeConfig{Runs: challengeRuns, ImageSize: 24 << 10})
		b.Blast(trace.BlastConfig{
			Jobs:          scaled(100, scale, 2) + tail/trace.BlastCloses,
			BatchesPerJob: 6, BatchPool: 32,
			DatabaseSize: 2 << 20, BatchSize: 8 << 10, ResultSize: 6 << 10,
		})
	},
}

// EndToEndMetric declares one gated metric: its unit, which direction is
// better, and the share of the baseline median by which it may get worse
// before that counts as a regression.
type EndToEndMetric struct {
	Name, Unit string
	HigherWins bool
	Bound      float64
}

// EndToEndMetrics lists the gated metrics in reporting order. Every one is
// reported on every workload. BENCHMARK.json carries the same table; a
// test keeps the two equal.
var EndToEndMetrics = []EndToEndMetric{
	{"setup_s", "s", false, 0.25},
	{"close_p50_us", "us", false, 0.25},
	{"close_p90_us", "us", false, 0.25},
	{"ingest_closes_per_s", "1/s", true, 0.25},
	{"query_cold_round_p50_ms", "ms", false, 0.25},
	{"query_cold_round_p90_ms", "ms", false, 0.25},
	{"query_warm_round_p50_us", "us", false, 0.25},
	{"audit_p50_ms", "ms", false, 0.25},
	{"replay_p50_ms", "ms", false, 0.25},
	{"cloud_ops_per_close", "ops", false, 0.05},
	{"cloud_ops_per_cold_round", "ops", false, 0.05},
	{"stored_bytes_per_user_byte", "ratio", false, 0.05},
	{"cpu_us_per_close", "us", false, 0.25},
	{"alloc_kb_per_close", "KiB", false, 0.05},
	{"peak_rss_mb", "MiB", false, 0.15},
}
