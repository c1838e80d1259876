// Package traced is the benchmark's traced driver: the same workload the
// end-to-end driver runs, replayed against a stack assembled by hand from
// passcloud's internal packages with a span around every call into a
// layer. It reports where the time went, by layer; the end-to-end numbers
// are never taken here.
package traced

import (
	"context"
	"fmt"
	"sort"
	"time"

	"passcloud"
	"passcloud/benchmark/e2e"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/qcache"
)

// LayerMetrics lists every per-layer metric, in reporting order, with its
// unit and the direction an optimisation should move it. A traced run
// reports all of them on every workload; one whose layer the workload does
// not reach reads 0.
var LayerMetrics = []struct{ Name, Unit, Better string }{
	{"client.close_p99_us", "us", "lower"},
	{"client.close_drift", "ratio", "lower"},
	{"client.sync_p50_ms", "ms", "lower"},
	{"client.sync_p90_ms", "ms", "lower"},
	{"client.q1_cold_us", "us", "lower"},
	{"client.q2_cold_us", "us", "lower"},
	{"client.q3_cold_us", "us", "lower"},
	{"client.anc_cold_us", "us", "lower"},
	{"client.dep_cold_us", "us", "lower"},
	{"client.attr_cold_us", "us", "lower"},
	{"client.q3_warm_us", "us", "lower"},
	{"client.gc_pause_ms", "ms", "lower"},
	{"client.gc_cycles", "count", "lower"},
	{"client.fail_ratio", "ratio", "lower"},
	{"client.calibration_us_p50", "us", "lower"},
	{"client.calibration_drift", "ratio", "lower"},
	{"pass.self_us_per_close", "us", "lower"},
	{"pass.events_per_flush_p50", "count", "higher"},
	{"pass.events_per_flush_max", "count", "higher"},
	{"pass.flushes", "count", "lower"},
	{"integrity.commit_us_n1k", "us", "lower"},
	{"integrity.commit_us_n16k", "us", "lower"},
	{"integrity.commit_growth", "ratio", "lower"},
	{"integrity.subjecthash_ns_per_record", "ns", "lower"},
	{"integrity.verifyaudit_us_per_version", "us", "lower"},
	{"shard.putbatch_self_us", "us", "lower"},
	{"shard.members_per_putbatch", "count", "lower"},
	{"shard.query_self_us", "us", "lower"},
	{"shard.member_queries_per_query", "count", "lower"},
	{"shard.regime_fanout", "count", "higher"},
	{"shard.regime_multihop", "count", "higher"},
	{"shard.regime_union", "count", "lower"},
	{"store.putbatch_us_per_event", "us", "lower"},
	{"store.query_us_p50", "us", "lower"},
	{"store.audit_ms", "ms", "lower"},
	{"store.sync_ms", "ms", "lower"},
	{"wal.runonce_ms_p50", "ms", "lower"},
	{"wal.txns_per_runonce", "count", "higher"},
	{"wal.pending_at_sync_p50", "count", "lower"},
	{"wal.sqs_ops_per_txn", "ops", "lower"},
	{"qcache.hits", "count", "higher"},
	{"qcache.misses", "count", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"retry.attempts_per_cloud_op", "ratio", "lower"},
	{"retry.retries", "count", "lower"},
	{"retry.do_overhead_ns", "ns", "lower"},
	{"prov.encode_s3meta_ns_per_record", "ns", "lower"},
	{"prov.decode_s3meta_ns_per_record", "ns", "lower"},
	{"prov.encode_sdb_ns_per_record", "ns", "lower"},
	{"sim.s3_ops", "count", "lower"},
	{"sim.sdb_ops", "count", "lower"},
	{"sim.sqs_ops", "count", "lower"},
	{"sim.bytes_in", "B", "lower"},
	{"sim.bytes_out", "B", "lower"},
	{"sim.s3_put_us", "us", "lower"},
	{"sim.s3_head_us", "us", "lower"},
	{"sim.s3_list_us_per_key", "us", "lower"},
	{"sim.sdb_batchput_us_per_item", "us", "lower"},
	{"sim.sdb_select_us_per_item", "us", "lower"},
	{"sim.sqs_send_us", "us", "lower"},
	{"sim.sqs_receive_us", "us", "lower"},
	{"sim.time_share_est", "ratio", "lower"},
	{"replay.extract_cloud_ops", "ops", "lower"},
	{"replay.exec_cloud_ops", "ops", "lower"},
	{"replay.subjects", "count", "higher"},
	{"reshard.split_ms", "ms", "lower"},
	{"reshard.split_cloud_ops", "ops", "lower"},
	{"reshard.moved_subjects", "count", "higher"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// Run executes spec twice: an untraced ingest phase on the public stack
// (the baseline for tracing overhead), then the whole workload on the
// wrapped stack, followed by the probes. It returns the traced run's
// result, its spans and the per-layer metrics.
func Run(ctx context.Context, spec e2e.Spec, cfg e2e.Config) (*e2e.Result, []Span, map[string]e2e.Metric, error) {
	cfg.Setups = 1
	base := cfg
	base.IngestOnly = true
	untraced, err := e2e.Run(ctx, spec, base)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("untraced baseline: %w", err)
	}

	rec := NewRecorder()
	var reg *region
	cfg.Split = true
	cfg.Region = func(opts passcloud.Options) (e2e.Region, error) {
		reg = newRegion(opts, rec)
		return reg, nil
	}
	res, err := e2e.Run(ctx, spec, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	spans := rec.Spans()

	values := make(map[string]float64)
	fromSpans(NewTree(spans), values)
	values["trace.spans"] = float64(len(spans))
	values["trace.overhead_ratio"] = res.IngestWall.Seconds()*res.Calibration/(untraced.IngestWall.Seconds()*untraced.Calibration) - 1

	// Counters the layers keep themselves, summed over the load clients.
	var cache qcache.Stats
	var retries retry.OpStats
	for _, s := range reg.stacks {
		for _, m := range s.members {
			c, r := memberStats(m)
			cache.GraphHits += c.GraphHits
			cache.GraphMisses += c.GraphMisses
			cache.RefHits += c.RefHits
			cache.RefMisses += c.RefMisses
			retries.Attempts += r.Total.Attempts
			retries.Retries += r.Total.Retries
		}
	}
	hits, misses := float64(cache.GraphHits+cache.RefHits), float64(cache.GraphMisses+cache.RefMisses)
	values["qcache.hits"], values["qcache.misses"] = hits, misses
	values["qcache.hit_ratio"] = hits / max(hits+misses, 1)
	values["retry.retries"] = float64(retries.Retries)
	values["retry.attempts_per_cloud_op"] = float64(retries.Attempts) / float64(max(retries.Attempts-retries.Retries, 1))

	first := reg.stacks[0]
	if txns := values["wal.txns"]; txns > 0 {
		// Both sides cover the whole run, set-up included.
		values["wal.sqs_ops_per_txn"] = float64(first.TenantUsage().SQSOps) / txns
	}
	audit, err := first.members[0].(integrity.Auditor).Audit(ctx)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("probe audit: %w", err)
	}
	probeIntegrity(audit, values)
	probeProv(audit, values)
	probeRetry(ctx, first.clouds[0], values)
	if err := probeSim(first.clouds[0], values); err != nil {
		return nil, nil, nil, err
	}
	// What the simulated services alone would account for, were every
	// request as cheap as the probed one: an estimate, not a measurement.
	u := res.IngestUsage
	perBatchPut := values["sim.sdb_batchput_us_per_item"] * max(values["pass.events_per_flush_p50"], 1)
	est := float64(u.S3Ops)*values["sim.s3_put_us"] + float64(u.SimpleDBOps)*perBatchPut + float64(u.SQSOps)*values["sim.sqs_send_us"]
	values["sim.time_share_est"] = est / 1e6 / res.IngestWall.Seconds()

	// What came from the end-to-end driver is already in calibrated
	// units; the span- and probe-derived times are put there now.
	own := make(map[string]e2e.Metric)
	layers := make(map[string]e2e.Metric, len(LayerMetrics))
	for _, m := range LayerMetrics {
		if driver, ok := res.Layer[m.Name]; ok {
			layers[m.Name] = driver
		} else {
			own[m.Name] = e2e.Metric{Value: values[m.Name], Unit: m.Unit}
		}
	}
	e2e.Calibrate(own, res.Calibration)
	for name, m := range own {
		layers[name] = m
	}
	return res, spans, layers, nil
}

// memberStats reads a member's own cache and retry counters, through the
// wrapper.
func memberStats(m any) (qcache.Stats, retry.Snapshot) {
	switch m := m.(type) {
	case s3onlyMember:
		return m.CacheStats(), m.RetryStats()
	case s3sdbMember:
		return m.Layer().CacheStats(), m.RetryStats()
	case s3sdbsqsMember:
		return m.Layer().CacheStats(), m.RetryStats()
	}
	return qcache.Stats{}, retry.Snapshot{}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the middle value of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[len(vs)/2]
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// fromSpans derives the span-based per-layer metrics.
func fromSpans(t *Tree, out map[string]float64) {
	// pass: what a close costs above the flush it triggers.
	var passSelf []float64
	for _, c := range t.Named("client.close") {
		passSelf = append(passSelf, micros(t.Self(c)))
	}
	out["pass.self_us_per_close"] = mean(passSelf)
	var events []float64
	for _, f := range t.Named("pass.flush") {
		events = append(events, float64(f.N))
	}
	out["pass.flushes"] = float64(len(events))
	out["pass.events_per_flush_p50"] = median(events)
	if len(events) > 0 {
		out["pass.events_per_flush_max"] = events[len(events)-1] // median sorted them
	}

	// shard: the router's own time around its members' calls.
	for _, side := range []struct{ router, member, self, fanout string }{
		{"shard.putbatch", "store.putbatch", "shard.putbatch_self_us", "shard.members_per_putbatch"},
		{"shard.query", "store.query", "shard.query_self_us", "shard.member_queries_per_query"},
	} {
		var self, fanout []float64
		for _, s := range t.Named(side.router) {
			self = append(self, micros(t.Self(s)))
			fanout = append(fanout, float64(len(t.Children(s, side.member))))
		}
		out[side.self], out[side.fanout] = mean(self), mean(fanout)
	}

	// store: the architecture protocols, per member call.
	var putTotal time.Duration
	putEvents := 0
	for _, s := range t.Named("store.putbatch") {
		putTotal += s.Duration()
		putEvents += s.N
	}
	out["store.putbatch_us_per_event"] = micros(putTotal) / float64(max(putEvents, 1))
	var queries, audits, syncs []float64
	for _, s := range t.Named("store.query") {
		queries = append(queries, micros(s.Duration()))
	}
	for _, s := range t.Named("store.audit") {
		audits = append(audits, micros(s.Duration())/1e3)
	}
	for _, s := range t.Named("store.sync") {
		syncs = append(syncs, micros(s.Duration())/1e3)
	}
	out["store.query_us_p50"] = median(queries)
	out["store.audit_ms"] = mean(audits)
	out["store.sync_ms"] = mean(syncs)

	// wal: the commit daemon's passes that found work (most find none:
	// every Sync polls each shard's daemon until all are idle), and what
	// each Sync found waiting.
	var runs, txns, pending []float64
	total := 0.0
	for _, s := range t.Named("wal.runonce") {
		if s.N > 0 {
			runs = append(runs, micros(s.Duration())/1e3)
			txns = append(txns, float64(s.N))
			total += float64(s.N)
		}
	}
	for _, s := range t.Named("client.sync") {
		n := 0.0
		for _, c := range t.Children(s, "wal.runonce") {
			n += float64(c.N)
		}
		pending = append(pending, n)
	}
	out["wal.runonce_ms_p50"] = median(runs)
	out["wal.txns_per_runonce"] = mean(txns)
	out["wal.txns"] = total
	if total > 0 {
		out["wal.pending_at_sync_p50"] = median(pending)
	}
}
