// Package e2e is the benchmark's end-to-end driver: it replays a seeded
// trace against the repository through the public passcloud API, times
// what a caller sees, and checks every answer against its own reference.
//
// The package imports passcloud, the trace generator and the standard
// library, nothing else, and calls no deprecated method — so it keeps
// building, unchanged, across the refactors it exists to measure. The
// traced driver reuses it by supplying its own Region.
package e2e

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"passcloud"
	"passcloud/benchmark/trace"
)

// Config parameterizes one run.
type Config struct {
	Seed uint64
	// Scale multiplies the workload's default size (1: the size every
	// reported number is taken at).
	Scale float64
	// Region builds the stack to measure; nil selects PublicRegion.
	Region RegionFunc
	// Setups is how many times set-up runs (the median time is reported;
	// the last one's repository is measured). At least 1.
	Setups int
	// IngestOnly stops after the ingest phase: the traced driver's
	// untraced baseline for tracing overhead.
	IngestOnly bool
	// Split ends a sharded run with one resharding Split.
	Split bool
	// BreakReference corrupts one expected result set, so tests can watch
	// the correctness gate trip.
	BreakReference bool
}

// QueryClasses names a round's six searches, in execution order.
var QueryClasses = []string{"q1", "q2", "q3", "anc", "dep", "attr"}

// Result is everything one run measured.
type Result struct {
	// Attempted counts operations issued and correctness checks made;
	// Failed counts the errors and the misses among them.
	Attempted, Failed int
	// EndToEnd holds the gated metrics, Layer the per-layer ones this
	// driver can see from outside (client.*, sim.* counts, replay.*,
	// reshard.*, shard.regime_*).
	EndToEnd, Layer map[string]Metric
	// Calibration is the factor every reported time was multiplied by:
	// the calibration work's nominal duration ÷ its median duration in
	// this run.
	Calibration float64
	// IngestWall is the ingest phase's wall time, as the clock read it.
	IngestWall time.Duration
	// IngestUsage is the tenant's metered usage over the ingest phase.
	IngestUsage passcloud.UsageSummary
	// Strategies lists the Explain strategy of each query class, in
	// QueryClasses order.
	Strategies []string
}

// Correct reports a run with no failed operation and no missed check.
func (r *Result) Correct() bool { return r.Failed == 0 }

// clientState is one load-generating client and its trace cursor.
type clientState struct {
	repo Repo
	tr   *trace.Trace
	next int // index of the next op in tr.Ops
	// lastClosed is the most recently closed path.
	lastClosed string
	// closed lists every path closed so far.
	closed []string
}

type runner struct {
	spec    Spec
	cfg     Config
	region  Region
	clients []*clientState
	// cal scales every time reading to reference-machine units.
	cal *calibrator

	mu        sync.Mutex
	attempted int
	failed    int
}

// check counts one operation or correctness check; a non-nil err is a
// failure. The first few failures are described on standard error.
func (r *runner) check(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "benchmark: FAIL %s: %v\n", what, err)
	}
	return false
}

// Run executes one workload and returns its measurements. An error means
// the run could not be carried out at all; failed operations and missed
// checks are counted in the Result instead.
func Run(ctx context.Context, spec Spec, cfg Config) (*Result, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Region == nil {
		cfg.Region = PublicRegion
	}
	r := &runner{spec: spec, cfg: cfg, cal: newCalibrator()}
	rounds := scaled(spec.Rounds, cfg.Scale, 2)

	var setups samples
	for i := 0; i < max(cfg.Setups, 1); i++ {
		r.cal.measure()
		start := time.Now()
		if err := r.setup(ctx, rounds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(start)
	}

	res := &Result{EndToEnd: map[string]Metric{}, Layer: map[string]Metric{}}
	res.EndToEnd["setup_s"] = Metric{setups.percentile(50).Seconds(), "s"}

	// Each phase starts from a collected heap, so one phase's garbage is
	// not collected on the next one's clock.
	var closes samples
	runtime.GC()
	ingest := r.ingestPhase(ctx, rounds, &closes)
	res.IngestWall, res.IngestUsage = ingest.wall, ingest.usage
	nIngest := float64(len(closes))
	ingestOps := ops(ingest.usage)
	res.EndToEnd["ingest_closes_per_s"] = Metric{nIngest / ingest.wall.Seconds(), "1/s"}
	res.EndToEnd["cloud_ops_per_close"] = Metric{float64(ingestOps) / nIngest, "ops"}
	res.EndToEnd["cpu_us_per_close"] = Metric{us(ingest.cpu) / nIngest, "us"}
	res.EndToEnd["alloc_kb_per_close"] = Metric{float64(ingest.alloc) / 1024 / nIngest, "KiB"}
	res.Layer["client.sync_p50_ms"] = Metric{ms(ingest.syncs.percentile(50)), "ms"}
	res.Layer["client.sync_p90_ms"] = Metric{ms(ingest.syncs.percentile(90)), "ms"}
	res.Layer["sim.s3_ops"] = Metric{float64(ingest.usage.S3Ops), "count"}
	res.Layer["sim.sdb_ops"] = Metric{float64(ingest.usage.SimpleDBOps), "count"}
	res.Layer["sim.sqs_ops"] = Metric{float64(ingest.usage.SQSOps), "count"}
	res.Layer["sim.bytes_in"] = Metric{float64(ingest.usage.TransferredIn), "B"}
	res.Layer["sim.bytes_out"] = Metric{float64(ingest.usage.TransferredOut), "B"}
	res.Layer["client.close_drift"] = Metric{ingest.drift, "ratio"}
	if cfg.IngestOnly {
		r.finish(res)
		return res, nil
	}

	runtime.GC()
	q := r.queryPhase(ctx, rounds, &closes)
	res.Strategies = q.strategies
	res.EndToEnd["close_p50_us"] = Metric{us(closes.percentile(50)), "us"}
	res.EndToEnd["close_p90_us"] = Metric{us(closes.percentile(90)), "us"}
	res.Layer["client.close_p99_us"] = Metric{us(closes.percentile(99)), "us"}
	res.EndToEnd["query_cold_round_p50_ms"] = Metric{ms(q.cold.percentile(50)), "ms"}
	res.EndToEnd["query_cold_round_p90_ms"] = Metric{ms(q.cold.percentile(90)), "ms"}
	res.EndToEnd["query_warm_round_p50_us"] = Metric{us(q.warm.percentile(50)), "us"}
	res.EndToEnd["cloud_ops_per_cold_round"] = Metric{float64(q.coldOps) / float64(q.countedRounds), "ops"}
	for i, class := range QueryClasses {
		res.Layer["client."+class+"_cold_us"] = Metric{us(q.coldByClass[i].percentile(50)), "us"}
	}
	res.Layer["client.q3_warm_us"] = Metric{us(q.warmByClass[2].percentile(50)), "us"}
	for _, regime := range []string{"fanout", "multihop", "union-graph"} {
		n := 0
		for _, s := range q.strategies {
			if s == regime {
				n++
			}
		}
		name := "shard.regime_" + regime
		if regime == "union-graph" {
			name = "shard.regime_union"
		}
		res.Layer[name] = Metric{float64(n), "count"}
	}

	runtime.GC()
	audits := r.auditPhase(ctx)
	res.EndToEnd["audit_p50_ms"] = Metric{ms(audits.percentile(50)), "ms"}

	runtime.GC()
	rp := r.replayPhase(ctx)
	res.EndToEnd["replay_p50_ms"] = Metric{ms(rp.times.percentile(50)), "ms"}
	res.Layer["replay.extract_cloud_ops"] = Metric{rp.extractOps, "ops"}
	res.Layer["replay.exec_cloud_ops"] = Metric{rp.execOps, "ops"}
	res.Layer["replay.subjects"] = Metric{rp.subjects, "count"}

	userBytes := r.readBack(ctx)
	stored := r.clients[0].repo.TenantUsage()
	res.EndToEnd["stored_bytes_per_user_byte"] = Metric{
		float64(stored.S3Stored+stored.SimpleDBStored+stored.SQSStored) / float64(max(userBytes, 1)), "ratio"}
	r.freshClient(ctx, q.q2)

	if cfg.Split && spec.Options.Shards > 1 {
		start := time.Now()
		rep, err := r.clients[0].repo.Split(ctx)
		if r.check("split", err) {
			res.Layer["reshard.split_ms"] = Metric{ms(time.Since(start)), "ms"}
			res.Layer["reshard.split_cloud_ops"] = Metric{float64(rep.MigTotalOps), "ops"}
			res.Layer["reshard.moved_subjects"] = Metric{float64(rep.Subjects), "count"}
		}
	}
	r.finish(res)
	return res, nil
}

// finish stamps the process-wide figures into res and puts every time in
// calibrated units.
func (r *runner) finish(res *Result) {
	heap := readHeap()
	res.Layer["client.gc_pause_ms"] = Metric{ms(heap.gcPause), "ms"}
	res.Layer["client.gc_cycles"] = Metric{float64(heap.gcCycles), "count"}
	res.EndToEnd["peak_rss_mb"] = Metric{peakRSSMiB(), "MiB"}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Layer["client.fail_ratio"] = Metric{float64(r.failed) / float64(max(r.attempted, 1)), "ratio"}

	res.Calibration = r.cal.factor()
	Calibrate(res.EndToEnd, res.Calibration)
	Calibrate(res.Layer, res.Calibration)
	work := r.cal.durations()
	res.Layer["client.calibration_us_p50"] = Metric{us(work.percentile(50)), "us"}
	res.Layer["client.calibration_drift"] = Metric{float64(work.percentile(95)) / float64(work.percentile(5)), "ratio"}
}

// Calibrate scales every time in metrics by factor (and every rate by its
// inverse), selecting them by unit.
func Calibrate(metrics map[string]Metric, factor float64) {
	for name, m := range metrics {
		switch m.Unit {
		case "ns", "us", "ms", "s":
			m.Value *= factor
		case "1/s":
			m.Value /= factor
		}
		metrics[name] = m
	}
}

func ops(u passcloud.UsageSummary) int64 { return u.S3Ops + u.SimpleDBOps + u.SQSOps }

func usageDelta(after, before passcloud.UsageSummary) passcloud.UsageSummary {
	return passcloud.UsageSummary{
		S3Ops:          after.S3Ops - before.S3Ops,
		SimpleDBOps:    after.SimpleDBOps - before.SimpleDBOps,
		SQSOps:         after.SQSOps - before.SQSOps,
		TransferredIn:  after.TransferredIn - before.TransferredIn,
		TransferredOut: after.TransferredOut - before.TransferredOut,
	}
}

// setup builds the region, the clients and their traces, ingests the
// pre-existing files and drains them, replacing any earlier set-up.
func (r *runner) setup(ctx context.Context, rounds int) error {
	opts := r.spec.Options
	opts.Seed = int64(r.cfg.Seed)
	region, err := r.cfg.Region(opts)
	if err != nil {
		return err
	}
	r.region, r.clients = region, nil
	for i := 0; i < r.spec.Clients; i++ {
		repo, err := region.NewClient(fmt.Sprintf("c%d", i))
		if err != nil {
			return err
		}
		b := trace.NewBuilder(r.cfg.Seed, uint64(i), fmt.Sprintf("/c%d", i))
		r.spec.Build(b, r.cfg.Scale, r.tailCloses(i, rounds))
		tr := b.Trace()
		for j := range tr.Setup {
			if err := tr.Setup[j].Apply(ctx, repo); err != nil {
				return fmt.Errorf("%s %s: %w", tr.Setup[j].Kind, tr.Setup[j].Path, err)
			}
		}
		if err := repo.Sync(ctx); err != nil {
			return err
		}
		r.clients = append(r.clients, &clientState{repo: repo, tr: tr})
	}
	r.clients[0].repo.Settle()
	return nil
}

// drive replays c's trace until n more Closes have completed (or the
// trace ends), timing each Close into *timed. syncEvery > 0 adds a Sync
// and a Settle after that many Closes, timed into *syncs.
func (r *runner) drive(ctx context.Context, c *clientState, n, syncEvery int, timed, syncs *samples) {
	done := 0
	for done < n && c.next < len(c.tr.Ops) {
		op := &c.tr.Ops[c.next]
		c.next++
		if op.Kind != trace.Close {
			r.check(op.Kind.String(), op.Apply(ctx, c.repo))
			continue
		}
		r.cal.due()
		start := time.Now()
		err := op.Apply(ctx, c.repo)
		timed.add(start)
		r.check("close "+op.Path, err)
		c.lastClosed = op.Path
		c.closed = append(c.closed, op.Path)
		done++
		if syncEvery > 0 && done%syncEvery == 0 {
			r.sync(ctx, c, syncs)
		}
	}
}

func (r *runner) sync(ctx context.Context, c *clientState, syncs *samples) {
	start := time.Now()
	err := c.repo.Sync(ctx)
	if syncs != nil {
		syncs.add(start)
	}
	r.check("sync", err)
	c.repo.Settle()
}

// perClient runs f once per client, concurrently, and waits.
func (r *runner) perClient(f func(i int, c *clientState)) {
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, c)
		}()
	}
	wg.Wait()
}

type ingestStats struct {
	// wall and cpu exclude the time spent calibrating.
	wall, cpu time.Duration
	// drift is client 0's last-quartile ÷ first-quartile median Close.
	drift float64
	alloc uint64
	usage passcloud.UsageSummary
	syncs samples
}

// ingestPhase replays every client's trace up to the query phase's tail,
// ending with a Sync of every client: close() -> durable -> queryable.
func (r *runner) ingestPhase(ctx context.Context, rounds int, closes *samples) ingestStats {
	perClientCloses := make([]samples, len(r.clients))
	perClientSyncs := make([]samples, len(r.clients))
	usage0 := r.clients[0].repo.TenantUsage()
	heap0, cpu0, cal0, start := readHeap(), cpuTime(), r.cal.timeSpent(), time.Now()
	r.perClient(func(i int, c *clientState) {
		n := c.tr.Closes() - r.tailCloses(i, rounds)
		r.drive(ctx, c, n, r.spec.SyncEvery, &perClientCloses[i], &perClientSyncs[i])
		r.sync(ctx, c, &perClientSyncs[i])
	})
	// Calibration is single-threaded and allocation-free: its CPU time is
	// its wall time, and of the phase's wall time it took its share of one
	// client's.
	calibrating := r.cal.timeSpent() - cal0
	st := ingestStats{
		wall: time.Since(start) - calibrating/time.Duration(len(r.clients)),
		cpu:  cpuTime() - cpu0 - calibrating,
	}
	st.alloc = readHeap().allocBytes - heap0.allocBytes
	st.usage = usageDelta(r.clients[0].repo.TenantUsage(), usage0)
	for i := range r.clients {
		*closes = append(*closes, perClientCloses[i]...)
		st.syncs = append(st.syncs, perClientSyncs[i]...)
	}
	if first := perClientCloses[0]; len(first) >= 4 {
		quarter := len(first) / 4
		st.drift = float64(first[len(first)-quarter:].percentile(50)) / float64(first[:quarter].percentile(50))
	}
	return st
}

type queryStats struct {
	cold, warm               samples
	coldByClass, warmByClass [6]samples
	// coldOps are the requests billed to the countedRounds cold rounds
	// that ran with no other client active; with several clients, warm
	// holds only those rounds' readings too.
	coldOps       int64
	countedRounds int
	strategies    []string
	// q2 is client 0's reference result for the q2 class.
	q2 []passcloud.Ref
}

func (st *queryStats) merge(o *queryStats) {
	st.cold = append(st.cold, o.cold...)
	st.warm = append(st.warm, o.warm...)
	for class := range st.coldByClass {
		st.coldByClass[class] = append(st.coldByClass[class], o.coldByClass[class]...)
		st.warmByClass[class] = append(st.warmByClass[class], o.warmByClass[class]...)
	}
	st.coldOps += o.coldOps
	st.countedRounds += o.countedRounds
}

// soloRounds is how many extra rounds client 0 runs alone after a
// multi-client query phase (at scale 1). Two readings need the other
// clients quiet:
// the tenant's meters are shared, so requests can be attributed to a cold
// round only then; and a warm round is one on an unchanged repository,
// which a concurrent writer does not leave it.
const soloRounds = 24

func (r *runner) soloRounds() int { return scaled(soloRounds, r.cfg.Scale, 2) }

// tailCloses is the number of trailing Closes the query phase needs from
// client i's trace.
func (r *runner) tailCloses(i, rounds int) int {
	if i == 0 && r.spec.Clients > 1 {
		rounds += r.soloRounds()
	}
	return rounds * r.spec.RoundCloses
}

// target picks the round's Challenge run and final graphic, cycling
// through every graphic of the client's trace.
func target(c *clientState, round int) (trace.ChallengeRun, string) {
	t := round % (len(c.tr.Runs) * 3)
	run := c.tr.Runs[t/3]
	return run, run.Graphics[t%3]
}

// roundSpecs builds one client's six searches for one round.
func roundSpecs(c *clientState, round int) [6]passcloud.QuerySpec {
	run, graphic := target(c, round)
	q2 := passcloud.QuerySpec{Tool: "softmean", Type: "file", RefsOnly: true}
	q3 := q2
	q3.Direction = passcloud.TraverseDescendants
	return [6]passcloud.QuerySpec{
		{Refs: []passcloud.Ref{{Object: c.lastClosed}}},
		q2,
		q3,
		{Refs: []passcloud.Ref{{Object: graphic}}, Direction: passcloud.TraverseAncestors, RefsOnly: true},
		{RefPrefix: run.Reference + ":", Direction: passcloud.TraverseDescendants, Depth: 1, IncludeSeeds: true, RefsOnly: true},
		{Type: "process", Attrs: map[string]string{"name": "align_warp"}, Limit: 100},
	}
}

// searchAll runs spec to its last page.
func searchAll(ctx context.Context, repo Repo, spec passcloud.QuerySpec) ([]passcloud.ProvenanceEntry, error) {
	var out []passcloud.ProvenanceEntry
	for restarts := 0; ; {
		res, err := repo.Search(ctx, spec)
		if errors.Is(err, passcloud.ErrCursorExpired) && restarts < 3 {
			// The pinned page sequence was evicted under a concurrent
			// write: start over, as the API asks.
			restarts++
			spec.Cursor, out = "", nil
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, res.Entries...)
		if res.Cursor == "" {
			return out, nil
		}
		spec.Cursor = res.Cursor
	}
}

func entryRefs(entries []passcloud.ProvenanceEntry) []passcloud.Ref {
	refs := make([]passcloud.Ref, len(entries))
	for i, e := range entries {
		refs[i] = e.Ref
	}
	return refs
}

// checkClosed verifies that g holds path's version 0 with its name and
// type records.
func checkClosed(g *reference, path string) error {
	ref := passcloud.Ref{Object: path}
	if !g.has(ref, "name", path) || !g.has(ref, "type", "file") {
		return fmt.Errorf("%s: name/type records missing", ref)
	}
	return nil
}

// expectation is the reference answer of every stable query: per client,
// one set per class, and for the ancestry class one per target graphic.
// q1's answer is the round's own target and is not stored.
type expectation map[expectKey][]passcloud.Ref

type expectKey struct {
	client, class int
	graphic       string
}

func (e expectation) key(i int, c *clientState, class, round int) expectKey {
	k := expectKey{client: i, class: class}
	if QueryClasses[class] == "anc" {
		_, k.graphic = target(c, round)
	}
	return k
}

// queryPhase dumps the repository, builds the reference, then replays
// each client's trace tail RoundCloses at a time, following each group
// with a cold and a warm round whose results must equal the reference.
func (r *runner) queryPhase(ctx context.Context, rounds int, closes *samples) *queryStats {
	st := &queryStats{}
	dump, err := searchAll(ctx, r.clients[0].repo, passcloud.QuerySpec{})
	r.check("dump", err)
	g := newReference(dump)
	expected := expectation{}
	for i, c := range r.clients {
		for _, op := range c.tr.Setup {
			r.check("ingested present", checkClosed(g, op.Path))
		}
		for _, path := range c.closed {
			r.check("closed present", checkClosed(g, path))
		}
		for round := 0; round < len(c.tr.Runs)*3; round++ {
			specs := roundSpecs(c, round)
			for class := 1; class < len(specs); class++ {
				if k := expected.key(i, c, class, round); expected[k] == nil {
					expected[k] = g.eval(specs[class])
				}
			}
		}
	}
	st.q2 = expected[expectKey{client: 0, class: 1}]
	if r.cfg.BreakReference {
		k := expectKey{client: 0, class: 2}
		expected[k] = expected[k][1:]
	}
	for _, spec := range roundSpecs(r.clients[0], 0) {
		plan, err := r.clients[0].repo.Explain(spec)
		r.check("explain", err)
		st.strategies = append(st.strategies, plan.Strategy)
	}

	per := make([]queryStats, len(r.clients))
	perCloses := make([]samples, len(r.clients))
	alone := len(r.clients) == 1
	r.perClient(func(i int, c *clientState) {
		for round := 0; round < rounds; round++ {
			r.round(ctx, i, round, expected, &per[i], &perCloses[i], alone)
		}
	})
	for i := range per {
		*closes = append(*closes, perCloses[i]...)
		st.merge(&per[i])
	}
	if !alone {
		var solo queryStats
		var soloCloses samples
		for round := rounds; round < rounds+r.soloRounds(); round++ {
			r.round(ctx, 0, round, expected, &solo, &soloCloses, true)
		}
		st.coldOps, st.countedRounds = solo.coldOps, solo.countedRounds
		st.warm, st.warmByClass = solo.warm, solo.warmByClass
	}
	// Drain what the last rounds closed, so audits, replays and the
	// read-back see a fully acknowledged repository.
	for _, c := range r.clients {
		r.sync(ctx, c, nil)
	}
	return st
}

// round replays client i's next RoundCloses Closes, then runs the six
// searches twice — cold, then warm — and checks all twelve answers. With
// count set, the cold round's billed requests are recorded.
func (r *runner) round(ctx context.Context, i, round int, expected expectation, st *queryStats, closes *samples, count bool) {
	c := r.clients[i]
	r.drive(ctx, c, r.spec.RoundCloses, 0, closes, nil)
	if r.spec.SyncRounds {
		r.sync(ctx, c, nil)
	}
	specs := roundSpecs(c, round)
	for pass, into := range []*samples{&st.cold, &st.warm} {
		byClass := &st.coldByClass
		if pass == 1 {
			byClass = &st.warmByClass
		}
		r.cal.due()
		usage0 := c.repo.TenantUsage()
		var results [6][]passcloud.ProvenanceEntry
		var errs [6]error
		var total time.Duration
		for class := range specs {
			start := time.Now()
			results[class], errs[class] = searchAll(ctx, c.repo, specs[class])
			byClass[class].add(start)
			total += byClass[class][len(byClass[class])-1]
		}
		*into = append(*into, total)
		if pass == 0 && count {
			st.coldOps += ops(usageDelta(c.repo.TenantUsage(), usage0))
			st.countedRounds++
		}
		for class := range specs {
			what := fmt.Sprintf("round %d %s", round, QueryClasses[class])
			if !r.check(what, errs[class]) {
				continue
			}
			want := expected[expected.key(i, c, class, round)]
			if class == 0 {
				want = specs[0].Refs
				r.check(what+" records", checkClosed(newReference(results[0]), c.lastClosed))
			}
			var miss error
			if got := entryRefs(results[class]); !sameRefs(got, want) {
				miss = fmt.Errorf("got %d refs, reference has %d", len(got), len(want))
			}
			r.check(what+" result", miss)
		}
	}
}

// auditPhase times VerifyAll; every report must be clean.
func (r *runner) auditPhase(ctx context.Context) samples {
	var times samples
	repo := r.clients[0].repo
	for i := 0; i < scaled(r.spec.Audits, r.cfg.Scale, 2); i++ {
		r.cal.due()
		start := time.Now()
		rep, err := repo.VerifyAll(ctx)
		times.add(start)
		if r.check("verify-all", err) {
			var miss error
			if ds := rep.Divergences(); len(ds) > 0 {
				miss = fmt.Errorf("%d divergences, first: %s", len(ds), ds[0])
			}
			r.check("verify-all clean", miss)
		}
	}
	return times
}

type replayStats struct {
	times                         samples
	extractOps, execOps, subjects float64
}

// replayPhase re-executes the lineage of every Challenge graphic in turn;
// each replay must come back clean with something compared.
func (r *runner) replayPhase(ctx context.Context) replayStats {
	var st replayStats
	c := r.clients[0]
	var targets []string
	for _, run := range c.tr.Runs {
		targets = append(targets, run.Graphics...)
	}
	n := scaled(r.spec.Replays, r.cfg.Scale, 3)
	for i := 0; i < n; i++ {
		path := targets[i%len(targets)]
		usage0 := c.repo.TenantUsage()
		r.cal.due()
		start := time.Now()
		rep, err := c.repo.Replay(ctx, path)
		st.times.add(start)
		if !r.check("replay "+path, err) {
			continue
		}
		st.extractOps += float64(ops(usageDelta(c.repo.TenantUsage(), usage0))) / float64(n)
		st.execOps += float64(ops(rep.Usage)) / float64(n)
		st.subjects += float64(rep.Subjects) / float64(n)
		var miss error
		if !rep.Clean() {
			miss = fmt.Errorf("diverged: %s", rep.Divergences[0])
		} else if rep.Compared == 0 {
			miss = errors.New("nothing compared")
		}
		r.check("replay clean "+path, miss)
	}
	return st
}

// readBack fetches every file the run stored. Files whose bytes the trace
// supplied (ingested, appended) must come back identical; the total size
// is the run's user data volume.
func (r *runner) readBack(ctx context.Context) int64 {
	var total int64
	repo := r.clients[0].repo
	for _, c := range r.clients {
		want := make(map[string][]byte)
		var paths []string
		for i := range c.tr.Setup {
			want[c.tr.Setup[i].Path] = c.tr.Setup[i].Data
			paths = append(paths, c.tr.Setup[i].Path)
		}
		for i := range c.tr.Ops[:c.next] {
			if op := &c.tr.Ops[i]; op.Kind == trace.Append {
				want[op.Path] = append(want[op.Path], op.Data...)
			}
		}
		paths = append(paths, c.closed...)
		sort.Strings(paths)
		for _, path := range paths {
			obj, err := repo.Get(ctx, path)
			if !r.check("get "+path, err) {
				continue
			}
			total += int64(len(obj.Data))
			if data, ok := want[path]; ok && !bytes.Equal(obj.Data, data) {
				r.check("get "+path+" bytes", fmt.Errorf("read back %d bytes that differ from the %d written", len(obj.Data), len(data)))
			}
		}
	}
	return total
}

// freshClient attaches a new client to the region and asks it q2:
// durability must not live in the writing clients' memory.
func (r *runner) freshClient(ctx context.Context, want []passcloud.Ref) {
	repo, err := r.region.NewClient("fresh")
	if !r.check("fresh client", err) {
		return
	}
	specs := roundSpecs(r.clients[0], 0)
	got, err := searchAll(ctx, repo, specs[1])
	if !r.check("fresh client q2", err) {
		return
	}
	var miss error
	if !sameRefs(entryRefs(got), want) {
		miss = fmt.Errorf("got %d refs, reference has %d", len(got), len(want))
	}
	r.check("fresh client q2 result", miss)
}
