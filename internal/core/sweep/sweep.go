// Package sweep is the randomized crash-recovery property harness: it runs
// a scripted PASS workload against one of the three architectures while a
// seeded, deterministic fault schedule injects every failure class the
// resilience subsystem distinguishes — transient service errors, permanent
// denials, applied-but-response-lost operations, client crashes at
// protocol points, and post-commit corruption — then drives the
// architecture's recovery machinery (flush retries, commit daemon,
// cleaner, orphan scan) and asserts the paper's core invariants over the
// converged state:
//
//   - no object is readable without provenance, and every workload file
//     converges to its expected latest version and content;
//   - no orphaned provenance survives recovery (items describing data that
//     never landed, §4.2's recovery obligation);
//   - retried operations never double-apply (no duplicated provenance
//     records, no version regressions from replayed WAL transactions);
//   - the query cache never serves stale results across failed/retried
//     writes (cached answers equal a fresh uncached evaluation);
//   - the WAL queue drains: no transaction wedges on redelivery;
//   - integrity verification is exact: a healthy converged run verifies
//     completely clean (zero false positives), and every injected
//     post-commit corruption — a flipped byte, a swapped version, a
//     dropped record — is detected (chain break or root mismatch on the
//     corrupted shard).
//
// With Config.Shards > 1 the same workload runs through the consistent-hash
// router over per-shard namespaces, and every invariant (and the
// corruption detection contract) must hold shard by shard.
//
// Everything is derived from Config.Seed — the region's randomness, the
// fault schedule, the corruption victims, and the workload — so a CI
// failure is replayable from the logged seed: same seed, same fault
// schedule, same final state digest.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/core/shard"
	"passcloud/internal/core/shard/reshard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Arches lists the architectures the sweep covers.
var Arches = arch.Names

// AllClasses is the default fault-class mix (the recovery classes).
var AllClasses = []sim.FaultClass{sim.ClassCrash, sim.ClassTransient, sim.ClassPermanent, sim.ClassAckLoss}

// ClassesWithCorruption adds post-commit corruption to the recovery
// classes — the full tamper-evidence mix.
var ClassesWithCorruption = []sim.FaultClass{
	sim.ClassCrash, sim.ClassTransient, sim.ClassPermanent, sim.ClassAckLoss, sim.ClassCorrupt,
}

// Config parameterizes one sweep run.
type Config struct {
	// Arch is one of Arches.
	Arch string
	// Seed drives the region, the workload and the fault schedule.
	Seed int64
	// Faults is how many injections to schedule (default 6).
	Faults int
	// Classes restricts the classes drawn (default AllClasses).
	Classes []sim.FaultClass
	// MaxDelay is the region's propagation horizon (default 2s).
	MaxDelay time.Duration
	// Shards routes the workload through a consistent-hash router over
	// this many per-shard namespaces (0 or 1: the paper's single store).
	Shards int
	// Migrate adds the migration fault class (requires Shards > 1): after
	// recovery converges, a resharding split runs with one controller
	// crash point armed (seed-drawn), then Recover must converge the
	// store to fully-moved or fully-unmoved — never both — before the
	// invariant and verification phases run over the result.
	Migrate bool
	// MigrateTamper corrupts the migration's copy instead of crashing it
	// (requires Migrate): one moved record set is deleted from the
	// destination between import and verification, and the controller
	// must detect it before the flip — the run ends fully-unmoved at
	// epoch zero.
	MigrateTamper bool
}

// Result reports one run.
type Result struct {
	Arch string
	Seed int64
	// Shards echoes the effective shard count.
	Shards int
	// Schedule logs every injected fault, in arm order — the replay recipe.
	Schedule []string
	// FlushErrors are the workload-visible errors the faults caused. They
	// are expected; what must hold is that recovery repairs their effects.
	FlushErrors []string
	// Corruptions logs every post-commit corruption applied, in schedule
	// order — the rest of the replay recipe.
	Corruptions []string
	// VerifyClean reports that pre-corruption verification of the
	// converged run found zero divergences (no false positives).
	VerifyClean bool
	// DetectedAll reports that post-corruption verification flagged every
	// corrupted shard (vacuously true when nothing was corrupted).
	DetectedAll bool
	// PostDivergences counts the divergences verification reported after
	// the corruptions were applied.
	PostDivergences int
	// Migration logs the migration fault phase, when run: the armed
	// crash point (or the tamper), the journal phase recovered from, and
	// the final ring epoch — the rest of the replay recipe.
	Migration string
	// Violations lists invariant breaches. A correct implementation leaves
	// this empty for every seed.
	Violations []string
	// Digest fingerprints the final repository state (corruptions
	// included); identical seeds must produce identical digests
	// (deterministic replay).
	Digest string
	// Retry snapshots the run's retry overhead, summed across shards.
	Retry retry.Snapshot
}

// retryPolicy keeps sweep runs fast while still exercising multi-attempt
// recovery: 4 attempts cover transient windows up to 3 failures.
var retryPolicy = retry.Policy{
	MaxAttempts: 4,
	BaseDelay:   10 * time.Millisecond,
	MaxDelay:    100 * time.Millisecond,
	Budget:      2 * time.Second,
}

// opMenus are the service operations each architecture's schedule may
// fault. Its crash points are the architecture's declared ones
// (arch.CrashPoints).
var opMenus = map[string][]string{
	"s3":     {"s3/PUT"},
	"s3+sdb": {"s3/PUT", "sdb/PutAttributes", "sdb/BatchPutAttributes"},
	"s3+sdb+sqs": {
		"s3/PUT", "s3/COPY", "sdb/BatchPutAttributes", "sqs/SendMessage", "sqs/DeleteMessage", "sqs/ReceiveMessage",
		"s3/DELETE", "sdb/PutAttributes",
	},
}

// scheduledFault is one armed injection.
type scheduledFault struct {
	step  int
	class sim.FaultClass
	// target names the crash point (ClassCrash, armed at point), the op,
	// or the corruption kind (ClassCorrupt).
	target string
	point  *sim.Point
	skip   int
	count  int
	// kind and pick parameterize a ClassCorrupt draw.
	kind sim.CorruptKind
	pick int64
}

func (f scheduledFault) String() string {
	return fmt.Sprintf("step=%d class=%s target=%s skip=%d count=%d", f.step, f.class, f.target, f.skip, f.count)
}

// schedule draws cfg.Faults injections from the arch's menu, deterministic
// in the schedule RNG.
func schedule(cfg Config, rng *sim.RNG, steps int) []scheduledFault {
	points, ops := arch.CrashPoints[cfg.Arch], opMenus[cfg.Arch]
	var out []scheduledFault
	for i := 0; i < cfg.Faults; i++ {
		f := scheduledFault{step: rng.Intn(steps)}
		f.class = cfg.Classes[rng.Intn(len(cfg.Classes))]
		switch f.class {
		case sim.ClassCrash:
			f.point = points[rng.Intn(len(points))]
			f.target = f.point.String()
			f.skip = rng.Intn(2)
			f.count = 1
		case sim.ClassTransient:
			f.target = ops[rng.Intn(len(ops))]
			f.skip = rng.Intn(3)
			f.count = 1 + rng.Intn(3) // up to 3: the policy's 4 attempts absorb it
		case sim.ClassPermanent:
			f.target = ops[rng.Intn(len(ops))]
			f.skip = rng.Intn(3)
			f.count = 1 + rng.Intn(2)
		case sim.ClassAckLoss:
			f.target = ops[rng.Intn(len(ops))]
			f.skip = rng.Intn(3)
			f.count = 1 + rng.Intn(2) // stays under MaxAttempts: applied, then retried through
		case sim.ClassCorrupt:
			// Applied post-commit, after recovery converges; the step only
			// orders the schedule log. pick seeds the victim choice.
			f.kind = sim.CorruptKind(rng.Intn(3))
			f.pick = int64(rng.Intn(1 << 30))
			f.target = f.kind.String()
			f.count = 1
		}
		out = append(out, f)
	}
	return out
}

// shardEnv is one shard's slice of the environment.
type shardEnv struct {
	cloud  *cloud.Cloud
	store  shard.Store
	layer  *sdbprov.Layer // nil for s3-only
	s3sdb  *s3sdb.Store   // non-nil for the orphan-scan arch
	sqs    *s3sdbsqs.Store
	daemon func() *s3sdbsqs.CommitDaemon // fresh daemon per pump (restart semantics)
}

// env is the architecture wired for the sweep, one shardEnv per shard.
type env struct {
	single *cloud.Cloud // nil when sharded
	multi  *cloud.Multi // nil when unsharded
	shards []*shardEnv
	store  core.Store // the router, or the sole shard's store
	// retryStats sums the members' retry counters.
	retryStats func() retry.Snapshot
	faults     *sim.FaultPlan
	// mirrorCfg builds the uncached, integrity-free twin of a member for
	// freshness cross-checks (the WAL architecture's twin reads its domain
	// as a plain "s3+sdb" store: it must not grow a queue of its own).
	mirrorCfg arch.Config
	// tampered tracks victims already hit by a corruption, so a later draw
	// of the same kind cannot pick the same victim and silently undo the
	// tampering (swapping the same pair twice restores the original).
	tampered map[string]bool
}

// settle advances simulated time past the replication horizon on every
// namespace: they share one clock and one horizon.
func (e *env) settle() { e.shards[0].cloud.Settle() }

// advance moves the (shared) virtual clock forward.
func (e *env) advance(d time.Duration) { e.shards[0].cloud.Clock.Advance(d) }

const daemonVisibility = 10 * time.Second

func buildEnv(cfg Config, faults *sim.FaultPlan) (*env, error) {
	e := &env{faults: faults, mirrorCfg: arch.Config{
		Name: cfg.Arch, PutConcurrency: 1, ScanConcurrency: 1, DisableQueryCache: true, DisableIntegrity: true,
	}}
	if cfg.Arch == "s3+sdb+sqs" {
		e.mirrorCfg.Name = "s3+sdb"
	}
	ccfg := cloud.Config{Seed: cfg.Seed, MaxDelay: cfg.MaxDelay, Faults: faults}
	if cfg.Shards > 1 {
		e.multi = cloud.NewMulti(ccfg)
	} else {
		e.single = cloud.New(ccfg)
	}
	b, err := e.compose(cfg.Shards, arch.Config{
		Name: cfg.Arch, Faults: faults, PutConcurrency: 1, ScanConcurrency: 1, Retry: retryPolicy,
	})
	if err != nil {
		return nil, err
	}
	e.store, e.retryStats = b.Store, b.RetryStats
	for i, st := range b.Members {
		se := &shardEnv{cloud: b.Clouds[i], store: st}
		switch st := st.(type) {
		case *s3sdb.Store:
			se.layer, se.s3sdb = st.Layer(), st
		case *s3sdbsqs.Store:
			se.layer, se.sqs = st.Layer(), st
			se.daemon = func() *s3sdbsqs.CommitDaemon {
				d := s3sdbsqs.NewCommitDaemon(st, faults)
				d.Visibility = daemonVisibility
				return d
			}
		}
		e.shards = append(e.shards, se)
	}
	return e, nil
}

// compose builds n stores from cfg, one per namespace ("shard<i>" of the
// multi-namespace region, or the single region when unsharded), behind a
// router when n > 1.
func (e *env) compose(n int, cfg arch.Config) (*arch.Sharded, error) {
	if e.multi == nil {
		cfg.Cloud = e.single
		return arch.Compose(cfg)
	}
	return arch.BuildSharded(e.multi, n, func(i int) (string, arch.Config) {
		return fmt.Sprintf("shard%d", i), cfg
	})
}

// mirror builds the uncached cross-check querier: the sole shard's
// uncached twin, or a router over every shard's twin (same ring order, so
// placement matches the primary).
func (e *env) mirror() (core.Querier, error) {
	b, err := e.compose(len(e.shards), e.mirrorCfg)
	if err != nil {
		return nil, err
	}
	return b.Store, nil
}

// script is the deterministic workload: a pipeline with version churn,
// transient processes, a pipe, >1 KB record values (overflow objects, the
// 3 KB environment included) and, in one run in wideShare, a process fed by
// more pipes than one SimpleDB item holds (the wide step).
type script struct {
	sys *pass.System
	// wide adds the wide step.
	wide bool
	// procs carries process handles across steps.
	procs map[string]*pass.Process
	// paths tracks every file the workload writes, in creation order.
	paths []string
}

func (s *script) steps(ctx context.Context) []func() error {
	bigEnv := strings.Repeat("E", 1500) // > 1 KB: one overflow object
	track := func(p string) {
		for _, q := range s.paths {
			if q == p {
				return
			}
		}
		s.paths = append(s.paths, p)
	}
	steps := []func() error{
		func() error { track("/src/a"); return s.sys.Ingest(ctx, "/src/a", []byte("alpha")) },
		func() error { track("/src/b"); return s.sys.Ingest(ctx, "/src/b", []byte("beta")) },
		func() error {
			track("/out/1")
			p := s.sys.Exec(nil, pass.ExecSpec{Name: "tool1", Argv: []string{"tool1", "-x"}, Env: bigEnv})
			s.procs["p1"] = p
			if err := s.sys.Read(p, "/src/a"); err != nil {
				return err
			}
			if err := s.sys.Write(p, "/out/1", []byte("v0-out1"), pass.Truncate); err != nil {
				return err
			}
			return s.sys.Close(ctx, p, "/out/1")
		},
		func() error {
			track("/out/2")
			p := s.sys.Exec(nil, pass.ExecSpec{Name: "tool2", Env: strings.Repeat("H", 3*1024)})
			s.procs["p2"] = p
			if err := s.sys.Read(p, "/out/1"); err != nil {
				return err
			}
			if err := s.sys.Read(p, "/src/b"); err != nil {
				return err
			}
			if err := s.sys.Write(p, "/out/2", []byte("v0-out2"), pass.Truncate); err != nil {
				return err
			}
			return s.sys.Close(ctx, p, "/out/2")
		},
		func() error {
			p := s.sys.Exec(nil, pass.ExecSpec{Name: "tool3"})
			s.procs["p3"] = p
			if err := s.sys.Read(p, "/src/b"); err != nil {
				return err
			}
			if err := s.sys.Write(p, "/out/1", []byte("v1-out1"), pass.Truncate); err != nil {
				return err
			}
			return s.sys.Close(ctx, p, "/out/1")
		},
		func() error {
			track("/out/3")
			p4 := s.sys.Exec(nil, pass.ExecSpec{Name: "tool4"})
			p5 := s.sys.Exec(nil, pass.ExecSpec{Name: "tool5"})
			if err := s.sys.Read(p4, "/out/2"); err != nil {
				return err
			}
			if err := s.sys.Pipe(p4, p5); err != nil {
				return err
			}
			if err := s.sys.Write(p5, "/out/3", []byte("v0-out3"), pass.Truncate); err != nil {
				return err
			}
			return s.sys.Close(ctx, p5, "/out/3")
		},
	}
	if s.wide {
		steps = append(steps, func() error {
			// More inputs than sdb.MaxAttrsPerItem: the gatherer's item
			// spills to S3 and goes out sdb.MaxAttrsPerCall attributes per
			// PutAttributes call; on S3-only its records and the pipes'
			// ride /out/4's PUT and spill to the bundle.
			track("/out/4")
			src := s.sys.Exec(nil, pass.ExecSpec{Name: "fan"})
			sink := s.sys.Exec(nil, pass.ExecSpec{Name: "gather"})
			for i := 0; i < sdb.MaxAttrsPerItem; i++ {
				if err := s.sys.Pipe(src, sink); err != nil {
					return err
				}
			}
			if err := s.sys.Write(sink, "/out/4", []byte("v0-out4"), pass.Truncate); err != nil {
				return err
			}
			return s.sys.Close(ctx, sink, "/out/4")
		})
	}
	return append(steps, func() error { return s.sys.Sync(ctx) })
}

// One run in wideShare takes the wide step: it costs about ten times the
// rest of a run (a few hundred extra items to write, recover and audit).
const wideShare = 12

// wideStep reports whether the run of seed takes the wide step, drawn from
// an RNG stream of its own so the schedule's draws stay independent of it.
func wideStep(seed int64) bool {
	return sim.NewRNG(seed*6151+29).Intn(wideShare) == 0
}

// Run executes one sweep.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	return run(ctx, cfg, sim.NewFaultPlan())
}

// run executes one sweep under faults, which the caller may read after it
// returns.
func run(ctx context.Context, cfg Config, faults *sim.FaultPlan) (*Result, error) {
	if cfg.Faults == 0 {
		cfg.Faults = 6
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = AllClasses
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	res := &Result{Arch: cfg.Arch, Seed: cfg.Seed, Shards: cfg.Shards}

	e, err := buildEnv(cfg, faults)
	if err != nil {
		return nil, err
	}
	sys := pass.NewSystem(pass.Config{Flush: core.Flusher(e.store)})
	sc := &script{sys: sys, procs: make(map[string]*pass.Process), wide: wideStep(cfg.Seed)}
	steps := sc.steps(ctx)

	// Draw the schedule from its own seeded RNG so region randomness and
	// fault placement cannot perturb each other.
	srng := sim.NewRNG(cfg.Seed*7919 + 17)
	plan := schedule(cfg, srng, len(steps))
	for _, f := range plan {
		res.Schedule = append(res.Schedule, f.String())
	}

	// Workload phase: arm each step's faults, run the step, pump background
	// machinery. Errors are recorded, not fatal — they are the point.
	record := func(stage string, err error) {
		if err != nil {
			res.FlushErrors = append(res.FlushErrors, fmt.Sprintf("%s: %v", stage, err))
		}
	}
	for i, step := range steps {
		for _, f := range plan {
			if f.step != i {
				continue
			}
			switch f.class {
			case sim.ClassCrash:
				faults.ArmAfter(f.point, f.skip)
			case sim.ClassCorrupt:
				faults.ArmCorruption(sim.Corruption{Kind: f.kind, Pick: f.pick})
			default:
				faults.ArmOp(f.target, f.class, f.skip, f.count)
			}
		}
		if err := step(); err != nil {
			record(fmt.Sprintf("step %d", i), err)
		}
		for si, se := range e.shards {
			if se.daemon == nil {
				continue
			}
			if _, err := se.daemon().RunOnce(ctx, true); err != nil {
				record(fmt.Sprintf("pump %d shard %d", i, si), err)
			}
		}
		if e.shards[0].daemon != nil {
			e.advance(daemonVisibility + time.Second)
		}
	}

	// Recovery phase 1: finish the workload, then the store's own sync.
	// Every fault window is finite, but one spans a few checks and windows
	// stack, so each is retried a bounded number of times with the region
	// settled between attempts, and must converge.
	converge := func(what string, sync func(context.Context) error) (err error) {
		for attempt := 0; attempt < 12; attempt++ {
			if err = sync(ctx); err == nil {
				return nil
			}
			record(what, err)
			e.settle()
		}
		return err
	}
	if converge("sync", sys.Sync) != nil {
		res.Violations = append(res.Violations, "workload never converged: Sync kept failing after fault windows closed")
	}
	if err := converge("store-sync", func(ctx context.Context) error { return core.SyncStore(ctx, e.store) }); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("store sync never converged: %v", err))
	}

	// Recovery phase 2: drain the WAL (fresh daemon per round = restart
	// semantics), advancing past the visibility timeout so messages locked
	// by a crashed round redeliver. The loop runs until several consecutive
	// rounds commit nothing across every shard — committed transactions
	// must all land here. Messages that remain afterwards can only belong
	// to uncommitted transactions (a crash mid-log): SQS retention reaps
	// those, and the cleaner then reaps their abandoned temporaries.
	if e.shards[0].daemon != nil {
		idle := 0
		for round := 0; round < 30 && idle < 3; round++ {
			committed := 0
			failed := false
			for si, se := range e.shards {
				n, err := se.daemon().RunOnce(ctx, true)
				if err != nil {
					record(fmt.Sprintf("recovery-pump shard %d", si), err)
					failed = true
				}
				committed += n
			}
			if failed || committed > 0 {
				idle = 0
			} else {
				idle++
			}
			e.advance(daemonVisibility + time.Second)
			e.settle()
		}
		if idle < 3 {
			res.Violations = append(res.Violations, "WAL queue never drained: transaction wedged on redelivery")
		}
		// Past the retention horizon: uncommitted-transaction messages are
		// reaped; the cleaner removes their temporary objects; one final
		// daemon round proves nothing committable was lost to retention.
		e.advance(4*24*time.Hour + time.Hour)
		for si, se := range e.shards {
			cleaner := s3sdbsqs.NewCleaner(se.sqs)
			for attempt := 0; attempt < 4; attempt++ {
				if _, err := cleaner.RunOnce(ctx); err != nil {
					record(fmt.Sprintf("cleaner shard %d", si), err)
					continue
				}
				break
			}
			if n, err := se.daemon().RunOnce(ctx, true); err != nil {
				record(fmt.Sprintf("post-retention-pump shard %d", si), err)
			} else if n > 0 {
				res.Violations = append(res.Violations, fmt.Sprintf("shard %d: %d transactions committed only after the retention horizon: drain loop is losing committed work", si, n))
			}
		}
	}

	// Recovery phase 3: the §4.2 orphan scan, per shard.
	for si, se := range e.shards {
		if se.s3sdb == nil {
			continue
		}
		for attempt := 0; attempt < 4; attempt++ {
			if _, err := se.s3sdb.OrphanScan(ctx); err != nil {
				record(fmt.Sprintf("orphan-scan shard %d", si), err)
				e.settle()
				continue
			}
			break
		}
	}
	e.settle()

	// Migration fault phase: a resharding split under an injected crash
	// (or a tampered copy) must converge to fully-moved or fully-unmoved
	// before the converged state is judged.
	if cfg.Migrate {
		e.runMigration(ctx, cfg, srng, faults, res)
	}

	res.Retry = e.retryStats()
	res.Violations = append(res.Violations, e.checkInvariants(ctx, cfg, sys, sc)...)

	// Verification phase: a healthy converged run must verify completely
	// clean — the zero-false-positive half of the tamper-evidence
	// contract. This runs on every sweep, whatever the fault mix: crashes,
	// retries, WAL replays and orphan-scan deletions must never leave the
	// chains or the committed roots inconsistent.
	pre, err := e.verify(ctx)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("verification failed to run: %v", err))
	} else {
		res.VerifyClean = pre.Clean()
		for _, d := range pre.Divergences() {
			res.Violations = append(res.Violations, "verifier flagged a healthy run (false positive): "+d.String())
		}
	}

	// Corruption phase: apply the armed post-commit corruptions through
	// raw cloud access, then verification must flag every corrupted shard
	// — the 100%-detection half.
	res.DetectedAll = true
	if cs := faults.Corruptions(); len(cs) > 0 && err == nil {
		// The adversary's raw access is not subject to the workload's
		// fault schedule; leftover unfired windows must not block it.
		faults.DisarmOps()
		applied := e.applyCorruptions(ctx, cs, &res.Violations)
		corrupted := make(map[int]bool)
		for _, a := range applied {
			res.Corruptions = append(res.Corruptions, a.desc)
			if a.shard >= 0 {
				corrupted[a.shard] = true
			}
		}
		if len(corrupted) > 0 {
			e.settle()
			post, verr := e.verify(ctx)
			if verr != nil {
				res.DetectedAll = false
				res.Violations = append(res.Violations, fmt.Sprintf("post-corruption verification failed to run: %v", verr))
			} else {
				res.PostDivergences = len(post.Divergences())
				for _, sr := range post.Shards {
					switch {
					case corrupted[sr.Shard] && sr.Clean():
						res.DetectedAll = false
						res.Violations = append(res.Violations, fmt.Sprintf("shard %d: injected corruption went undetected", sr.Shard))
					case !corrupted[sr.Shard] && !sr.Clean():
						res.Violations = append(res.Violations, fmt.Sprintf("shard %d: flagged but never corrupted (false positive): %s", sr.Shard, sr.Divergences[0]))
					}
				}
			}
		}
	}

	res.Digest = e.digest(ctx)
	return res, nil
}

// runMigration is the migration fault phase: split shard 0 toward shard
// 1 with either a seed-drawn controller crash point armed or the copy
// tampered mid-flight, then require convergence — the journal recovered
// to idle, the double-read window closed, and every moved subject homed
// on exactly one shard (fully-moved or fully-unmoved, never both).
func (e *env) runMigration(ctx context.Context, cfg Config, rng *sim.RNG, faults *sim.FaultPlan, res *Result) {
	router, ok := e.store.(*shard.Router)
	if !ok {
		res.Violations = append(res.Violations, "migration fault class requires Shards > 1")
		return
	}
	// The migration phase is its own experiment: leftover unfired
	// workload fault windows must not perturb it.
	faults.DisarmOps()
	clouds := make([]*cloud.Cloud, len(e.shards))
	for i, se := range e.shards {
		clouds[i] = se.cloud
	}
	drain := func(ctx context.Context) error {
		for _, se := range e.shards {
			if se.daemon == nil {
				continue
			}
			if _, err := se.daemon().RunOnce(ctx, true); err != nil {
				return err
			}
		}
		if e.shards[0].daemon != nil {
			e.advance(daemonVisibility + time.Second)
		}
		return nil
	}
	ccfg := reshard.Config{Router: router, Clouds: clouds, Faults: faults, Drain: drain, Settle: e.settle}

	var ctrl *reshard.Controller
	var plan *reshard.Plan
	point := ""
	if cfg.MigrateTamper {
		// The adversary deletes one moved record set from the destination
		// between import and verification. The victim is chosen from the
		// source side, so it is provably part of the copied arc and the
		// deletion can only be the copy's corruption.
		point = "tamper"
		ccfg.BeforeVerify = func(ctx context.Context) error {
			match := plan.Moved(ctrl)
			src, dst := e.shards[plan.Src], e.shards[plan.Dst]
			if src.layer != nil {
				for _, it := range e.sdbItems(ctx, src, &res.Violations) {
					if !match(it.ref.Object) {
						continue
					}
					return dst.cloud.SDB.DeleteAttributes(dst.layer.Domain(), it.name, nil)
				}
			} else {
				for _, o := range e.s3Objects(src, &res.Violations) {
					if !match(core.ObjectOfKey(o.key)) {
						continue
					}
					return dst.cloud.S3.Delete(core.DefaultBucket, o.key)
				}
			}
			return fmt.Errorf("sweep: no moved record set to tamper with")
		}
	} else {
		pt := reshard.Points[rng.Intn(len(reshard.Points))]
		faults.Arm(pt)
		point = pt.String()
	}

	ctrl, err := reshard.New(ccfg)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("migration controller: %v", err))
		return
	}
	// Choose a pair that provably moves a non-empty arc — drain the
	// most-populated shard onto the least-populated one. (A split of the
	// sweep's sparse workload can land every moved ring point on an
	// empty arc, which flips without traversing the crash points.)
	counts := make([]int, len(e.shards))
	for si, se := range e.shards {
		a, ok := se.store.(integrity.Auditor)
		if !ok {
			continue
		}
		audit, aerr := a.Audit(ctx)
		if aerr != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("pre-migration audit shard %d: %v", si, aerr))
			return
		}
		for ref := range audit.Entries {
			if router.ShardFor(ref.Object) == si {
				counts[si]++
			}
		}
	}
	msrc, mdst := 0, -1
	for i, n := range counts {
		if n > counts[msrc] {
			msrc = i
		}
	}
	for i, n := range counts {
		if i != msrc && (mdst < 0 || n < counts[mdst]) {
			mdst = i
		}
	}
	if counts[msrc] == 0 {
		res.Violations = append(res.Violations, "workload left no migratable subjects")
		return
	}
	plan, err = ctrl.PlanMerge(msrc, mdst)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("migration plan: %v", err))
		return
	}
	_, execErr := ctrl.Execute(ctx, plan)
	if cfg.MigrateTamper {
		if !errors.Is(execErr, reshard.ErrVerifyFailed) {
			res.Violations = append(res.Violations, fmt.Sprintf("tampered copy was not detected before the flip: %v", execErr))
		}
		if epoch := router.RingEpoch(); epoch != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("ring flipped to epoch %d over a tampered copy", epoch))
		}
	} else if execErr == nil {
		res.Violations = append(res.Violations, fmt.Sprintf("armed migration crash point %s never fired", point))
	}
	recovered, rerr := ctrl.Recover(ctx)
	if rerr != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("migration recovery: %v", rerr))
	}
	if st := ctrl.Status(); st.Phase != reshard.PhaseIdle || router.Migrating() {
		res.Violations = append(res.Violations, fmt.Sprintf("migration did not converge: phase=%s migrating=%v", st.Phase, router.Migrating()))
	}
	// Never both: every subject homes on exactly one shard.
	homes := make(map[prov.Ref]int)
	for si, se := range e.shards {
		a, ok := se.store.(integrity.Auditor)
		if !ok {
			continue
		}
		audit, aerr := a.Audit(ctx)
		if aerr != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("post-migration audit shard %d: %v", si, aerr))
			continue
		}
		for ref := range audit.Entries {
			if prev, dup := homes[ref]; dup {
				res.Violations = append(res.Violations, fmt.Sprintf("%s homed on shards %d and %d after migration recovery (partial move)", ref, prev, si))
			}
			homes[ref] = si
		}
	}
	res.Migration = fmt.Sprintf("point=%s recovered=%s epoch=%d", point, recovered, router.RingEpoch())
}

// verify audits every shard and runs the integrity verifier over the
// namespace.
func (e *env) verify(ctx context.Context) (*integrity.Result, error) {
	auditors := make([]integrity.Auditor, len(e.shards))
	for i, se := range e.shards {
		a, ok := se.store.(integrity.Auditor)
		if !ok {
			return nil, fmt.Errorf("sweep: shard %d store is not auditable", i)
		}
		auditors[i] = a
	}
	return integrity.VerifyStores(ctx, auditors)
}

// checkInvariants verifies the converged state.
func (e *env) checkInvariants(ctx context.Context, cfg Config, sys *pass.System, sc *script) []string {
	var v []string

	// (1) every workload file is readable at its final version with
	// matching content, and never readable without provenance.
	for _, path := range sc.paths {
		ref, ok := sys.CurrentVersion(path)
		if !ok {
			continue
		}
		want, _ := sys.FileContent(path)
		obj, err := e.store.Get(ctx, ref.Object)
		switch {
		case errors.Is(err, core.ErrNoProvenance):
			v = append(v, fmt.Sprintf("%s: data readable without provenance: %v", path, err))
		case err != nil:
			v = append(v, fmt.Sprintf("%s: unreadable after recovery: %v", path, err))
		case obj.Ref.Version != ref.Version:
			v = append(v, fmt.Sprintf("%s: version regressed: have v%d, want v%d", path, obj.Ref.Version, ref.Version))
		case string(obj.Data) != string(want):
			v = append(v, fmt.Sprintf("%s: content mismatch: have %q, want %q", path, obj.Data, want))
		}
	}

	for si, se := range e.shards {
		if se.layer == nil {
			continue
		}
		// (2) no data object without a provenance item for its version.
		infos, err := se.cloud.S3.ListAll(se.layer.Bucket(), core.DataPrefix)
		if err != nil {
			v = append(v, fmt.Sprintf("shard %d: data listing failed: %v", si, err))
		}
		for _, info := range infos {
			full, err := se.cloud.S3.Head(se.layer.Bucket(), info.Key)
			if err != nil {
				v = append(v, fmt.Sprintf("shard %d: %s: head failed: %v", si, info.Key, err))
				continue
			}
			ver, _ := core.StoredVersion(full.Metadata)
			ref := prov.Ref{Object: core.ObjectOfKey(info.Key), Version: ver}
			_, _, ok, err := se.layer.FetchItem(ctx, ref)
			if err != nil {
				v = append(v, fmt.Sprintf("shard %d: %s: provenance fetch failed: %v", si, ref, err))
			} else if !ok {
				v = append(v, fmt.Sprintf("shard %d: %s: data without provenance item", si, ref))
			}
		}

		// (3) no orphaned provenance: every item carrying a consistency
		// record must describe data that exists at or beyond its version.
		if orphans := e.orphanItems(ctx, se, si, &v); len(orphans) > 0 {
			v = append(v, fmt.Sprintf("shard %d: orphaned provenance after recovery: %v", si, orphans))
		}
	}

	// (4)+(5) duplicates and cache freshness, from a fresh uncached mirror.
	mirror, err := e.mirror()
	if err != nil {
		v = append(v, fmt.Sprintf("mirror build failed: %v", err))
		return v
	}
	uncached, err := core.CollectBySubject(mirror.Query(ctx, prov.Q1()))
	if err != nil {
		v = append(v, fmt.Sprintf("uncached scan failed: %v", err))
		return v
	}
	for ref, records := range uncached {
		seen := make(map[string]int)
		for _, r := range records {
			seen[r.Attr+"\x00"+r.Value.String()]++
		}
		for key, n := range seen {
			if n > 1 {
				attr := key[:strings.Index(key, "\x00")]
				v = append(v, fmt.Sprintf("%s: record %q applied %d times (retry double-apply)", ref, attr, n))
			}
		}
	}
	if q, ok := e.store.(core.Querier); ok {
		cached, err := core.CollectBySubject(q.Query(ctx, prov.Q1()))
		if err != nil {
			v = append(v, fmt.Sprintf("cached scan failed: %v", err))
		} else if diff := diffProvenance(cached, uncached); diff != "" {
			v = append(v, "query cache stale after failed/retried writes: "+diff)
		} else {
			// Repeat on the warm path: the memoized answer must agree too.
			again, err := core.CollectBySubject(q.Query(ctx, prov.Q1()))
			if err != nil {
				v = append(v, fmt.Sprintf("warm cached scan failed: %v", err))
			} else if diff := diffProvenance(again, uncached); diff != "" {
				v = append(v, "warm query cache stale: "+diff)
			}
		}
	}

	// (6) nothing left behind on architecture 3.
	for si, se := range e.shards {
		if se.sqs == nil {
			continue
		}
		if n, err := se.cloud.SQS.Exact(se.sqs.Queue()); err == nil && n > 0 {
			v = append(v, fmt.Sprintf("shard %d: %d WAL messages wedged after recovery and retention", si, n))
		}
		if tmps, err := se.cloud.S3.ListAll(se.layer.Bucket(), s3sdbsqs.TmpPrefix); err == nil && len(tmps) > 0 {
			v = append(v, fmt.Sprintf("shard %d: %d temporary objects leaked past the cleaner", si, len(tmps)))
		}
	}
	return v
}

// orphanItems lists refs whose items carry an MD5 record but whose data is
// missing or older than the item claims.
func (e *env) orphanItems(ctx context.Context, se *shardEnv, si int, v *[]string) []prov.Ref {
	var orphans []prov.Ref
	for ref, err := range se.layer.Subjects(ctx, sdbprov.ItemNames) {
		if err != nil {
			*v = append(*v, fmt.Sprintf("shard %d: orphan scan select failed: %v", si, err))
			return orphans
		}
		_, md5hex, ok, err := se.layer.FetchItem(ctx, ref)
		if err != nil || !ok || md5hex == "" {
			continue
		}
		info, err := se.cloud.S3.Head(se.layer.Bucket(), core.DataKey(ref.Object))
		if err != nil {
			if errors.Is(err, s3.ErrNoSuchKey) {
				orphans = append(orphans, ref)
			}
			continue
		}
		if ver, _ := core.StoredVersion(info.Metadata); ver < ref.Version {
			orphans = append(orphans, ref)
		}
	}
	return orphans
}

// diffProvenance compares two repository maps; empty string means equal.
func diffProvenance(a, b map[prov.Ref][]prov.Record) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d subjects", len(a), len(b))
	}
	for ref, ra := range a {
		rb, ok := b[ref]
		if !ok {
			return fmt.Sprintf("subject %s only on one side", ref)
		}
		if canonRecords(ra) != canonRecords(rb) {
			return fmt.Sprintf("records differ for %s", ref)
		}
	}
	return ""
}

// canonRecords renders records order-independently.
func canonRecords(records []prov.Record) string {
	lines := make([]string, 0, len(records))
	for _, r := range records {
		lines = append(lines, r.Attr+"="+r.Value.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// digest fingerprints the final repository: every provenance item and
// every data object on every shard, canonically ordered. Identical seeds
// must reproduce it exactly.
func (e *env) digest(ctx context.Context) string {
	h := sha256.New()
	var entries []string

	for si, se := range e.shards {
		if se.layer != nil {
			for ref, err := range se.layer.Subjects(ctx, sdbprov.ItemNames) {
				if err != nil {
					fmt.Fprintf(h, "shard%d select-err %v\n", si, err)
					break
				}
				records, md5hex, ok, err := se.layer.FetchItem(ctx, ref)
				if err != nil || !ok {
					continue
				}
				entries = append(entries, fmt.Sprintf("shard%d item %s md5=%s\n%s", si, prov.EncodeItemName(ref), md5hex, canonRecords(records)))
			}
		} else if q, ok := se.store.(core.Querier); ok {
			all, err := core.CollectBySubject(q.Query(ctx, prov.Q1()))
			if err == nil {
				for ref, records := range all {
					entries = append(entries, fmt.Sprintf("shard%d item %s\n%s", si, ref, canonRecords(records)))
				}
			}
		}

		bucket := core.DefaultBucket
		if se.layer != nil {
			bucket = se.layer.Bucket()
		}
		if infos, err := se.cloud.S3.ListAll(bucket, core.DataPrefix); err == nil {
			for _, info := range infos {
				obj, err := se.cloud.S3.Get(bucket, info.Key)
				if err != nil {
					continue
				}
				sum := sha256.Sum256(obj.Body)
				entries = append(entries, fmt.Sprintf("shard%d data %s ver=%s sha=%s", si, info.Key, obj.Metadata[core.MetaVersion], hex.EncodeToString(sum[:8])))
			}
		}
	}

	sort.Strings(entries)
	for _, line := range entries {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}
