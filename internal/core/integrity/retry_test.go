package integrity_test

// Randomized partial-write × hash-chain coverage: when a flush half-lands
// (core.PartialWriteError) and pass.System retries only the remainder, the
// retried events must EXTEND the chain that was being written, not fork
// it — each version still ends up with exactly one chain record, linked to
// the true predecessor, and the committed root still matches. This is the
// interaction the chain memoization in pass.System exists for: the record
// set (chain record included) is frozen at first flush, so a retry
// re-sends byte-identical events.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// fastRetry keeps the simulated runs quick while still allowing
// multi-attempt recovery within a fault window.
var fastRetry = retry.Policy{
	MaxAttempts: 4,
	BaseDelay:   10 * time.Millisecond,
	MaxDelay:    100 * time.Millisecond,
	Budget:      2 * time.Second,
}

// retryEnv is one architecture wired with fault injection for the test.
type retryEnv struct {
	cloud  *cloud.Cloud
	store  core.Store
	faults *sim.FaultPlan
	// writeOps are the service ops the fault schedule targets.
	writeOps []string
	// crashPoint, when non-nil, is a protocol point whose injected
	// crash yields a half-landed batch (the WAL's sealed-transaction
	// shape).
	crashPoint *sim.Point
	// pump drains the WAL on the daemon architecture; nil elsewhere.
	pump func(ctx context.Context) error
}

func buildRetryEnv(t *testing.T, arch string, seed int64) *retryEnv {
	t.Helper()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: seed, MaxDelay: time.Second, Faults: faults})
	e := &retryEnv{cloud: cl, faults: faults}
	switch arch {
	case "s3":
		st, err := s3only.New(s3only.Config{Cloud: cl, Faults: faults, PutConcurrency: 1, ScanConcurrency: 1, Retry: fastRetry})
		if err != nil {
			t.Fatal(err)
		}
		e.store = st
		e.writeOps = []string{"s3/PUT"}
	case "s3+sdb":
		st, err := s3sdb.New(s3sdb.Config{Cloud: cl, Faults: faults, Retry: fastRetry})
		if err != nil {
			t.Fatal(err)
		}
		e.store = st
		e.writeOps = []string{"s3/PUT", "sdb/PutAttributes", "sdb/BatchPutAttributes"}
	case "s3+sdb+sqs":
		st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, Faults: faults, Retry: fastRetry})
		if err != nil {
			t.Fatal(err)
		}
		e.store = st
		e.writeOps = []string{"s3/PUT", "sqs/SendMessage"}
		e.crashPoint = s3sdbsqs.PointAfterCommit
		e.pump = func(ctx context.Context) error {
			for round := 0; round < 20; round++ {
				d := s3sdbsqs.NewCommitDaemon(st, faults)
				d.Visibility = 10 * time.Second
				n, err := d.RunOnce(ctx, true)
				cl.Clock.Advance(11 * time.Second)
				cl.Settle()
				if err != nil {
					continue
				}
				if n == 0 {
					return nil
				}
			}
			return errors.New("WAL did not drain")
		}
	default:
		t.Fatalf("unknown arch %q", arch)
	}
	return e
}

// TestPartialRetryExtendsChain drives multi-version, multi-file rounds
// through each architecture while randomized transient and ack-loss fault
// windows force flush failures — including half-landed batches — then
// asserts the converged store verifies completely clean: every version
// carries exactly one chain record linking to its true predecessor, and
// the committed checkpoint root matches the stored state. A forked chain
// (a retry re-hashing already-landed events) would surface as a
// chain-break or root-mismatch.
func TestPartialRetryExtendsChain(t *testing.T) {
	const rounds = 4
	const files = 3
	ctx := context.Background()
	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("%s/seed%d", arch, seed), func(t *testing.T) {
				e := buildRetryEnv(t, arch, seed)
				rng := sim.NewRNG(seed * 1000003)

				flushErrs, partials := 0, 0
				inner := core.Flusher(e.store)
				sys := pass.NewSystem(pass.Config{Flush: func(ctx context.Context, batch []pass.FlushEvent) error {
					err := inner(ctx, batch)
					if err != nil {
						flushErrs++
						var pw *core.PartialWriteError
						if errors.As(err, &pw) {
							partials++
						}
					}
					return err
				}})

				for r := 0; r < rounds; r++ {
					// Each round arms one failure scenario: either a
					// fail-fast permanent error on a mid-batch PUT after
					// the first landed (the canonical half-landed shape:
					// the retrier does not mask it, so the flush reports
					// the landed prefix), or a transient window long enough
					// to exhaust the retry policy. Plus an occasional
					// ack-loss on top.
					if e.crashPoint == nil && rng.Intn(2) == 0 {
						e.faults.ArmOp("s3/PUT", sim.ClassPermanent, 1+rng.Intn(2), 1)
					} else {
						op := e.writeOps[rng.Intn(len(e.writeOps))]
						e.faults.ArmOp(op, sim.ClassTransient, rng.Intn(3), fastRetry.MaxAttempts+rng.Intn(3))
					}
					if rng.Intn(2) == 0 {
						e.faults.ArmOp(e.writeOps[rng.Intn(len(e.writeOps))], sim.ClassAckLoss, rng.Intn(2), 1+rng.Intn(2))
					}
					if e.crashPoint != nil && rng.Intn(2) == 0 {
						// A crash after the WAL commit record is queued is
						// the half-landed shape on this architecture: the
						// transaction will commit, so the whole batch is
						// reported landed and must not be re-logged.
						e.faults.ArmAfter(e.crashPoint, 0)
					}

					p := sys.Exec(nil, pass.ExecSpec{Name: fmt.Sprintf("tool%d", r)})
					for k := 0; k < files; k++ {
						path := fmt.Sprintf("/f%d", k)
						if r > 0 {
							if err := sys.Read(p, path); err != nil {
								t.Fatal(err)
							}
						}
						if err := sys.Write(p, path, []byte(fmt.Sprintf("round%d-%d", r, k)), pass.Truncate); err != nil {
							t.Fatal(err)
						}
					}
					// No Close: each round's reads freeze the previous
					// round's versions, so Sync flushes them as ONE
					// causally ordered multi-event batch — the shape that
					// can half-land.
					synced := false
					for attempt := 0; attempt < 10; attempt++ {
						if err := sys.Sync(ctx); err != nil {
							e.cloud.Settle()
							continue
						}
						synced = true
						break
					}
					if !synced {
						t.Fatalf("round %d never converged", r)
					}
				}
				// A final reader freezes the last round's versions so they
				// flush too (no faults are armed by now).
				reader := sys.Exec(nil, pass.ExecSpec{Name: "reader"})
				for k := 0; k < files; k++ {
					if err := sys.Read(reader, fmt.Sprintf("/f%d", k)); err != nil {
						t.Fatal(err)
					}
				}
				finalSynced := false
				for attempt := 0; attempt < 10; attempt++ {
					if err := sys.Sync(ctx); err != nil {
						e.cloud.Settle()
						continue
					}
					finalSynced = true
					break
				}
				if !finalSynced {
					t.Fatal("final sync never converged")
				}
				if err := core.SyncStore(ctx, e.store); err != nil {
					if err := core.SyncStore(ctx, e.store); err != nil {
						t.Fatalf("store sync: %v", err)
					}
				}
				if e.pump != nil {
					if err := e.pump(ctx); err != nil {
						t.Fatal(err)
					}
				}
				e.cloud.Settle()

				if flushErrs == 0 {
					t.Fatal("no flush ever failed; the retry path was not exercised")
				}
				if partials == 0 {
					t.Fatalf("no half-landed batch occurred (%d flush errors); partial-write retry was not exercised", flushErrs)
				}

				auditor, ok := e.store.(integrity.Auditor)
				if !ok {
					t.Fatal("store is not auditable")
				}
				a, err := auditor.Audit(ctx)
				if err != nil {
					t.Fatal(err)
				}
				res := integrity.VerifyAudit(a)
				for _, d := range res.Divergences {
					t.Errorf("retried chain diverged: %s", d)
				}
				if a.RetainsHistory {
					// Every file must hold its full version history, each
					// version chained: the retried remainders extended the
					// chain instead of forking it.
					for k := 0; k < files; k++ {
						object := prov.ObjectID(fmt.Sprintf("/f%d", k))
						got := 0
						for ref := range a.Entries {
							if ref.Object == object {
								got++
							}
						}
						if got != rounds {
							t.Errorf("%s: %d versions stored, want %d", object, got, rounds)
						}
					}
				}
			})
		}
	}
}
