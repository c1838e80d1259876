// Package reshard is the elastic-resharding control plane: a
// reconciliation loop that watches per-shard billing meters for hot
// arcs, plans a split of the hot shard's ring points (or a merge of a
// cold shard's), and executes the move as copy -> verify -> flip.
// Integrity is the migration's own oracle: before the cutover the
// destination's Merkle leaves over the moved subjects are re-derived
// from a fresh audit and cross-checked against the source's — a copy
// altered in any byte fails verification and the migration aborts to
// fully-unmoved. Only after the leaves match does the controller
// atomically flip the router's ring epoch; the double-read window
// (shard.BeginMigration .. EndMigration) keeps every query bit-identical
// while both copies of the arc exist.
//
// Crash atomicity: the journal records which side of the flip the
// controller reached. Recover rolls an interrupted migration back
// (journal says copied: remove the destination's copy) or forward
// (journal says flipped: remove the source's stale copy) — the store
// never converges to a state where the arc is partially moved.
package reshard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/shard"
	"passcloud/internal/sim"
)

// Points are the controller's crash points, in protocol order. The fault
// sweep's migration class arms them to prove copy->flip atomicity.
var Points sim.Points

// The controller's crash points: around the import and around the flip.
var (
	PointBeforeImport = Points.Declare("reshard/before-import")
	PointAfterImport  = Points.Declare("reshard/after-import")
	PointBeforeFlip   = Points.Declare("reshard/before-flip")
	PointAfterFlip    = Points.Declare("reshard/after-flip")
)

// Typed failures callers branch on.
var (
	// ErrMigrationActive: Execute was called while a journaled migration
	// is still open; Recover first.
	ErrMigrationActive = errors.New("reshard: migration already in progress")
	// ErrSourceUnstable: the source shard's stamp kept moving during
	// export; drain writers and retry.
	ErrSourceUnstable = errors.New("reshard: source shard changed during export")
	// ErrVerifyFailed: the destination's re-derived leaves do not match
	// the source's — the copy is not faithful. The migration aborted to
	// fully-unmoved.
	ErrVerifyFailed = errors.New("reshard: pre-cutover verification failed")
	// ErrNotMigratable: a shard's store does not implement core.Migrator.
	ErrNotMigratable = errors.New("reshard: shard store does not support arc migration")
)

// Phase is the journal's position in the copy/verify/flip state machine.
type Phase int

const (
	// PhaseIdle: no migration in flight.
	PhaseIdle Phase = iota
	// PhaseCopied: the arc is exported (and possibly imported) but the
	// ring has not flipped; recovery rolls back to fully-unmoved.
	PhaseCopied
	// PhaseFlipped: the ring flipped but the source's stale copy may
	// remain; recovery rolls forward to fully-moved.
	PhaseFlipped
)

// String names the phase for status output.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseCopied:
		return "copied"
	case PhaseFlipped:
		return "flipped"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// exportRetries bounds export re-reads when the source stamp moves
// mid-export.
const exportRetries = 3

// Config wires a controller to one namespace's router and clouds.
type Config struct {
	// Router is the namespace's shard router.
	Router *shard.Router
	// Clouds are the per-shard clouds, index-aligned with the router's
	// shards; their meters are the hot-arc detector's signal and the
	// migration cost ledger.
	Clouds []*cloud.Cloud
	// Faults, when non-nil, is checked at the controller's crash points.
	Faults *sim.FaultPlan
	// HotCeiling is the op-share above which a shard counts as hot (and
	// the convergence target a split must land under). Default 0.5.
	HotCeiling float64
	// Drain, when non-nil, quiesces buffered writers (client WAL, commit
	// daemons) before an arc is exported. The router's own Sync always
	// runs as well.
	Drain func(ctx context.Context) error
	// Settle, when non-nil, delivers in-flight simulated-cloud traffic
	// (eventual-consistency windows) before scans. Defaults to settling
	// every configured cloud.
	Settle func()
	// BeforeVerify, when non-nil, runs between the import and the
	// pre-cutover verification — the fault sweep's and the tests'
	// tampering point for proving that a copy corrupted in flight is
	// detected before the ring flips.
	BeforeVerify func(ctx context.Context) error
}

// Controller owns one namespace's migrations. All methods are
// serialized; queries never pass through the controller.
type Controller struct {
	cfg  Config
	migs []core.Migrator

	mu sync.Mutex
	// journal is the crash-recovery record: the active plan and which
	// side of the flip it reached.
	phase Phase
	plan  *Plan

	// baseline is the per-shard usage snapshot op shares are measured
	// against.
	baseline    []billing.Usage
	baselineSet bool

	last *Report
}

// New validates the wiring and type-asserts every shard's store to
// core.Migrator.
func New(cfg Config) (*Controller, error) {
	if cfg.Router == nil {
		return nil, errors.New("reshard: config needs a router")
	}
	n := cfg.Router.NumShards()
	if len(cfg.Clouds) != n {
		return nil, fmt.Errorf("reshard: %d clouds for %d shards", len(cfg.Clouds), n)
	}
	if cfg.HotCeiling <= 0 || cfg.HotCeiling >= 1 {
		cfg.HotCeiling = 0.5
	}
	migs := make([]core.Migrator, n)
	for i := 0; i < n; i++ {
		m, ok := cfg.Router.Shard(i).(core.Migrator)
		if !ok {
			return nil, fmt.Errorf("%w: shard %d (%T)", ErrNotMigratable, i, cfg.Router.Shard(i))
		}
		migs[i] = m
	}
	return &Controller{cfg: cfg, migs: migs}, nil
}

// Status is a point-in-time view of the controller and ring.
type Status struct {
	Phase     Phase
	Epoch     int
	Migrating bool
	// Shares are the per-shard op shares since the baseline sample
	// (nil when no baseline is set).
	Shares []float64
	// Plan is the journaled plan when Phase != PhaseIdle.
	Plan *Plan
	// Last is the most recent completed report, nil before any run.
	Last *Report
}

// Status reports the controller's current state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Phase:     c.phase,
		Epoch:     c.cfg.Router.RingEpoch(),
		Migrating: c.cfg.Router.Migrating(),
		Shares:    c.sharesLocked(),
		Plan:      c.plan,
		Last:      c.last,
	}
}

// settle delivers in-flight cloud traffic so scans observe every
// committed write.
func (c *Controller) settle() {
	if c.cfg.Settle != nil {
		c.cfg.Settle()
		return
	}
	for _, cl := range c.cfg.Clouds {
		cl.Settle()
	}
}

// drain quiesces buffered writers and the router's members.
func (c *Controller) drain(ctx context.Context) error {
	if c.cfg.Drain != nil {
		if err := c.cfg.Drain(ctx); err != nil {
			return fmt.Errorf("reshard: drain: %w", err)
		}
	}
	if err := c.cfg.Router.Sync(ctx); err != nil {
		return fmt.Errorf("reshard: sync: %w", err)
	}
	c.settle()
	return nil
}
