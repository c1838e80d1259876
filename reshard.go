package passcloud

import (
	"context"
	"errors"
	"fmt"

	"passcloud/internal/core/shard/reshard"
)

// Resharding errors, re-exported for callers to match with errors.Is.
var (
	// ErrNotSharded: the client has fewer than two shards, so there is
	// nothing to migrate between.
	ErrNotSharded = errors.New("passcloud: resharding needs a client with at least 2 shards")
	// ErrMigrationActive: a migration is already journaled; call Recover.
	ErrMigrationActive = reshard.ErrMigrationActive
	// ErrReshardVerifyFailed: the pre-cutover verification found the
	// copied arc unfaithful; the migration rolled back to fully-unmoved.
	ErrReshardVerifyFailed = reshard.ErrVerifyFailed
)

// ReshardReport is one completed (or idle) reconciliation: what moved and
// what the migration itself cost on the cloud meters.
type ReshardReport struct {
	// Action is "none", "split" or "merge".
	Action string
	// Src and Dst are the shard pair (both -1 when Action is "none").
	Src, Dst int
	// Subjects and Objects count the moved arc; Bytes is the copied
	// payload volume.
	Subjects, Objects int
	Bytes             int64
	// Epoch is the ring epoch after the move.
	Epoch int
	// MigOps is the migration's cloud-op delta per shard; MigTotalOps
	// sums them, MigBytes is the transferred byte delta, and USD prices
	// the whole migration at January-2009 rates.
	MigOps      []int64
	MigTotalOps int64
	MigBytes    int64
	USD         float64
}

// ReshardStatus is a point-in-time view of the migration controller.
type ReshardStatus struct {
	// Phase is "idle", "copied" or "flipped" (the journal position).
	Phase string
	// Epoch is the router's current ring epoch.
	Epoch int
	// Migrating reports an open double-read window.
	Migrating bool
	// Shares are per-shard op shares since the last SampleBaseline (nil
	// before one is taken).
	Shares []float64
}

// Resharder is the client's elastic-resharding control plane: hot-shard
// detection from the per-shard billing meters and live arc migration with
// copy -> verify -> flip cutovers. Obtain one with Client.Resharder; the
// same instance (and its crash journal) is returned for the client's
// lifetime.
type Resharder struct {
	c    *Client
	ctrl *reshard.Controller
}

// Resharder returns the client's migration controller, building it on
// first use. It fails with ErrNotSharded on unsharded clients.
func (c *Client) Resharder() (*Resharder, error) {
	if c.resharder != nil {
		return c.resharder, nil
	}
	if c.b.Router == nil {
		return nil, ErrNotSharded
	}
	ctrl, err := reshard.New(reshard.Config{
		Router: c.b.Router,
		Clouds: c.b.Clouds,
		Drain:  func(ctx context.Context) error { return c.Sync(ctx) },
		Settle: c.Settle,
	})
	if err != nil {
		return nil, err
	}
	c.resharder = &Resharder{c: c, ctrl: ctrl}
	return c.resharder, nil
}

// SampleBaseline snapshots every shard's meter; subsequent Status.Shares
// and Rebalance hot-shard detection measure op deltas from here.
func (r *Resharder) SampleBaseline() { r.ctrl.SampleBaseline() }

// Split migrates alternating ring points off shard src onto dst (dst < 0
// picks the coldest shard). The arc is copied, verified against the
// source's Merkle leaves, and only then does the ring epoch flip.
func (r *Resharder) Split(ctx context.Context, src, dst int) (*ReshardReport, error) {
	plan, err := r.ctrl.PlanSplit(src, dst)
	if err != nil {
		return nil, err
	}
	return toPublicReshard(r.ctrl.Execute(ctx, plan))
}

// Merge drains every ring point off shard src onto dst (dst < 0 picks
// the coldest remaining shard), with the same verified cutover as Split.
func (r *Resharder) Merge(ctx context.Context, src, dst int) (*ReshardReport, error) {
	plan, err := r.ctrl.PlanMerge(src, dst)
	if err != nil {
		return nil, err
	}
	return toPublicReshard(r.ctrl.Execute(ctx, plan))
}

// Rebalance is one reconciliation pass: if a shard's op share since the
// baseline exceeds the hot ceiling (0.5), split it toward the coldest
// shard; otherwise report Action "none" at zero cloud ops.
func (r *Resharder) Rebalance(ctx context.Context) (*ReshardReport, error) {
	return toPublicReshard(r.ctrl.RunOnce(ctx))
}

// Recover completes an interrupted migration from its journal: rolled
// back to fully-unmoved when the crash preceded the ring flip, rolled
// forward to fully-moved after it. It reports the phase the journal was
// found in ("idle" when there was nothing to recover).
func (r *Resharder) Recover(ctx context.Context) (string, error) {
	phase, err := r.ctrl.Recover(ctx)
	return phase.String(), err
}

// Status reports the controller's journal phase, the ring epoch, and the
// per-shard op shares since the last baseline.
func (r *Resharder) Status() ReshardStatus {
	s := r.ctrl.Status()
	return ReshardStatus{
		Phase:     s.Phase.String(),
		Epoch:     s.Epoch,
		Migrating: s.Migrating,
		Shares:    s.Shares,
	}
}

func toPublicReshard(rep *reshard.Report, err error) (*ReshardReport, error) {
	if err != nil {
		return nil, err
	}
	out := &ReshardReport{
		Action:   rep.Action,
		Src:      -1,
		Dst:      -1,
		Subjects: rep.Subjects,
		Objects:  rep.Objects,
		Bytes:    rep.Bytes,
		Epoch:    rep.Epoch,

		MigOps:      rep.MigOps,
		MigTotalOps: rep.MigTotalOps,
		MigBytes:    rep.MigBytes,
		USD:         rep.USD,
	}
	if rep.Plan != nil {
		out.Src, out.Dst = rep.Plan.Src, rep.Plan.Dst
	}
	return out, nil
}

// String renders the report for status output.
func (r *ReshardReport) String() string {
	if r.Action == "none" {
		return fmt.Sprintf("none (epoch %d)", r.Epoch)
	}
	return fmt.Sprintf("%s %d->%d: %d subjects, %d objects, %d bytes moved; epoch %d; migration cost %d ops, %d bytes, $%.6f",
		r.Action, r.Src, r.Dst, r.Subjects, r.Objects, r.Bytes, r.Epoch, r.MigTotalOps, r.MigBytes, r.USD)
}
