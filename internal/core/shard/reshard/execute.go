// Migration execution: copy -> verify -> flip -> cleanup, with the
// journal and Recover providing copy/flip crash atomicity. Verification
// deliberately avoids the full per-shard chain verifier mid-migration
// (transient chains legitimately span shards); it compares the moved
// subjects' re-derived Merkle leaves between a fresh source audit and a
// fresh destination audit, cross-checks each side's whole-shard root
// against its own ledger's highest committed checkpoint, and only then
// lets the ring flip.
package reshard

import (
	"context"
	"errors"
	"fmt"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// Report is one reconciliation outcome with the migration's metered
// cost: what moved, what it took, and what it would have cost at the
// paper's January-2009 prices.
type Report struct {
	// Action is "none" (no hot shard detected), "split" or "merge".
	Action string
	// Plan is the executed plan, nil when Action is "none".
	Plan *Plan
	// Subjects and Objects count the moved arc; Bytes is the copied
	// payload volume (record values plus data bodies).
	Subjects, Objects int
	Bytes             int64
	// Epoch is the ring epoch after the flip.
	Epoch int
	// Retried counts export re-reads forced by source-stamp movement.
	Retried int
	// MigOps is each shard's cloud-op delta across the migration;
	// MigTotalOps sums them. MigBytes is the transferred byte delta and
	// USD the Jan-2009 price of the whole migration.
	MigOps      []int64
	MigTotalOps int64
	MigBytes    int64
	USD         float64
}

// usages snapshots every shard's meter.
func (c *Controller) usages() []billing.Usage {
	out := make([]billing.Usage, len(c.cfg.Clouds))
	for i, cl := range c.cfg.Clouds {
		out[i] = cl.Usage()
	}
	return out
}

// setJournal records the migration's phase transition.
func (c *Controller) setJournal(phase Phase, plan *Plan) {
	c.mu.Lock()
	c.phase, c.plan = phase, plan
	c.mu.Unlock()
}

// finish meters the migration window into the report.
func (c *Controller) finish(rep *Report, pre []billing.Usage) {
	post := c.usages()
	rep.MigOps = make([]int64, len(post))
	for i := range post {
		d := post[i].Sub(pre[i])
		rep.MigOps[i] = d.TotalOps()
		rep.MigTotalOps += d.TotalOps()
		for svc := billing.S3; svc <= billing.SQS; svc++ {
			rep.MigBytes += d.BytesIn(svc) + d.BytesOut(svc)
		}
		rep.USD += billing.Jan2009.Price(d).Total()
	}
	c.mu.Lock()
	c.last = rep
	c.mu.Unlock()
}

// RunOnce is one reconciliation pass: detect a hot shard against the
// baseline sample and, if one exceeds the ceiling, split it toward the
// coldest shard. Without a hot shard it reports Action "none" and
// performs zero cloud operations.
func (c *Controller) RunOnce(ctx context.Context) (*Report, error) {
	hot, _, ok := c.DetectHot()
	if !ok {
		rep := &Report{Action: "none", Epoch: c.cfg.Router.RingEpoch()}
		c.mu.Lock()
		c.last = rep
		c.mu.Unlock()
		return rep, nil
	}
	plan, err := c.PlanSplit(hot, -1)
	if err != nil {
		return nil, err
	}
	return c.Execute(ctx, plan)
}

// Execute runs one planned migration through copy -> verify -> flip ->
// cleanup. A verification failure rolls back to fully-unmoved and
// returns ErrVerifyFailed; an injected crash leaves the journal at the
// phase it reached for Recover.
func (c *Controller) Execute(ctx context.Context, plan *Plan) (*Report, error) {
	c.mu.Lock()
	busy := c.phase != PhaseIdle
	c.mu.Unlock()
	if busy || c.cfg.Router.Migrating() {
		return nil, ErrMigrationActive
	}
	if err := c.validPair(plan.Src, plan.Dst); err != nil {
		return nil, err
	}
	if err := c.drain(ctx); err != nil {
		return nil, err
	}
	r := c.cfg.Router
	match := plan.Moved(c)
	pre := c.usages()
	src, dst := c.migs[plan.Src], c.migs[plan.Dst]

	// Copy: export the arc under a stable source stamp. A stamp that
	// moved mid-scan means a writer raced the export; re-read.
	var exp *core.ArcExport
	retried := 0
	stamp := r.Shard(plan.Src).StampToken()
	for {
		e, err := src.ExportArc(ctx, match)
		if err != nil {
			return nil, fmt.Errorf("reshard: export: %w", err)
		}
		if now := r.Shard(plan.Src).StampToken(); now == stamp {
			exp = e
			break
		}
		retried++
		if retried >= exportRetries {
			return nil, ErrSourceUnstable
		}
		if err := c.drain(ctx); err != nil {
			return nil, err
		}
		stamp = r.Shard(plan.Src).StampToken()
	}
	rep := &Report{Action: plan.Kind, Plan: plan, Subjects: len(exp.Subjects),
		Objects: exp.Objects, Bytes: exp.Bytes, Retried: retried}

	// An empty arc still flips: future writes to the moved ring points
	// land on the new owner.
	if len(exp.Subjects) == 0 {
		if err := r.FlipRing(plan.Target); err != nil {
			return nil, err
		}
		rep.Epoch = r.RingEpoch()
		c.finish(rep, pre)
		return rep, nil
	}

	// The journal opens before the window: any crash past this line is
	// recoverable from the journaled plan alone.
	c.setJournal(PhaseCopied, plan)
	if err := r.BeginMigration(plan.Src, plan.Dst, exp.Subjects); err != nil {
		c.setJournal(PhaseIdle, nil)
		return nil, err
	}
	if err := c.cfg.Faults.Check(PointBeforeImport); err != nil {
		return nil, err
	}
	if err := dst.ImportArc(ctx, exp); err != nil {
		return nil, c.abort(ctx, plan, match, fmt.Errorf("reshard: import: %w", err))
	}
	c.settle()
	if err := c.cfg.Faults.Check(PointAfterImport); err != nil {
		return nil, err
	}
	if c.cfg.BeforeVerify != nil {
		if err := c.cfg.BeforeVerify(ctx); err != nil {
			return nil, c.abort(ctx, plan, match, err)
		}
		c.settle()
	}

	// Verify: integrity is the migration's oracle. A copy altered in any
	// byte fails here and the move aborts to fully-unmoved.
	if err := c.verifyCopy(ctx, plan, exp.Subjects); err != nil {
		return nil, c.abort(ctx, plan, match, err)
	}
	if err := c.cfg.Faults.Check(PointBeforeFlip); err != nil {
		return nil, err
	}

	// Flip: the cutover. One atomic ring swap moves authority to the
	// destination.
	if err := r.FlipRing(plan.Target); err != nil {
		return nil, c.abort(ctx, plan, match, err)
	}
	c.setJournal(PhaseFlipped, plan)
	if err := c.cfg.Faults.Check(PointAfterFlip); err != nil {
		return nil, err
	}

	// Cleanup: drop the source's stale copy and close the window. A
	// failure here leaves the journal at PhaseFlipped; Recover rolls
	// forward.
	if _, err := src.RemoveArc(ctx, match); err != nil {
		return nil, fmt.Errorf("reshard: cleanup: %w", err)
	}
	c.settle()
	r.EndMigration()
	c.setJournal(PhaseIdle, nil)
	rep.Epoch = r.RingEpoch()
	c.finish(rep, pre)
	return rep, nil
}

// rollbackMatch narrows the moved-arc predicate to objects the source
// actually holds. The destination may natively host records for moved
// ring points — a transient subject's records home with the carrier
// batch that wrote them, not with the ring — and rollback must remove
// only what the import copied. Everything the import copied still
// exists on the intact source, so source residency is the filter.
func (c *Controller) rollbackMatch(ctx context.Context, plan *Plan, match func(prov.ObjectID) bool) (func(prov.ObjectID) bool, error) {
	sa, err := c.audit(ctx, plan.Src)
	if err != nil {
		return nil, err
	}
	onSrc := make(map[prov.ObjectID]bool, len(sa.Entries))
	for ref := range sa.Entries {
		onSrc[ref.Object] = true
	}
	return func(o prov.ObjectID) bool { return match(o) && onSrc[o] }, nil
}

// abort rolls an unflipped migration back to fully-unmoved: the
// destination's copy is removed and the window closes with the old ring
// still active. If even the rollback fails the journal stays at
// PhaseCopied for Recover.
func (c *Controller) abort(ctx context.Context, plan *Plan, match func(prov.ObjectID) bool, cause error) error {
	rb, err := c.rollbackMatch(ctx, plan, match)
	if err != nil {
		return errors.Join(cause, fmt.Errorf("reshard: rollback: %w", err))
	}
	if _, err := c.migs[plan.Dst].RemoveArc(ctx, rb); err != nil {
		return errors.Join(cause, fmt.Errorf("reshard: rollback: %w", err))
	}
	c.settle()
	c.cfg.Router.AbortMigration()
	c.setJournal(PhaseIdle, nil)
	return cause
}

// Recover converges an interrupted migration: a journal at PhaseCopied
// rolls back (the ring never flipped; the destination's partial copy is
// removed), a journal at PhaseFlipped rolls forward (the cutover
// happened; the source's stale copy is removed). Both paths are
// idempotent — RemoveArc with no matching state is a no-op — so Recover
// may itself be interrupted and re-run. It returns the phase it
// recovered from (PhaseIdle when there was nothing to do).
func (c *Controller) Recover(ctx context.Context) (Phase, error) {
	c.mu.Lock()
	phase, plan := c.phase, c.plan
	c.mu.Unlock()
	if phase == PhaseIdle || plan == nil {
		return PhaseIdle, nil
	}
	match := plan.Moved(c)
	switch phase {
	case PhaseCopied:
		rb, rerr := c.rollbackMatch(ctx, plan, match)
		if rerr != nil {
			return phase, fmt.Errorf("reshard: recover rollback: %w", rerr)
		}
		if _, err := c.migs[plan.Dst].RemoveArc(ctx, rb); err != nil {
			return phase, fmt.Errorf("reshard: recover rollback: %w", err)
		}
		c.cfg.Router.AbortMigration()
	case PhaseFlipped:
		if _, err := c.migs[plan.Src].RemoveArc(ctx, match); err != nil {
			return phase, fmt.Errorf("reshard: recover roll-forward: %w", err)
		}
		c.cfg.Router.EndMigration()
	}
	c.settle()
	c.setJournal(PhaseIdle, nil)
	return phase, nil
}

// verifyCopy re-derives the moved subjects' Merkle leaves from fresh
// audits of both sides and requires them equal, subject by subject and
// as folded roots; each side's whole-shard root is also cross-checked
// against its ledger's highest committed checkpoint when exactly one
// writer committed there.
func (c *Controller) verifyCopy(ctx context.Context, plan *Plan, subjects []prov.Ref) error {
	sa, err := c.audit(ctx, plan.Src)
	if err != nil {
		return err
	}
	da, err := c.audit(ctx, plan.Dst)
	if err != nil {
		return err
	}
	st, dt := integrity.HashSubjects(sa), integrity.HashSubjects(da)
	srcLeaves := make([]string, 0, len(subjects))
	dstLeaves := make([]string, 0, len(subjects))
	for _, ref := range subjects {
		sl, okS := st.Hash(ref)
		dl, okD := dt.Hash(ref)
		if !okS {
			return fmt.Errorf("%w: %s vanished from the source mid-copy", ErrVerifyFailed, ref)
		}
		if !okD {
			return fmt.Errorf("%w: %s missing on the destination", ErrVerifyFailed, ref)
		}
		if sl != dl {
			return fmt.Errorf("%w: %s: source leaf %s != destination leaf %s",
				ErrVerifyFailed, ref, sl, dl)
		}
		srcLeaves = append(srcLeaves, sl)
		dstLeaves = append(dstLeaves, dl)
	}
	if sr, dr := integrity.MerkleRoot(srcLeaves), integrity.MerkleRoot(dstLeaves); sr != dr {
		return fmt.Errorf("%w: moved-arc root %s != destination root %s", ErrVerifyFailed, sr, dr)
	}
	if err := ledgerCheck("source", st); err != nil {
		return err
	}
	if err := ledgerCheck("destination", dt); err != nil {
		return err
	}
	return nil
}

// audit runs one shard's integrity audit.
func (c *Controller) audit(ctx context.Context, i int) (*integrity.Audit, error) {
	a, ok := c.cfg.Router.Shard(i).(integrity.Auditor)
	if !ok {
		return nil, fmt.Errorf("%w: shard %d has no auditor", ErrNotMigratable, i)
	}
	audit, err := a.Audit(ctx)
	if err != nil {
		return nil, fmt.Errorf("reshard: audit shard %d: %w", i, err)
	}
	return audit, nil
}

// ledgerCheck compares a shard's re-derived whole-shard root against
// its ledger's highest committed checkpoint. Skipped when no checkpoint
// survived or several writers committed (each writer's root covers only
// its own writes).
func ledgerCheck(side string, t *integrity.SubjectTable) error {
	derived, cp, writers := integrity.DeriveRoot(t)
	if writers == 1 && cp.Root != derived {
		return fmt.Errorf("%w: %s ledger committed root %s != derived root %s",
			ErrVerifyFailed, side, cp.Root, derived)
	}
	return nil
}
