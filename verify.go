package passcloud

import (
	"context"
	"fmt"

	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// Divergence is one verification finding: which record diverged, on which
// shard, and how. Kind is one of "chain-break", "chain-gap",
// "chain-missing", "root-mismatch", "checkpoint-missing".
type Divergence struct {
	Kind  string
	Shard int
	// Subject anchors the finding to an object version; it is the zero
	// Ref for shard-level findings (root-mismatch, checkpoint-missing).
	Subject Ref
	Detail  string
}

// String renders one finding.
func (d Divergence) String() string {
	if d.Subject == (Ref{}) {
		return fmt.Sprintf("shard %d: %s: %s", d.Shard, d.Kind, d.Detail)
	}
	return fmt.Sprintf("shard %d: %s: %s: %s", d.Shard, d.Kind, d.Subject, d.Detail)
}

func toPublicDivergence(d integrity.Divergence) Divergence {
	return Divergence{
		Kind:    d.Kind.String(),
		Shard:   d.Shard,
		Subject: toPublicRef(d.Subject),
		Detail:  d.Detail,
	}
}

func toPublicDivergences(ds []integrity.Divergence) []Divergence {
	out := make([]Divergence, len(ds))
	for i, d := range ds {
		out[i] = toPublicDivergence(d)
	}
	return out
}

// ShardVerification is one shard's full-store verification outcome.
type ShardVerification struct {
	Shard int
	// Subjects and Records count what the audit scanned.
	Subjects, Records int
	// Root is the Merkle root re-derived from the stored records; it is
	// compared against CheckpointRoot, the highest committed checkpoint.
	Root, CheckpointRoot string
	// CheckpointSeq is the committed checkpoint's sequence number.
	CheckpointSeq int
	// MultiWriter reports that several writers' checkpoints were found;
	// each writer commits only to its own writes, so the root comparison
	// is skipped (chain checks still run on every record).
	MultiWriter bool
	// Detached counts chain links that were unverifiable because the
	// writer attached the object mid-history (informational).
	Detached    int
	Divergences []Divergence
}

// Clean reports a divergence-free shard.
func (s *ShardVerification) Clean() bool { return len(s.Divergences) == 0 }

// VerifyReport is a whole namespace's verification outcome.
type VerifyReport struct {
	Shards []ShardVerification
	// NamespaceRoot composes the per-shard roots, in shard order, into
	// the single commitment that summarizes the entire namespace.
	NamespaceRoot string
}

// Clean reports a fully divergence-free namespace.
func (r *VerifyReport) Clean() bool {
	for i := range r.Shards {
		if !r.Shards[i].Clean() {
			return false
		}
	}
	return true
}

// Divergences flattens every shard's findings.
func (r *VerifyReport) Divergences() []Divergence {
	var out []Divergence
	for i := range r.Shards {
		out = append(out, r.Shards[i].Divergences...)
	}
	return out
}

// LineageReport is one object's chain verification outcome.
type LineageReport struct {
	Object string
	// Shard is the object's home shard (0 when unsharded).
	Shard int
	// Versions counts the stored versions of the object the audit found.
	Versions int
	// Detached counts unverifiable attach-point links (informational).
	Detached    int
	Divergences []Divergence
}

// Clean reports an intact lineage.
func (r *LineageReport) Clean() bool { return len(r.Divergences) == 0 }

// auditors returns each shard's store as an integrity.Auditor, in shard
// order.
func (c *Client) auditors() ([]integrity.Auditor, error) {
	out := make([]integrity.Auditor, 0, len(c.b.Members))
	for _, st := range c.b.Members {
		a, ok := st.(integrity.Auditor)
		if !ok {
			return nil, fmt.Errorf("passcloud: %s does not support verification", st.Name())
		}
		out = append(out, a)
	}
	return out, nil
}

// VerifyLineage checks one object's hash chain: every stored version must
// carry exactly one chain record whose embedded hash matches the
// re-derived hash of its predecessor's full record set. The check runs on
// the object's home shard against a live audit scan — never a cached
// snapshot — so it reflects what the cloud holds right now. Call Sync
// first for a fully-acknowledged view; on the WAL architecture, undrained
// transactions are invisible to the audit exactly as they are to queries.
func (c *Client) VerifyLineage(ctx context.Context, path string) (*LineageReport, error) {
	auds, err := c.auditors()
	if err != nil {
		return nil, err
	}
	object := prov.ObjectID(path)
	idx := c.b.ShardFor(object)
	a, err := auds[idx].Audit(ctx)
	if err != nil {
		return nil, err
	}
	ds, detached := integrity.VerifyObject(object, a.Entries, a.RetainsHistory, idx)
	rep := &LineageReport{
		Object:      path,
		Shard:       idx,
		Detached:    detached,
		Divergences: toPublicDivergences(ds),
	}
	for ref := range a.Entries {
		if ref.Object == object {
			rep.Versions++
		}
	}
	if rep.Versions == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return rep, nil
}

// VerifyAll verifies the whole namespace: every shard is audited with a
// live scan, every object's chain is walked, and each shard's re-derived
// Merkle root is compared against its highest committed checkpoint. The
// per-shard roots compose into the namespace root. The report's
// divergences name the record, the shard and the kind of tampering
// (chain-break vs. root-mismatch), so a clean report certifies that no
// committed record was altered, added or dropped post-commit. Call Sync
// first for a fully-acknowledged view.
func (c *Client) VerifyAll(ctx context.Context) (*VerifyReport, error) {
	auds, err := c.auditors()
	if err != nil {
		return nil, err
	}
	res, err := integrity.VerifyStores(ctx, auds)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{NamespaceRoot: res.NamespaceRoot}
	for _, sr := range res.Shards {
		rep.Shards = append(rep.Shards, ShardVerification{
			Shard:          sr.Shard,
			Subjects:       sr.Subjects,
			Records:        sr.Records,
			Root:           sr.Root,
			CheckpointRoot: sr.Checkpoint.Root,
			CheckpointSeq:  sr.Checkpoint.Seq,
			MultiWriter:    sr.MultiWriter,
			Detached:       sr.Detached,
			Divergences:    toPublicDivergences(sr.Divergences),
		})
	}
	return rep, nil
}
