package sdbprov

import (
	"context"
	"fmt"
	"iter"

	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// layerReads is the part of the layer's method set a store built on it
// exposes unchanged: queries and reference planning, the repository graph
// and stamp, audits, retry counters and arc migration.
type layerReads interface {
	Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error]
	RetryStats() retry.Snapshot
	core.RefPlanner
	core.GraphQuerier
	core.Stamped
	core.Migrator
	integrity.Auditor
}

// ReadSide is everything a store built on the layer does besides writing:
// verified reads, queries and their plans, audits, and arc migration. The
// paper's third architecture is its second plus a write-ahead log (§4.3
// reuses §4.2's SimpleDB layout and read protocol), so both stores embed
// one ReadSide and add only their write protocol. Only committed state is
// visible through it: WAL transactions the commit daemon has not drained
// are invisible to reads, queries, audits and exports alike — migration
// must drain the WAL first — while ImportArc bypasses the WAL exactly like
// the daemon's apply path does, the source shard having already made the
// records durable.
type ReadSide struct {
	layerReads
	layer *Layer
	arch  string
}

// NewReadSide builds the read side of the named architecture over layer.
func NewReadSide(layer *Layer, arch string) ReadSide {
	return ReadSide{layerReads: layer, layer: layer, arch: arch}
}

// Layer exposes the SimpleDB provenance layer (shared with the write
// protocol, the daemons and tests).
func (r ReadSide) Layer() *Layer { return r.layer }

// Get implements core.Store via the verified-read protocol: reads verify
// MD5(data‖nonce) and retry across the data/provenance write window until
// both sides agree.
func (r ReadSide) Get(ctx context.Context, object prov.ObjectID) (*core.Object, error) {
	return r.layer.VerifiedGet(ctx, object)
}

// Provenance implements core.Store: one GetAttributes (plus pointer GETs).
func (r ReadSide) Provenance(ctx context.Context, ref prov.Ref) ([]prov.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	records, _, ok, err := r.layer.FetchItem(ctx, ref)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrNotFound, ref)
	}
	return records, nil
}

// Explain implements core.Querier: the layer's plan under the store's name.
func (r ReadSide) Explain(q prov.Query) core.QueryPlan {
	p := r.layer.Explain(q)
	p.Arch = r.arch
	return p
}
