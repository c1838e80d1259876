package cost

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/replay"
	"passcloud/internal/workload"
)

// ReplayRow is one (architecture, shard count) cell of the replay cost
// matrix: the coverage and the cloud bill of re-executing every current
// lineage of the combined workload against a fresh sandbox namespace.
type ReplayRow struct {
	Arch   string `json:"arch"`
	Shards int    `json:"shards"`
	// Subjects / Sources / Processes / Compared mirror the replay report's
	// coverage counters.
	Subjects  int `json:"subjects"`
	Sources   int `json:"sources"`
	Processes int `json:"processes"`
	Compared  int `json:"compared"`
	// Divergences must be zero: the harness replays its own faithful
	// capture, so a finding here is a capture or replay bug.
	Divergences int `json:"divergences"`
	// ExtractOps counts source-side cloud operations the lineage
	// extraction queries cost (paginated ancestry traversal).
	ExtractOps int64 `json:"extract_ops"`
	// ReplayOps / ReplayUSD are the sandbox namespace's operations and
	// January-2009 bill for materializing the re-execution — the cloud
	// cost of reproducing the repository from its provenance.
	ReplayOps int64   `json:"replay_ops"`
	ReplayUSD float64 `json:"replay_usd"`
}

// ReplayCosts is the replay cost matrix across architectures and shard
// counts.
type ReplayCosts struct {
	Scale       float64     `json:"scale"`
	Seed        int64       `json:"seed"`
	ShardCounts []int       `json:"shard_counts"`
	Rows        []ReplayRow `json:"rows"`
}

// Replay loads the combined workload on each architecture and shard
// count, then re-executes every current file version's lineage against a
// fresh sandbox namespace, metering the extraction queries on the source
// side and the re-execution on the sandbox side. Shard counts default to
// 1 and 4.
func (h *Harness) Replay(ctx context.Context, shardCounts []int) (*ReplayCosts, error) {
	h.defaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4}
	}
	counts := append([]int(nil), shardCounts...)
	sort.Ints(counts)
	out := &ReplayCosts{Scale: h.Scale, Seed: h.Seed, ShardCounts: counts}
	for _, name := range arch.Names {
		for _, n := range counts {
			row, err := h.replayRun(ctx, name, n)
			if err != nil {
				return nil, fmt.Errorf("cost: replay %s x%d: %w", name, n, err)
			}
			out.Rows = append(out.Rows, *row)
		}
	}
	return out, nil
}

func (h *Harness) replayRun(ctx context.Context, name string, n int) (*ReplayRow, error) {
	c, err := h.loadedCell(ctx, name, n)
	if err != nil {
		return nil, err
	}
	targets, err := currentFileVersions(ctx, c.Store)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("workload left no file versions to replay")
	}

	sb, err := h.build(name, n)
	if err != nil {
		return nil, err
	}
	setup, before := sb.Usage(), c.Usage()
	rep, err := replay.Replay(ctx, replay.Config{
		Source: c.Store,
		Fetch:  c.Store.Get,
		Target: sb.Store,
		Runner: workload.Tools{},
		Kernel: pass.DefaultKernel,
	}, targets...)
	if err != nil {
		return nil, err
	}
	if err := workload.Drain(ctx, sb); err != nil {
		return nil, err
	}
	extract := c.Usage().Sub(before)
	spent := sb.Usage().Sub(setup)

	return &ReplayRow{
		Arch:        name,
		Shards:      n,
		Subjects:    rep.Subjects,
		Sources:     rep.Sources,
		Processes:   rep.Processes,
		Compared:    rep.Compared,
		Divergences: len(rep.Divergences),
		ExtractOps:  extract.TotalOps(),
		ReplayOps:   spent.TotalOps(),
		ReplayUSD:   billing.Jan2009.Price(spent).Total(),
	}, nil
}

// currentFileVersions lists every object's newest recorded file version —
// the replay audit's target set.
func currentFileVersions(ctx context.Context, q core.Querier) ([]prov.Ref, error) {
	current := make(map[prov.ObjectID]prov.Version)
	for entry, err := range q.Query(ctx, prov.Query{Type: prov.TypeFile, Projection: prov.ProjectRefs}) {
		if err != nil {
			return nil, err
		}
		if v, ok := current[entry.Ref.Object]; !ok || entry.Ref.Version > v {
			current[entry.Ref.Object] = entry.Ref.Version
		}
	}
	targets := make([]prov.Ref, 0, len(current))
	for object, version := range current {
		targets = append(targets, prov.Ref{Object: object, Version: version})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Object < targets[j].Object })
	return targets, nil
}

// String renders the matrix for terminal use.
func (t *ReplayCosts) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replay cost matrix (scale %.2f, seed %d): every current lineage re-executed on a fresh namespace\n", t.Scale, t.Seed)
	fmt.Fprintf(&b, "%-12s %7s %9s %8s %10s %9s %12s %12s %11s\n",
		"arch", "shards", "derived", "sources", "processes", "compared", "extract-ops", "replay-ops", "replay-$")
	for _, r := range t.Rows {
		status := ""
		if r.Divergences > 0 {
			status = fmt.Sprintf("  DIVERGED (%d)", r.Divergences)
		}
		fmt.Fprintf(&b, "%-12s %7d %9d %8d %10d %9d %12d %12d %11.4f%s\n",
			r.Arch, r.Shards, r.Subjects, r.Sources, r.Processes, r.Compared,
			r.ExtractOps, r.ReplayOps, r.ReplayUSD, status)
	}
	return b.String()
}
