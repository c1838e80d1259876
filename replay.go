package passcloud

// Provenance-driven replay: the reproducibility loop of the cloud-aware-
// provenance line (Hasham et al., PAPERS.md) closed over this store.
// Client.Replay extracts an object version's lineage subgraph through the
// composable query path, re-executes the recorded processes against a
// fresh sandbox region, and diffs the re-derived content against what the
// repository holds — a divergence oracle for provenance-capture bugs.

import (
	"context"
	"fmt"

	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/replay"
	"passcloud/internal/workload"
)

// ErrLineageCycle reports a dependency cycle in recorded lineage —
// impossible under PASS's cycle-avoidance versioning, so its presence is
// itself a capture bug. Replay surfaces it as a typed error instead of
// hanging. Match with errors.Is.
var ErrLineageCycle = replay.ErrLineageCycle

// ReplayDivergence is one replay finding: a subject version whose
// re-execution did not reproduce the repository's recorded state.
type ReplayDivergence struct {
	// Kind is "missing-input", "env-drift", "digest-mismatch" or
	// "unrunnable-tool" (see the README's replay threat model).
	Kind string
	// Subject is the object version the finding anchors to.
	Subject Ref
	// Detail is a human-readable description.
	Detail string
}

// String renders the finding.
func (d ReplayDivergence) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Kind, d.Subject, d.Detail)
}

// ReplayReport is the outcome of one replay run.
type ReplayReport struct {
	// Subjects counts the file versions whose content was re-derived
	// from recorded provenance.
	Subjects int
	// Sources counts ingested versions (no process ancestry) copied into
	// the sandbox as recorded inputs.
	Sources int
	// Processes counts the recorded process versions re-executed.
	Processes int
	// Compared counts the re-derived versions diffed against the
	// repository (only an object's current version still has original
	// bytes to compare).
	Compared int
	// Divergences lists every finding, sorted by subject then kind.
	Divergences []ReplayDivergence
	// Usage is the sandbox region's bill for the re-execution — the
	// cloud cost of reproducing the lineage, metered separately from the
	// source repository's.
	Usage UsageSummary
}

// Clean reports a divergence-free replay: every compared object is
// byte-identical to what its recorded provenance re-derives.
func (r *ReplayReport) Clean() bool { return len(r.Divergences) == 0 }

// Replay re-executes the lineage of path's current version on a fresh
// sandbox tenant and diffs the results against the repository. Call Sync
// first for a fully-acknowledged view. The sandbox shares nothing with
// this client's region; re-execution cloud ops appear in the report's
// Usage, not in this client's bill.
func (c *Client) Replay(ctx context.Context, path string) (*ReplayReport, error) {
	obj, err := c.b.Store.Get(ctx, prov.ObjectID(path))
	if err != nil {
		return nil, err
	}
	return c.replay(ctx, obj.Ref)
}

// ReplayAll re-executes the lineage of every current file version in the
// repository — the full-repository divergence audit. Call Sync first for
// a fully-acknowledged view.
func (c *Client) ReplayAll(ctx context.Context) (*ReplayReport, error) {
	current := make(map[prov.ObjectID]prov.Version)
	spec := prov.Query{Type: prov.TypeFile, Projection: prov.ProjectRefs}
	for entry, qerr := range c.b.Store.Query(ctx, spec) {
		if qerr != nil {
			return nil, qerr
		}
		if v, ok := current[entry.Ref.Object]; !ok || entry.Ref.Version > v {
			current[entry.Ref.Object] = entry.Ref.Version
		}
	}
	targets := make([]prov.Ref, 0, len(current))
	for object, version := range current {
		targets = append(targets, prov.Ref{Object: object, Version: version})
	}
	if len(targets) == 0 {
		return &ReplayReport{}, nil
	}
	return c.replay(ctx, targets...)
}

// replay runs the extraction/schedule/re-execute/diff pipeline against a
// fresh sandbox client of the same architecture.
func (c *Client) replay(ctx context.Context, targets ...prov.Ref) (*ReplayReport, error) {
	sandbox, err := New(Options{
		Architecture: c.opts.Architecture,
		Seed:         c.opts.Seed,
		Kernel:       c.opts.Kernel,
		Shards:       c.opts.Shards,
		Tenant:       replayTenant(c.opts.Tenant),
	})
	if err != nil {
		return nil, fmt.Errorf("passcloud: replay sandbox: %w", err)
	}
	rep, err := replay.Replay(ctx, replay.Config{
		Source: c.b.Store,
		Fetch:  c.b.Store.Get,
		Target: sandbox.b.Store,
		Runner: workload.Tools{},
		Kernel: effectiveKernel(c.opts.Kernel),
	}, targets...)
	if err != nil {
		return nil, err
	}
	// Drain the sandbox (the WAL architecture commits asynchronously) so
	// its bill covers the whole re-execution.
	if err := sandbox.Sync(ctx); err != nil {
		return nil, fmt.Errorf("passcloud: replay sandbox sync: %w", err)
	}
	out := &ReplayReport{
		Subjects:  rep.Subjects,
		Sources:   rep.Sources,
		Processes: rep.Processes,
		Compared:  rep.Compared,
		Usage:     sandbox.TenantUsage(),
	}
	for _, d := range rep.Divergences {
		out.Divergences = append(out.Divergences, ReplayDivergence{
			Kind:    d.Kind.String(),
			Subject: toPublicRef(d.Subject),
			Detail:  d.Detail,
		})
	}
	return out, nil
}

// effectiveKernel resolves the kernel the client records on processes:
// Options.Kernel, or the capture layer's default. Replay compares
// recorded kernels against it for env-drift detection.
func effectiveKernel(kernel string) string {
	if kernel == "" {
		return pass.DefaultKernel
	}
	return kernel
}

// replayTenant names the sandbox tenant so its namespaces and meters are
// disjoint from the source tenant's even if the two ever share a region.
func replayTenant(tenant string) string {
	if tenant == "" {
		return "replay"
	}
	return tenant + "-replay"
}

// WriteDerived writes the registered tool's deterministic output for this
// process version at path: the bytes are a pure function of the version's
// recorded provenance (tool, argv, environment, pinned input versions)
// and the path — the contract that makes the write replayable. The
// process must have been Exec'd with the name of a tool in the workload
// registry (tee, cc, align_warp, ...); see the README's replay section.
func (p *Process) WriteDerived(path string) error {
	data, err := workload.DeriveOutput(p.c.sys, p.p, path)
	if err != nil {
		return err
	}
	return p.Write(path, data)
}
