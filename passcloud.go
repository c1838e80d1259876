// Package passcloud makes a cloud provenance-aware.
//
// It is a complete implementation of Muniswamy-Reddy, Macko and Seltzer,
// "Making a Cloud Provenance-Aware" (TaPP '09): a Provenance-Aware Storage
// System (PASS) client that stores data together with its provenance on a
// (simulated) Amazon Web Services region, using one of the paper's three
// architectures:
//
//	S3Only        data and provenance in S3 (provenance as object metadata)
//	S3SimpleDB    data in S3, provenance in SimpleDB (indexed, queryable)
//	S3SimpleDBSQS data in S3, provenance in SimpleDB, with an SQS
//	              write-ahead log providing atomicity and read correctness
//
// A Client bundles a PASS system (processes, files, syscall-level
// provenance observation) with a storage architecture. Applications run
// processes that read and write files; on close, each file's data and
// provenance — including the provenance of every transient ancestor,
// coalesced into a single batched flush — is persisted through the
// selected architecture. The provenance can then be verified on read and
// queried by lineage.
//
// The API is context-first: every method that performs cloud I/O takes a
// context.Context as its first argument, so callers control deadlines,
// cancellation and per-request scoping. Repository-wide queries are also
// available as streams (AllProvenanceSeq, ProvenanceSeq) that yield
// results incrementally instead of materializing the whole graph.
//
// The cloud behind the client is simulated (eventual consistency, request
// accounting and January-2009 pricing included), so the full system runs
// self-contained and deterministically.
package passcloud

import (
	"context"
	"fmt"
	"iter"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// Architecture selects one of the paper's three designs.
type Architecture int

// The three architectures of the paper's §4.
const (
	// S3Only stores provenance as S3 object metadata (§4.1).
	S3Only Architecture = iota
	// S3SimpleDB stores provenance in SimpleDB (§4.2).
	S3SimpleDB
	// S3SimpleDBSQS adds the SQS write-ahead log (§4.3).
	S3SimpleDBSQS
)

// String names the architecture as the paper does.
func (a Architecture) String() string {
	switch a {
	case S3Only:
		return "S3"
	case S3SimpleDB:
		return "S3+SimpleDB"
	case S3SimpleDBSQS:
		return "S3+SimpleDB+SQS"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Options configures a Client. The zero value is usable: S3Only on a
// strongly consistent region.
type Options struct {
	// Architecture selects the storage design.
	Architecture Architecture
	// Seed fixes all randomness; runs with equal seeds are identical.
	Seed int64
	// ConsistencyDelay is the region's maximum replication delay. Zero
	// gives strong consistency; a positive delay reproduces the eventual-
	// consistency behaviour the paper analyzes (reads may be stale until
	// Settle is called or simulated time passes).
	ConsistencyDelay time.Duration
	// Bucket, Domain and ClientID override the default resource names.
	Bucket, Domain, ClientID string
	// Kernel is recorded in process provenance.
	Kernel string
	// DisableQueryCache turns off the query-performance subsystem: the
	// generation-stamped provenance snapshot cache that lets repeated and
	// recursive queries on an unchanged repository run at ~zero cloud ops.
	// Disable it to reproduce the paper's Table 3 costs, where every
	// query pays its full scan or indexed-query run — behind a shard
	// router too, which keeps no member graphs of its own.
	DisableQueryCache bool
	// Shards partitions the provenance namespace across that many
	// independent store instances of the selected architecture, each
	// bound to its own isolated namespace (bucket, domain, queue, billing
	// key) of the simulated region, composed behind a consistent-hash
	// router. 0 or 1 keeps the paper's single-store layout. Sharding is
	// transparent to every Client method; see the README's "Sharding &
	// multi-tenancy" section for the routing and query semantics.
	Shards int
	// Tenant labels this client's namespaces for isolation and billing:
	// two clients with different tenants share nothing — separate
	// buckets, domains and meters — even inside one Region. Empty selects
	// the default tenant. TenantUsage reads the per-tenant bill.
	Tenant string
	// DisableIntegrity turns off the tamper-evidence subsystem: no chain
	// records are appended to flushed record sets and no Merkle
	// checkpoints ride the writes. VerifyLineage and VerifyAll then
	// report every subject as chain-missing. This is the op-count parity
	// baseline; integrity adds zero cloud operations either way, since
	// chains and checkpoints ride writes the architectures already issue.
	DisableIntegrity bool
}

// Ref identifies one version of one object.
type Ref struct {
	Object  string
	Version int
}

// String renders the object:version form.
func (r Ref) String() string { return fmt.Sprintf("%s:%d", r.Object, r.Version) }

func toPublicRef(r prov.Ref) Ref { return Ref{Object: string(r.Object), Version: int(r.Version)} }
func toInternalRef(r Ref) prov.Ref {
	return prov.Ref{Object: prov.ObjectID(r.Object), Version: prov.Version(r.Version)}
}

// Record is one provenance assertion about Subject.
type Record struct {
	Subject Ref
	// Attr is the attribute name: "input", "name", "type", "argv", ...
	Attr string
	// Value is the attribute value. For input records it is the
	// referenced object version in object:version form, also available
	// structured via InputRef.
	Value string
	// IsInput reports whether this record is an ancestry edge.
	IsInput bool
	// InputRef is the referenced version when IsInput.
	InputRef Ref
}

func toPublicRecord(r prov.Record) Record {
	out := Record{
		Subject: toPublicRef(r.Subject),
		Attr:    r.Attr,
		Value:   r.Value.String(),
	}
	if r.Attr == prov.AttrInput && r.Value.Kind == prov.KindRef {
		out.IsInput = true
		out.InputRef = toPublicRef(r.Value.Ref)
	}
	return out
}

func toPublicRecords(rs []prov.Record) []Record {
	out := make([]Record, len(rs))
	for i, r := range rs {
		out[i] = toPublicRecord(r)
	}
	return out
}

// Object is retrieved data with its verified provenance.
type Object struct {
	Ref     Ref
	Data    []byte
	Records []Record
}

// Properties is the architecture's Table 1 row.
type Properties struct {
	Atomicity      bool
	Consistency    bool
	CausalOrdering bool
	EfficientQuery bool
}

// Errors, re-exported for callers to match with errors.Is.
var (
	// ErrNotFound: the object does not exist (or has not propagated).
	ErrNotFound = core.ErrNotFound
	// ErrInconsistent: data and provenance could not be reconciled within
	// the retry budget.
	ErrInconsistent = core.ErrInconsistent
	// ErrNoProvenance: data exists without provenance (an atomicity
	// violation surfaced).
	ErrNoProvenance = core.ErrNoProvenance
	// ErrSyncTimeout: Sync's commit-daemon drain did not reach quiescence
	// within its round budget or before the context ended. The returned
	// error also wraps the context's error when cancellation cut the
	// drain short.
	ErrSyncTimeout = s3sdbsqs.ErrNotDrained
)

// Client is a provenance-aware cloud storage client. It holds no
// context.Context: every method that performs cloud I/O takes one
// explicitly, so each request is individually scoped and cancellable.
type Client struct {
	opts Options
	// multi is the multi-namespace region, read for the whole-region
	// Usage; nil when unsharded.
	multi *cloud.Multi
	// b is what the client was built from: its store (the router, or the
	// one member when unsharded) and, in shard order, the member stores
	// (verification audits), their namespaces (direct data operations,
	// per-tenant billing reads) and the WAL commit daemons.
	b   *arch.Sharded
	sys *pass.System
	// resharder is the lazily built migration controller (its crash
	// journal must survive across Resharder calls).
	resharder *Resharder
}

// New builds a client with its own simulated AWS region. To share one
// region between several clients, use NewRegion.
func New(opts Options) (*Client, error) {
	if err := checkArchitecture(opts.Architecture); err != nil {
		return nil, err
	}
	if sharded(opts) {
		return newShardedClient(cloud.NewMulti(cloud.Config{
			Seed:     opts.Seed,
			MaxDelay: opts.ConsistencyDelay,
		}), opts)
	}
	cl := cloud.New(cloud.Config{
		Seed:     opts.Seed,
		MaxDelay: opts.ConsistencyDelay,
	})
	return newClientOn(cl, opts)
}

// sharded reports whether opts needs the multi-namespace construction:
// more than one shard, or tenant isolation (which gives the tenant its
// own namespaces even unsharded).
func sharded(opts Options) bool { return opts.Shards > 1 || opts.Tenant != "" }

// Architecture returns the selected design.
func (c *Client) Architecture() Architecture { return c.opts.Architecture }

// Properties returns the architecture's Table 1 row.
func (c *Client) Properties() Properties {
	p := c.b.Store.Properties()
	return Properties{
		Atomicity:      p.Atomicity,
		Consistency:    p.Consistency,
		CausalOrdering: p.CausalOrdering,
		EfficientQuery: p.EfficientQuery,
	}
}

// --- the PASS application surface -------------------------------------------

// Process is a handle on a simulated process whose syscalls are observed.
type Process struct {
	c *Client
	p *pass.Process
}

// ProcessSpec describes a process to execute.
type ProcessSpec struct {
	Name string
	Argv []string
	// Env is the captured environment; large environments produce the
	// >1 KB provenance records the paper's analysis features.
	Env string
}

// Exec starts a process. A nil parent starts a session root.
func (c *Client) Exec(parent *Process, spec ProcessSpec) *Process {
	var pp *pass.Process
	if parent != nil {
		pp = parent.p
	}
	return &Process{c: c, p: c.sys.Exec(pp, pass.ExecSpec{Name: spec.Name, Argv: spec.Argv, Env: spec.Env})}
}

// Ref returns the process's current provenance version.
func (p *Process) Ref() Ref { return toPublicRef(p.p.Ref()) }

// Read records that the process read path. Reads and writes are local
// PASS observations (no cloud I/O), so they take no context.
func (p *Process) Read(path string) error { return p.c.sys.Read(p.p, path) }

// Write replaces path's content, recording the dependency.
func (p *Process) Write(path string, data []byte) error {
	return p.c.sys.Write(p.p, path, data, pass.Truncate)
}

// Append extends path's content, recording the dependency.
func (p *Process) Append(path string, data []byte) error {
	return p.c.sys.Write(p.p, path, data, pass.Append)
}

// Close persists path: its data and provenance, with all unpersisted
// ancestors coalesced into one batch (ancestors first), flow through the
// storage architecture in a single flush.
func (p *Process) Close(ctx context.Context, path string) error {
	return p.c.sys.Close(ctx, p.p, path)
}

// PipeTo connects this process's output to q's input through a pipe,
// relating their provenance.
func (p *Process) PipeTo(q *Process) error { return p.c.sys.Pipe(p.p, q.p) }

// Exit marks the process finished.
func (p *Process) Exit() { p.c.sys.Exit(p.p) }

// Ingest stores a pre-existing data set (no process ancestry), like
// downloading a public data set into the cloud.
func (c *Client) Ingest(ctx context.Context, path string, data []byte) error {
	return c.sys.Ingest(ctx, path, data)
}

// Fetch downloads a shared object from the cloud into this client's local
// namespace (the paper's model: "download the data set to their local
// compute grid"). Local reads then bind to exactly the fetched version, so
// derivations made here connect to the ancestry other clients stored.
func (c *Client) Fetch(ctx context.Context, path string) (*Object, error) {
	obj, err := c.b.Store.Get(ctx, prov.ObjectID(path))
	if err != nil {
		return nil, err
	}
	if err := c.sys.Attach(path, obj.Ref, obj.Data); err != nil {
		return nil, err
	}
	return &Object{
		Ref:     toPublicRef(obj.Ref),
		Data:    obj.Data,
		Records: toPublicRecords(obj.Records),
	}, nil
}

// Sync drains everything toward the cloud: pending PASS versions, buffered
// client state, and (for the WAL architecture) the commit daemon. The
// drain honors ctx — cancellation or a deadline ends it with an error
// wrapping both ErrSyncTimeout and the context's error — and is otherwise
// bounded by a generous round budget, after which ErrSyncTimeout is
// returned rather than looping forever on a wedged queue.
func (c *Client) Sync(ctx context.Context) error {
	if err := c.sys.Sync(ctx); err != nil {
		return err
	}
	if err := core.SyncStore(ctx, c.b.Store); err != nil {
		return err
	}
	return s3sdbsqs.Drain(ctx, c.Settle, c.b.Daemons...)
}

// Settle advances simulated time past the region's replication horizon so
// all replicas converge — every shard namespace at once when sharded.
// With ConsistencyDelay zero it is a no-op.
func (c *Client) Settle() {
	// Every namespace shares one clock and one replication horizon.
	c.b.Clouds[0].Settle()
}

// --- retrieval and queries ---------------------------------------------------

// Get retrieves the current version of path with verified provenance.
func (c *Client) Get(ctx context.Context, path string) (*Object, error) {
	obj, err := c.b.Store.Get(ctx, prov.ObjectID(path))
	if err != nil {
		return nil, err
	}
	return &Object{
		Ref:     toPublicRef(obj.Ref),
		Data:    obj.Data,
		Records: toPublicRecords(obj.Records),
	}, nil
}

// Provenance returns the provenance of one object version (the paper's
// Q.1 unit).
func (c *Client) Provenance(ctx context.Context, ref Ref) ([]Record, error) {
	records, err := c.b.Store.Provenance(ctx, toInternalRef(ref))
	if err != nil {
		return nil, err
	}
	return toPublicRecords(records), nil
}

// ProvenanceSeq streams the provenance of one object version, one record
// at a time. A non-nil error ends the sequence; breaking early is allowed.
func (c *Client) ProvenanceSeq(ctx context.Context, ref Ref) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		records, err := c.b.Store.Provenance(ctx, toInternalRef(ref))
		if err != nil {
			yield(Record{}, err)
			return
		}
		for _, r := range records {
			if !yield(toPublicRecord(r), nil) {
				return
			}
		}
	}
}

// OutputsOf finds the files written by instances of the named tool (Q.2).
//
// Deprecated: use Search with a QuerySpec.
func (c *Client) OutputsOf(ctx context.Context, tool string) ([]Ref, error) {
	return c.searchRefs(ctx, QuerySpec{Tool: tool, Type: "file", RefsOnly: true})
}

// DescendantsOfOutputs finds everything derived from the named tool's
// outputs (Q.3) — the paper's flawed-tool scenario.
//
// Deprecated: use Search with a QuerySpec.
func (c *Client) DescendantsOfOutputs(ctx context.Context, tool string) ([]Ref, error) {
	return c.searchRefs(ctx, QuerySpec{Tool: tool, Type: "file", Direction: TraverseDescendants, RefsOnly: true})
}

// Ancestors returns every object version in ref's ancestry. Every backend
// answers it from the repository's provenance graph — with the query cache
// enabled (default) the walk runs on the store's shared snapshot, zero
// cloud ops once warm; on the S3-only architecture a cold call scans.
//
// Deprecated: use Search with a QuerySpec.
func (c *Client) Ancestors(ctx context.Context, ref Ref) ([]Ref, error) {
	return c.searchRefs(ctx, QuerySpec{Refs: []Ref{ref}, Direction: TraverseAncestors, RefsOnly: true})
}

// searchRefs runs spec and keeps the references.
func (c *Client) searchRefs(ctx context.Context, spec QuerySpec) ([]Ref, error) {
	res, err := c.Search(ctx, spec)
	if err != nil {
		return nil, err
	}
	refs := make([]Ref, len(res.Entries))
	for i, e := range res.Entries {
		refs[i] = e.Ref
	}
	return refs, nil
}

// AllProvenance retrieves the provenance of every object version (Q.1 over
// all objects), materialized as a map. For large repositories with
// Options.DisableQueryCache set, prefer AllProvenanceSeq, which then
// streams; with the cache enabled both share one resident snapshot.
//
// Deprecated: use Search with a zero QuerySpec.
func (c *Client) AllProvenance(ctx context.Context) (map[Ref][]Record, error) {
	out := make(map[Ref][]Record)
	for entry, err := range c.SearchSeq(ctx, QuerySpec{}) {
		if err != nil {
			return nil, err
		}
		out[entry.Ref] = append(out[entry.Ref], entry.Records...)
	}
	return out, nil
}

// ProvenanceEntry is one object version's provenance, as yielded by
// AllProvenanceSeq.
type ProvenanceEntry struct {
	Ref     Ref
	Records []Record
}

// AllProvenanceSeq streams the provenance of every object version in the
// repository. A non-nil error ends the sequence (its entry is zero);
// breaking early is allowed.
//
// Memory behavior depends on Options.DisableQueryCache. With the cache
// enabled (default), entries are yielded from the repository snapshot —
// the graph is resident (shared with every other query), entries are
// merged one per subject, and a warm repeat costs zero cloud ops. With
// the cache disabled this is a live scan: one Select/LIST page and one
// item resident at a time, breaking early releases the scan, and on the
// S3-only architecture a subject whose records rode more than one carrier
// PUT may be yielded more than once.
func (c *Client) AllProvenanceSeq(ctx context.Context) iter.Seq2[ProvenanceEntry, error] {
	return c.SearchSeq(ctx, QuerySpec{})
}

// --- accounting ---------------------------------------------------------------

// UsageSummary reports accumulated AWS usage and its January-2009 price.
type UsageSummary struct {
	// Ops is the total request count per service.
	S3Ops, SimpleDBOps, SQSOps int64
	// Stored is resident bytes per service.
	S3Stored, SimpleDBStored, SQSStored int64
	// TransferredIn/Out are bytes moved to/from the cloud.
	TransferredIn, TransferredOut int64
	// USD is the total bill (storage priced per month).
	USD float64
}

// Usage summarizes the client's cloud bill so far. Clients sharing a
// region share meters: this is the whole region's bill, every tenant
// and shard included. For one tenant's share, use TenantUsage.
func (c *Client) Usage() UsageSummary {
	if c.multi != nil {
		return usageFrom(c.multi.Combined())
	}
	return c.TenantUsage()
}

// TenantUsage summarizes only this client's tenant: the sum of its shard
// namespaces' meters — the per-tenant billing key read the multi-tenant
// deployment accounts with. On an unsharded single-tenant client it
// equals Usage.
func (c *Client) TenantUsage() UsageSummary {
	return usageFrom(c.b.Usage())
}

// usageFrom converts a meter snapshot into the public summary.
func usageFrom(u billing.Usage) UsageSummary {
	cost := billing.Jan2009.Price(u)
	return UsageSummary{
		S3Ops:          u.Ops(billing.S3),
		SimpleDBOps:    u.Ops(billing.SimpleDB),
		SQSOps:         u.Ops(billing.SQS),
		S3Stored:       u.Storage(billing.S3),
		SimpleDBStored: u.Storage(billing.SimpleDB),
		SQSStored:      u.Storage(billing.SQS),
		TransferredIn:  u.BytesIn(billing.S3) + u.BytesIn(billing.SimpleDB) + u.BytesIn(billing.SQS),
		TransferredOut: u.BytesOut(billing.S3) + u.BytesOut(billing.SimpleDB) + u.BytesOut(billing.SQS),
		USD:            cost.Total(),
	}
}
