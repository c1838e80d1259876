package passcloud

import (
	"context"
	"fmt"
	"sync"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// Region is one simulated AWS region shared by several clients — the
// paper's usage model: "multiple clients can concurrently update different
// objects at the same time", and in the third architecture "each client has
// an SQS queue that it uses as a write-ahead log".
//
// All clients of a region see the same buckets and provenance domain;
// clients of the WAL architecture each get their own queue and commit
// daemon. Provenance written by one client is queryable by every other
// (after Sync/Settle), which is the whole point of a provenance-aware
// shared cloud.
//
// With Options.Shards or Options.Tenant set, the region hosts multiple
// isolated namespaces: clients of the same tenant share that tenant's
// shard namespaces; clients of different tenants (NewTenantClient) share
// nothing but the simulated clock.
type Region struct {
	opts  Options
	cloud *cloud.Cloud // unsharded substrate; nil when sharded
	multi *cloud.Multi // multi-namespace substrate; nil when unsharded

	mu       sync.Mutex
	nclients int
}

// NewRegion builds a shared region. Options.ClientID is ignored here; each
// client gets its own.
func NewRegion(opts Options) (*Region, error) {
	if err := checkArchitecture(opts.Architecture); err != nil {
		return nil, err
	}
	cfg := cloud.Config{Seed: opts.Seed, MaxDelay: opts.ConsistencyDelay}
	if sharded(opts) {
		return &Region{opts: opts, multi: cloud.NewMulti(cfg)}, nil
	}
	return &Region{opts: opts, cloud: cloud.New(cfg)}, nil
}

// NewClient attaches a client to the region. An empty id is assigned
// automatically.
func (r *Region) NewClient(id string) (*Client, error) {
	return r.NewTenantClient(r.opts.Tenant, id)
}

// NewTenantClient attaches a client to the region under the named tenant.
// Tenants are isolated: their namespaces (buckets, domains, queues,
// billing meters) are disjoint, so one tenant's clients can never read —
// or pay for — another tenant's provenance. Requires a sharded or
// tenant-labelled region (Options.Shards or Options.Tenant set); on a
// plain region the tenant must match the region's (empty) tenant.
func (r *Region) NewTenantClient(tenant, id string) (*Client, error) {
	r.mu.Lock()
	r.nclients++
	if id == "" {
		id = fmt.Sprintf("client%d", r.nclients)
	}
	r.mu.Unlock()

	opts := r.opts
	opts.ClientID = id
	opts.Tenant = tenant
	if r.multi != nil {
		return newShardedClient(r.multi, opts)
	}
	if tenant != "" {
		return nil, fmt.Errorf("passcloud: region was built without tenancy (set Options.Shards or Options.Tenant)")
	}
	return newClientOn(r.cloud, opts)
}

// Settle advances the region's clock past the replication horizon.
func (r *Region) Settle() {
	if r.multi != nil {
		r.multi.Settle()
		return
	}
	r.cloud.Settle()
}

// Usage summarizes the whole region's bill (all clients, all tenants).
func (r *Region) Usage() UsageSummary {
	if r.multi != nil {
		return usageFrom(r.multi.Combined())
	}
	return usageFrom(r.cloud.Usage())
}

// newClientOn builds a client against an existing single-namespace
// region. New and Region.NewClient funnel through here when unsharded.
func newClientOn(cl *cloud.Cloud, opts Options) (*Client, error) {
	cfg := archConfig(opts, opts.ClientID)
	cfg.Cloud = cl
	b, err := arch.Compose(cfg)
	if err != nil {
		return nil, err
	}
	c := &Client{opts: opts, b: b}
	c.sys = c.newSystem()
	return c, nil
}

// checkArchitecture rejects values outside the paper's three designs, so
// archConfig can index arch.Names.
func checkArchitecture(a Architecture) error {
	if a < S3Only || a > S3SimpleDBSQS {
		return fmt.Errorf("passcloud: unknown architecture %v", a)
	}
	return nil
}

// archConfig lowers the public options to one store's factory settings.
// The WAL queue takes the raw client id (the store defaults an empty one);
// the checkpoint writer label is always the defaulted form.
func archConfig(opts Options, clientID string) arch.Config {
	return arch.Config{
		Name:   arch.Names[opts.Architecture],
		Bucket: opts.Bucket, Domain: opts.Domain,
		Writer: clientLabel(clientID), ClientID: clientID,
		DisableQueryCache: opts.DisableQueryCache, DisableIntegrity: opts.DisableIntegrity,
	}
}

// newSystem wires the PASS layer to flush into the client's store.
func (c *Client) newSystem() *pass.System {
	return pass.NewSystem(pass.Config{
		Kernel:       c.opts.Kernel,
		Namespace:    c.opts.ClientID,
		Flush:        core.Flusher(c.b.Store),
		DisableChain: c.opts.DisableIntegrity,
	})
}

// tenantLabel is the namespace prefix a tenant's shards live under.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// newShardedClient builds a client whose store is a consistent-hash
// router over per-shard stores, each on its own namespace of the shared
// multi-namespace region. Namespace (billing) keys are
// "<tenant>/shard<i>", so clients of one tenant share state while
// tenants stay isolated.
func newShardedClient(m *cloud.Multi, opts Options) (*Client, error) {
	b, err := arch.BuildSharded(m, opts.Shards, func(i int) (string, arch.Config) {
		return fmt.Sprintf("%s/shard%d", tenantLabel(opts.Tenant), i),
			archConfig(opts, fmt.Sprintf("%s-s%d", clientLabel(opts.ClientID), i))
	})
	if err != nil {
		return nil, err
	}
	c := &Client{opts: opts, multi: m, b: b}
	c.sys = c.newSystem()
	return c, nil
}

// clientLabel defaults an empty client id (the WAL queue name needs one).
func clientLabel(id string) string {
	if id == "" {
		return "client0"
	}
	return id
}

// Dependents returns every object version that directly consumed any
// version of path — the provenance-aware deletion check: one indexed
// starts-with query on the SimpleDB architectures.
//
// Deprecated: use Search with a QuerySpec.
func (c *Client) Dependents(ctx context.Context, path string) ([]Ref, error) {
	return c.searchRefs(ctx, dependentsSpec(path))
}

// dependentsSpec is the deletion-guard query. IncludeSeeds keeps later
// versions of the object itself, which depend on earlier ones.
func dependentsSpec(path string) QuerySpec {
	return QuerySpec{RefPrefix: path + ":", Direction: TraverseDescendants, Depth: 1, IncludeSeeds: true, RefsOnly: true}
}

// ErrHasDependents is returned by SafeDelete when living derivations exist.
type ErrHasDependents struct {
	Object     string
	Dependents []Ref
}

// Error implements the error interface.
func (e *ErrHasDependents) Error() string {
	return fmt.Sprintf("passcloud: %s has %d dependent object versions; refusing to delete",
		e.Object, len(e.Dependents))
}

// SafeDelete removes path's data only if nothing in the repository derives
// from it — the kind of provenance-aware behaviour the paper's §7 suggests
// a cloud could offer once it holds the provenance ("the provenance stored
// with the data presents AWS cloud with many hints"). The provenance record
// itself is retained: lineage of deleted data is still history.
func (c *Client) SafeDelete(ctx context.Context, path string) error {
	deps, err := c.searchRefs(ctx, dependentsSpec(path))
	if err != nil {
		return err
	}
	if len(deps) > 0 {
		return &ErrHasDependents{Object: path, Dependents: deps}
	}
	return c.deleteData(path)
}

// deleteData removes the object's data from S3 (architecture-independent:
// all three keep data under the same key scheme). On a sharded client the
// delete routes to the object's home namespace.
func (c *Client) deleteData(path string) error {
	object := prov.ObjectID(path)
	return c.b.Clouds[c.b.ShardFor(object)].S3.Delete(c.bucketName(), core.DataKey(object))
}

// bucketName resolves the configured or default bucket.
func (c *Client) bucketName() string {
	if c.opts.Bucket != "" {
		return c.opts.Bucket
	}
	return core.DefaultBucket
}
