package e2e

import (
	"context"

	"passcloud"
	"passcloud/benchmark/trace"
)

// Repo is one client's view of the repository — everything a workload
// does to the system under test. *passcloud.Client provides all of it but
// the process table; the traced driver supplies an implementation built by
// hand from the internal packages.
type Repo interface {
	trace.Target
	Sync(ctx context.Context) error
	Settle()
	Search(ctx context.Context, spec passcloud.QuerySpec) (*passcloud.SearchResult, error)
	Explain(spec passcloud.QuerySpec) (passcloud.QueryPlan, error)
	VerifyAll(ctx context.Context) (*passcloud.VerifyReport, error)
	Replay(ctx context.Context, path string) (*passcloud.ReplayReport, error)
	Get(ctx context.Context, path string) (*passcloud.Object, error)
	TenantUsage() passcloud.UsageSummary
	// Split migrates alternating ring points off shard 0 onto the coldest
	// shard. Only sharded repositories support it.
	Split(ctx context.Context) (*passcloud.ReshardReport, error)
}

// Region hands out clients of one shared simulated region.
type Region interface {
	NewClient(id string) (Repo, error)
}

// RegionFunc builds the region a run measures.
type RegionFunc func(opts passcloud.Options) (Region, error)

// PublicRegion builds the region through the public API — the stack every
// end-to-end metric is taken on.
func PublicRegion(opts passcloud.Options) (Region, error) {
	r, err := passcloud.NewRegion(opts)
	if err != nil {
		return nil, err
	}
	return publicRegion{r}, nil
}

type publicRegion struct{ r *passcloud.Region }

func (p publicRegion) NewClient(id string) (Repo, error) {
	c, err := p.r.NewClient(id)
	if err != nil {
		return nil, err
	}
	return &client{Client: c}, nil
}

// client adapts *passcloud.Client to trace.Target by keeping the trace's
// process id -> handle table.
type client struct {
	*passcloud.Client
	procs []*passcloud.Process
}

func (c *client) Exec(id, parent int, name string, argv []string, env string) {
	var pp *passcloud.Process
	if parent >= 0 {
		pp = c.procs[parent]
	}
	for len(c.procs) <= id {
		c.procs = append(c.procs, nil)
	}
	c.procs[id] = c.Client.Exec(pp, passcloud.ProcessSpec{Name: name, Argv: argv, Env: env})
}

func (c *client) Read(id int, path string) error { return c.procs[id].Read(path) }
func (c *client) Write(id int, path string, data []byte) error {
	return c.procs[id].Write(path, data)
}
func (c *client) WriteDerived(id int, path string) error { return c.procs[id].WriteDerived(path) }
func (c *client) Append(id int, path string, data []byte) error {
	return c.procs[id].Append(path, data)
}
func (c *client) PipeTo(from, to int) error { return c.procs[from].PipeTo(c.procs[to]) }
func (c *client) Close(ctx context.Context, id int, path string) error {
	return c.procs[id].Close(ctx, path)
}
func (c *client) Exit(id int) { c.procs[id].Exit() }

func (c *client) Split(ctx context.Context) (*passcloud.ReshardReport, error) {
	r, err := c.Resharder()
	if err != nil {
		return nil, err
	}
	return r.Split(ctx, 0, -1)
}
