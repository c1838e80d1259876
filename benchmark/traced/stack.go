package traced

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"sync"

	"passcloud"
	"passcloud/benchmark/e2e"
	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/core/shard/reshard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/replay"
	"passcloud/internal/workload"
)

// This file rebuilds, by hand and from the internal packages, the stack
// passcloud.NewRegion / Region.NewClient assemble — same namespace keys,
// writer labels and client ids, so the two issue the same cloud requests —
// with a span recorded around every call that crosses a layer boundary:
//
//	client.close / client.sync / client.ingest      (root, one per op)
//	  pass.flush              the pass.Config.Flush func
//	    shard.putbatch        Router.PutBatch          (sharded only)
//	      store.putbatch      each member's PutBatch
//	  store.sync              core.SyncStore
//	  wal.runonce             CommitDaemon.RunOnce     (WAL only)
//	client.search
//	  shard.query             Router.Query             (sharded only)
//	    store.query           each member's Query
//	client.verify             integrity.VerifyStores
//	  store.audit             each member's Audit
//
// Members are wrapped by embedding the concrete store pointer, so every
// other method — core.RefPlanner, core.Syncer, StampToken, the migration
// hooks — stays promoted and the router picks the same query regime it
// picks for an unwrapped member.

// region is the hand-built counterpart of passcloud.Region.
type region struct {
	opts  passcloud.Options
	rec   *Recorder
	cloud *cloud.Cloud // unsharded substrate
	multi *cloud.Multi // multi-namespace substrate

	mu     sync.Mutex
	stacks []*stack
}

// newRegion mirrors passcloud.NewRegion. A nil rec builds the same stack
// with nothing wrapped.
func newRegion(opts passcloud.Options, rec *Recorder) *region {
	cfg := cloud.Config{Seed: opts.Seed, MaxDelay: opts.ConsistencyDelay}
	r := &region{opts: opts, rec: rec}
	if opts.Shards > 1 || opts.Tenant != "" {
		r.multi = cloud.NewMulti(cfg)
	} else {
		r.cloud = cloud.New(cfg)
	}
	return r
}

// NewClient mirrors Region.NewClient -> newClientOn / newShardedClient.
func (r *region) NewClient(id string) (e2e.Repo, error) {
	s := &stack{region: r}
	var members []shard.Store
	if r.multi == nil {
		m, err := s.member(r.cloud, label(id))
		if err != nil {
			return nil, err
		}
		members, s.clouds = []shard.Store{m}, []*cloud.Cloud{r.cloud}
	} else {
		tenant := r.opts.Tenant
		if tenant == "" {
			tenant = "default"
		}
		for i := 0; i < max(r.opts.Shards, 1); i++ {
			cl := r.multi.Namespace(fmt.Sprintf("%s/shard%d", tenant, i))
			m, err := s.member(cl, fmt.Sprintf("%s-s%d", label(id), i))
			if err != nil {
				return nil, err
			}
			members, s.clouds = append(members, m), append(s.clouds, cl)
		}
	}
	s.members = members
	s.store = members[0]
	if len(members) > 1 {
		router, err := shard.New(shard.Config{Shards: members})
		if err != nil {
			return nil, err
		}
		s.router, s.store = router, router
	}
	s.sys = pass.NewSystem(pass.Config{Namespace: id, Flush: s.flush})
	r.mu.Lock()
	r.stacks = append(r.stacks, s)
	r.mu.Unlock()
	return s, nil
}

// label mirrors passcloud's default for an empty client id.
func label(id string) string {
	if id == "" {
		return "client0"
	}
	return id
}

// stack is one client: a PASS system flushing into a (possibly sharded)
// architecture store. It implements e2e.Repo.
type stack struct {
	region  *region
	sys     *pass.System
	store   shard.Store // the router when sharded, else the one member
	router  *shard.Router
	members []shard.Store
	clouds  []*cloud.Cloud
	daemons []*s3sdbsqs.CommitDaemon
	procs   []*pass.Process
	ctrl    *reshard.Controller
}

// The member wrappers: the concrete store, embedded, with the three
// boundary calls overridden.
type (
	s3onlyMember struct {
		*s3only.Store
		rec *Recorder
	}
	s3sdbMember struct {
		*s3sdb.Store
		rec *Recorder
	}
	s3sdbsqsMember struct {
		*s3sdbsqs.Store
		rec *Recorder
	}
)

func spanPutBatch(rec *Recorder, ctx context.Context, batch []pass.FlushEvent, put func(context.Context, []pass.FlushEvent) error) error {
	ctx, end := rec.Start(ctx, "store.putbatch")
	defer end(len(batch))
	return put(ctx, batch)
}

func spanQuery(rec *Recorder, ctx context.Context, q prov.Query, query func(context.Context, prov.Query) iter.Seq2[core.Entry, error]) iter.Seq2[core.Entry, error] {
	return func(yield func(core.Entry, error) bool) {
		ctx, end := rec.Start(ctx, "store.query")
		defer end(0)
		query(ctx, q)(yield)
	}
}

func spanAudit(rec *Recorder, ctx context.Context, audit func(context.Context) (*integrity.Audit, error)) (*integrity.Audit, error) {
	ctx, end := rec.Start(ctx, "store.audit")
	defer end(0)
	return audit(ctx)
}

func (m s3onlyMember) PutBatch(ctx context.Context, b []pass.FlushEvent) error {
	return spanPutBatch(m.rec, ctx, b, m.Store.PutBatch)
}
func (m s3onlyMember) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return spanQuery(m.rec, ctx, q, m.Store.Query)
}
func (m s3onlyMember) Audit(ctx context.Context) (*integrity.Audit, error) {
	return spanAudit(m.rec, ctx, m.Store.Audit)
}

func (m s3sdbMember) PutBatch(ctx context.Context, b []pass.FlushEvent) error {
	return spanPutBatch(m.rec, ctx, b, m.Store.PutBatch)
}
func (m s3sdbMember) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return spanQuery(m.rec, ctx, q, m.Store.Query)
}
func (m s3sdbMember) Audit(ctx context.Context) (*integrity.Audit, error) {
	return spanAudit(m.rec, ctx, m.Store.Audit)
}

func (m s3sdbsqsMember) PutBatch(ctx context.Context, b []pass.FlushEvent) error {
	return spanPutBatch(m.rec, ctx, b, m.Store.PutBatch)
}
func (m s3sdbsqsMember) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return spanQuery(m.rec, ctx, q, m.Store.Query)
}
func (m s3sdbsqsMember) Audit(ctx context.Context) (*integrity.Audit, error) {
	return spanAudit(m.rec, ctx, m.Store.Audit)
}

// member mirrors passcloud's newStoreOn: one architecture store (and its
// commit daemon) on one namespace, wrapped when the region records spans.
func (s *stack) member(cl *cloud.Cloud, clientID string) (shard.Store, error) {
	rec := s.region.rec
	switch s.region.opts.Architecture {
	case passcloud.S3Only:
		st, err := s3only.New(s3only.Config{Cloud: cl, Writer: clientID})
		if err != nil || rec == nil {
			return st, err
		}
		return s3onlyMember{st, rec}, nil
	case passcloud.S3SimpleDB:
		st, err := s3sdb.New(s3sdb.Config{Cloud: cl, Writer: clientID})
		if err != nil || rec == nil {
			return st, err
		}
		return s3sdbMember{st, rec}, nil
	case passcloud.S3SimpleDBSQS:
		st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, ClientID: clientID})
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, s3sdbsqs.NewCommitDaemon(st, nil))
		if rec == nil {
			return st, nil
		}
		return s3sdbsqsMember{st, rec}, nil
	}
	return nil, fmt.Errorf("traced: unknown architecture %v", s.region.opts.Architecture)
}

// flush is the pass.Config.Flush func: core.Flusher with spans.
func (s *stack) flush(ctx context.Context, batch []pass.FlushEvent) error {
	rec := s.region.rec
	ctx, end := rec.Start(ctx, "pass.flush")
	defer end(len(batch))
	if s.router != nil {
		var endRouter func(int)
		ctx, endRouter = rec.Start(ctx, "shard.putbatch")
		defer endRouter(len(batch))
	}
	return s.store.PutBatch(ctx, batch)
}

// --- trace.Target ------------------------------------------------------------

func (s *stack) Exec(id, parent int, name string, argv []string, env string) {
	var pp *pass.Process
	if parent >= 0 {
		pp = s.procs[parent]
	}
	for len(s.procs) <= id {
		s.procs = append(s.procs, nil)
	}
	s.procs[id] = s.sys.Exec(pp, pass.ExecSpec{Name: name, Argv: argv, Env: env})
}

func (s *stack) Read(id int, path string) error { return s.sys.Read(s.procs[id], path) }
func (s *stack) Write(id int, path string, data []byte) error {
	return s.sys.Write(s.procs[id], path, data, pass.Truncate)
}
func (s *stack) WriteDerived(id int, path string) error {
	data, err := workload.DeriveOutput(s.sys, s.procs[id], path)
	if err != nil {
		return err
	}
	return s.sys.Write(s.procs[id], path, data, pass.Truncate)
}
func (s *stack) Append(id int, path string, data []byte) error {
	return s.sys.Write(s.procs[id], path, data, pass.Append)
}
func (s *stack) PipeTo(from, to int) error { return s.sys.Pipe(s.procs[from], s.procs[to]) }
func (s *stack) Exit(id int)               { s.sys.Exit(s.procs[id]) }

func (s *stack) Close(ctx context.Context, id int, path string) error {
	ctx, end := s.region.rec.Start(ctx, "client.close")
	defer end(0)
	return s.sys.Close(ctx, s.procs[id], path)
}

func (s *stack) Ingest(ctx context.Context, path string, data []byte) error {
	ctx, end := s.region.rec.Start(ctx, "client.ingest")
	defer end(0)
	return s.sys.Ingest(ctx, path, data)
}

// --- the rest of e2e.Repo ----------------------------------------------------

// syncRoundBudget is passcloud.Client.Sync's bound on commit-daemon drain
// rounds.
const syncRoundBudget = 50

// Sync mirrors passcloud.Client.Sync.
func (s *stack) Sync(ctx context.Context) error {
	rec := s.region.rec
	ctx, end := rec.Start(ctx, "client.sync")
	defer end(0)
	if err := s.sys.Sync(ctx); err != nil {
		return err
	}
	sctx, endStore := rec.Start(ctx, "store.sync")
	err := core.SyncStore(sctx, s.store)
	endStore(0)
	if err != nil || len(s.daemons) == 0 {
		return err
	}
	for i := 0; i < syncRoundBudget; i++ {
		committed, pending := 0, 0
		for _, d := range s.daemons {
			dctx, endRun := rec.Start(ctx, "wal.runonce")
			n, err := d.RunOnce(dctx, true)
			endRun(n)
			if err != nil {
				return err
			}
			committed += n
			pending += d.PendingTransactions()
		}
		if committed == 0 && pending == 0 {
			return nil
		}
		s.Settle()
	}
	return passcloud.ErrSyncTimeout
}

func (s *stack) Settle() {
	if s.region.multi != nil {
		s.region.multi.Settle()
		return
	}
	s.region.cloud.Settle()
}

// compile mirrors passcloud.QuerySpec's compilation to a descriptor.
func compile(spec passcloud.QuerySpec) prov.Query {
	q := prov.Query{
		Tool: spec.Tool, Type: spec.Type, RefPrefix: spec.RefPrefix,
		Direction: prov.Direction(spec.Direction), Depth: spec.Depth, IncludeSeeds: spec.IncludeSeeds,
		Limit: spec.Limit, Cursor: spec.Cursor,
	}
	if spec.RefsOnly {
		q.Projection = prov.ProjectRefs
	}
	for _, r := range spec.Refs {
		q.Refs = append(q.Refs, prov.Ref{Object: prov.ObjectID(r.Object), Version: prov.Version(r.Version)})
	}
	keys := make([]string, 0, len(spec.Attrs))
	for k := range spec.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q.Attrs = append(q.Attrs, prov.AttrFilter{Attr: k, Value: spec.Attrs[k]})
	}
	return q
}

func publicRef(r prov.Ref) passcloud.Ref {
	return passcloud.Ref{Object: string(r.Object), Version: int(r.Version)}
}

func publicRecords(rs []prov.Record) []passcloud.Record {
	out := make([]passcloud.Record, len(rs))
	for i, r := range rs {
		out[i] = passcloud.Record{Subject: publicRef(r.Subject), Attr: r.Attr, Value: r.Value.String()}
		if r.Attr == prov.AttrInput && r.Value.Kind == prov.KindRef {
			out[i].IsInput, out[i].InputRef = true, publicRef(r.Value.Ref)
		}
	}
	return out
}

// Search mirrors passcloud.Client.Search.
func (s *stack) Search(ctx context.Context, spec passcloud.QuerySpec) (*passcloud.SearchResult, error) {
	rec := s.region.rec
	ctx, end := rec.Start(ctx, "client.search")
	defer end(0)
	if s.router != nil {
		var endRouter func(int)
		ctx, endRouter = rec.Start(ctx, "shard.query")
		defer endRouter(0)
	}
	res := &passcloud.SearchResult{}
	for entry, err := range s.store.Query(ctx, compile(spec)) {
		if err != nil {
			return nil, err
		}
		res.Entries = append(res.Entries, passcloud.ProvenanceEntry{Ref: publicRef(entry.Ref), Records: publicRecords(entry.Records)})
		if entry.Cursor != "" {
			res.Cursor = entry.Cursor
		}
	}
	return res, nil
}

func (s *stack) Explain(spec passcloud.QuerySpec) (passcloud.QueryPlan, error) {
	q := compile(spec)
	if err := q.Validate(); err != nil {
		return passcloud.QueryPlan{}, err
	}
	p := s.store.Explain(q)
	return passcloud.QueryPlan{Arch: p.Arch, Strategy: p.Strategy, EstOps: p.EstOps, Cached: p.Cached, Exact: p.Exact}, nil
}

// VerifyAll mirrors passcloud.Client.VerifyAll.
func (s *stack) VerifyAll(ctx context.Context) (*passcloud.VerifyReport, error) {
	ctx, end := s.region.rec.Start(ctx, "client.verify")
	defer end(0)
	auditors := make([]integrity.Auditor, len(s.members))
	for i, m := range s.members {
		auditors[i] = m.(integrity.Auditor)
	}
	res, err := integrity.VerifyStores(ctx, auditors)
	if err != nil {
		return nil, err
	}
	rep := &passcloud.VerifyReport{NamespaceRoot: res.NamespaceRoot}
	for _, sr := range res.Shards {
		sv := passcloud.ShardVerification{Shard: sr.Shard, Subjects: sr.Subjects, Records: sr.Records}
		for _, d := range sr.Divergences {
			sv.Divergences = append(sv.Divergences, passcloud.Divergence{
				Kind: d.Kind.String(), Shard: d.Shard, Subject: publicRef(d.Subject), Detail: d.Detail,
			})
		}
		rep.Shards = append(rep.Shards, sv)
	}
	return rep, nil
}

// Replay mirrors passcloud.Client.Replay: the sandbox is an unwrapped
// stack on a fresh region under the "replay" tenant.
func (s *stack) Replay(ctx context.Context, path string) (*passcloud.ReplayReport, error) {
	ctx, end := s.region.rec.Start(ctx, "client.replay")
	defer end(0)
	obj, err := s.store.Get(ctx, prov.ObjectID(path))
	if err != nil {
		return nil, err
	}
	opts := s.region.opts
	opts.ConsistencyDelay = 0
	opts.Tenant = "replay"
	if s.region.opts.Tenant != "" {
		opts.Tenant = s.region.opts.Tenant + "-replay"
	}
	repo, err := newRegion(opts, nil).NewClient("")
	if err != nil {
		return nil, err
	}
	sandbox := repo.(*stack)
	rep, err := replay.Replay(ctx, replay.Config{
		Source: s.store, Fetch: s.store.Get, Target: sandbox.store,
		Runner: workload.Tools{}, Kernel: pass.DefaultKernel,
	}, obj.Ref)
	if err != nil {
		return nil, err
	}
	if err := sandbox.Sync(ctx); err != nil {
		return nil, err
	}
	out := &passcloud.ReplayReport{
		Subjects: rep.Subjects, Sources: rep.Sources, Processes: rep.Processes,
		Compared: rep.Compared, Usage: sandbox.TenantUsage(),
	}
	for _, d := range rep.Divergences {
		out.Divergences = append(out.Divergences, passcloud.ReplayDivergence{
			Kind: d.Kind.String(), Subject: publicRef(d.Subject), Detail: d.Detail,
		})
	}
	return out, nil
}

func (s *stack) Get(ctx context.Context, path string) (*passcloud.Object, error) {
	obj, err := s.store.Get(ctx, prov.ObjectID(path))
	if err != nil {
		return nil, err
	}
	return &passcloud.Object{Ref: publicRef(obj.Ref), Data: obj.Data, Records: publicRecords(obj.Records)}, nil
}

// usage sums the tenant's per-namespace meters.
func (s *stack) usage() billing.Usage {
	var sum billing.Usage
	for _, cl := range s.clouds {
		sum = sum.Add(cl.Usage())
	}
	return sum
}

func (s *stack) TenantUsage() passcloud.UsageSummary {
	u := s.usage()
	return passcloud.UsageSummary{
		S3Ops: u.Ops(billing.S3), SimpleDBOps: u.Ops(billing.SimpleDB), SQSOps: u.Ops(billing.SQS),
		S3Stored: u.Storage(billing.S3), SimpleDBStored: u.Storage(billing.SimpleDB), SQSStored: u.Storage(billing.SQS),
		TransferredIn:  u.BytesIn(billing.S3) + u.BytesIn(billing.SimpleDB) + u.BytesIn(billing.SQS),
		TransferredOut: u.BytesOut(billing.S3) + u.BytesOut(billing.SimpleDB) + u.BytesOut(billing.SQS),
	}
}

// Split mirrors Client.Resharder().Split(ctx, 0, -1).
func (s *stack) Split(ctx context.Context) (*passcloud.ReshardReport, error) {
	if s.router == nil {
		return nil, passcloud.ErrNotSharded
	}
	if s.ctrl == nil {
		ctrl, err := reshard.New(reshard.Config{Router: s.router, Clouds: s.clouds, Drain: s.Sync, Settle: s.Settle})
		if err != nil {
			return nil, err
		}
		s.ctrl = ctrl
	}
	plan, err := s.ctrl.PlanSplit(0, -1)
	if err != nil {
		return nil, err
	}
	rep, err := s.ctrl.Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	return &passcloud.ReshardReport{
		Action: rep.Action, Src: plan.Src, Dst: plan.Dst, Subjects: rep.Subjects, Objects: rep.Objects,
		Bytes: rep.Bytes, Epoch: rep.Epoch, MigOps: rep.MigOps, MigTotalOps: rep.MigTotalOps, MigBytes: rep.MigBytes,
	}, nil
}
