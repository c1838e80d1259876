// Package arch is the one factory above the paper's three architectures:
// a name, a cloud namespace and the handful of settings any caller varies
// go in; a shard.Store — and, for the WAL design, its commit daemon — comes
// out. It hides the three per-architecture Config types, the split between
// the Writer label of the first two architectures and the ClientID of the
// third, and the daemon wiring, so the public client, the load target, the
// cost harness, the fault sweep and the property checker all build stores
// the same way.
package arch

import (
	"fmt"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Names lists the architectures in the paper's order (§4.1–4.3).
var Names = []string{"s3", "s3+sdb", "s3+sdb+sqs"}

// Config describes one store. Only Name and Cloud are required; every
// other zero value selects the architecture's own default.
type Config struct {
	// Name selects the architecture: one of Names.
	Name string
	// Cloud is the namespace the store binds to. BuildSharded sets it per
	// member.
	Cloud *cloud.Cloud
	// Bucket and Domain override the default resource names.
	Bucket, Domain string
	// Writer labels the integrity checkpoints of "s3" and "s3+sdb".
	// ClientID names the WAL queue of "s3+sdb+sqs" and labels its
	// checkpoints. A caller that identifies its client sets both to the
	// same label; each architecture reads its own.
	Writer, ClientID string
	// Faults injects client crashes at the store's protocol points.
	Faults *sim.FaultPlan
	// Retry bounds the transient-error backoff around every cloud call.
	Retry retry.Policy
	// PutConcurrency and ScanConcurrency bound in-flight S3 requests on
	// "s3"; the SimpleDB architectures ignore them.
	PutConcurrency, ScanConcurrency int
	// DisableQueryCache restores the paper's one-scan-per-query costs.
	DisableQueryCache bool
	// DisableIntegrity turns off the Merkle ledger and checkpoint riders.
	DisableIntegrity bool
}

// Build constructs one store. The daemon is non-nil only for
// "s3+sdb+sqs"; its Threshold and Visibility are the caller's to adjust.
func Build(cfg Config) (shard.Store, *s3sdbsqs.CommitDaemon, error) {
	switch cfg.Name {
	case "s3":
		st, err := s3only.New(s3only.Config{
			Cloud: cfg.Cloud, Bucket: cfg.Bucket, Faults: cfg.Faults,
			PutConcurrency: cfg.PutConcurrency, ScanConcurrency: cfg.ScanConcurrency,
			DisableQueryCache: cfg.DisableQueryCache, Retry: cfg.Retry,
			Writer: cfg.Writer, DisableIntegrity: cfg.DisableIntegrity,
		})
		if err != nil {
			return nil, nil, err
		}
		return st, nil, nil
	case "s3+sdb":
		st, err := s3sdb.New(s3sdb.Config{
			Cloud: cfg.Cloud, Bucket: cfg.Bucket, Domain: cfg.Domain, Faults: cfg.Faults,
			DisableQueryCache: cfg.DisableQueryCache, Retry: cfg.Retry,
			Writer: cfg.Writer, DisableIntegrity: cfg.DisableIntegrity,
		})
		if err != nil {
			return nil, nil, err
		}
		return st, nil, nil
	case "s3+sdb+sqs":
		st, err := s3sdbsqs.New(s3sdbsqs.Config{
			Cloud: cfg.Cloud, Bucket: cfg.Bucket, Domain: cfg.Domain, ClientID: cfg.ClientID,
			Faults: cfg.Faults, DisableQueryCache: cfg.DisableQueryCache, Retry: cfg.Retry,
			DisableIntegrity: cfg.DisableIntegrity,
		})
		if err != nil {
			return nil, nil, err
		}
		return st, s3sdbsqs.NewCommitDaemon(st, nil), nil
	default:
		return nil, nil, fmt.Errorf("arch: unknown architecture %q", cfg.Name)
	}
}

// CrashPoints are, by name, the crash points an architecture's write path
// and background machinery check, in protocol order: the declarations of
// its store package, the points it passes the shared SimpleDB layer
// included.
var CrashPoints = map[string]sim.Points{"s3": s3only.Points, "s3+sdb": s3sdb.Points, "s3+sdb+sqs": s3sdbsqs.Points}

// Sharded is n members of one architecture, each on its own namespace,
// composed behind one store. n is 1 for the paper's single-store layout.
type Sharded struct {
	// Store is the consistent-hash router when n > 1, else the one member.
	Store shard.Store
	// Router is Store as a router; nil when n == 1.
	Router *shard.Router
	// Members, Clouds and Daemons are in shard order. Daemons is empty off
	// the WAL architecture.
	Members []shard.Store
	Clouds  []*cloud.Cloud
	Daemons []*s3sdbsqs.CommitDaemon
}

// ShardFor returns the index of the member that homes object.
func (s *Sharded) ShardFor(object prov.ObjectID) int {
	if s.Router == nil {
		return 0
	}
	return s.Router.ShardFor(object)
}

// Usage sums the member namespaces' meters: the store's whole bill.
func (s *Sharded) Usage() billing.Usage {
	var sum billing.Usage
	for _, cl := range s.Clouds {
		sum = sum.Add(cl.Usage())
	}
	return sum
}

// RetryStats sums the members' retry counters. Every architecture's store
// meters its retrier.
func (s *Sharded) RetryStats() retry.Snapshot {
	var sum retry.Snapshot
	for _, m := range s.Members {
		sum = sum.Add(m.(interface{ RetryStats() retry.Snapshot }).RetryStats())
	}
	return sum
}

// Compose builds one member per Config, each on the Cloud its Config
// names, behind a router when there are several.
func Compose(cfgs ...Config) (*Sharded, error) {
	s := &Sharded{}
	for _, cfg := range cfgs {
		st, daemon, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		s.Members = append(s.Members, st)
		s.Clouds = append(s.Clouds, cfg.Cloud)
		if daemon != nil {
			s.Daemons = append(s.Daemons, daemon)
		}
	}
	s.Store = s.Members[0]
	if len(s.Members) > 1 {
		r, err := shard.New(shard.Config{Shards: s.Members})
		if err != nil {
			return nil, err
		}
		s.Store, s.Router = r, r
	}
	return s, nil
}

// BuildSharded composes n members (n < 1 means one) on namespaces of a
// multi-namespace region. member names shard i's namespace key — also its
// billing key — and gives its Config; Cloud is filled in here from that
// namespace.
func BuildSharded(multi *cloud.Multi, n int, member func(i int) (key string, cfg Config)) (*Sharded, error) {
	cfgs := make([]Config, max(n, 1))
	for i := range cfgs {
		var key string
		key, cfgs[i] = member(i)
		cfgs[i].Cloud = multi.Namespace(key)
	}
	return Compose(cfgs...)
}
