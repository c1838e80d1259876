package workload

import (
	"context"
	"fmt"

	"passcloud/internal/cloud"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/s3sdbsqs"
)

// LoadArchs is the architecture axis the load harness drives, in report
// order (the paper's names).
var LoadArchs = arch.Names

// BuildLoadTarget constructs the standard load target for one tenant:
// `shards` member stores of the named architecture, each bound to its own
// isolated namespace of the region — billing key "t<tenant>/s<shard>" —
// composed behind a shard router when shards > 1. This is the one
// construction passbench -load and the harness tests share, so the
// capacity numbers in the README come from exactly the code under test.
func BuildLoadTarget(multi *cloud.Multi, name string, tenant, shards int) (LoadTarget, error) {
	b, err := arch.BuildSharded(multi, shards, func(s int) (string, arch.Config) {
		return fmt.Sprintf("t%d/s%d", tenant, s),
			arch.Config{Name: name, ClientID: fmt.Sprintf("t%d-s%d", tenant, s)}
	})
	if err != nil {
		return LoadTarget{}, err
	}
	tg := LoadTarget{Store: b.Store, Clouds: b.Clouds}
	if len(b.Daemons) > 0 {
		// One daemon at a time, each to quiescence: round-robin would re-poll
		// the queues of daemons that are already idle.
		tg.Drain = func(ctx context.Context) error {
			for _, d := range b.Daemons {
				if err := s3sdbsqs.Drain(ctx, nil, d); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return tg, nil
}
