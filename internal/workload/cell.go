package workload

import (
	"context"
	"fmt"
	"strings"

	"passcloud/internal/cloud"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/s3sdbsqs"
)

// BuildCell constructs the cell every passbench section measures: `shards`
// member stores of cfg's architecture, each bound to its own isolated
// namespace of the region — namespace and billing key "<prefix>s<shard>",
// where the load harness's prefix is "t<tenant>/" — composed behind a shard
// router when shards > 1. cfg carries what the sections vary (Name,
// DisableQueryCache); each member's client label is its key with '/'
// spelled '-'. This is the one construction passbench and the harness tests
// share, so the capacity numbers in the README come from exactly the code
// under test.
func BuildCell(multi *cloud.Multi, prefix string, shards int, cfg arch.Config) (*arch.Sharded, error) {
	return arch.BuildSharded(multi, shards, func(s int) (string, arch.Config) {
		key := fmt.Sprintf("%ss%d", prefix, s)
		cfg.ClientID = strings.ReplaceAll(key, "/", "-")
		return key, cfg
	})
}

// Drain brings a cell to quiescence after a write phase: every commit
// daemon runs dry (none off the WAL architecture) — one daemon at a time,
// since round-robin would re-poll the queues of daemons that are already
// idle — and the region settles. The members share one clock and one
// propagation horizon, so settling the first settles them all.
func Drain(ctx context.Context, b *arch.Sharded) error {
	settle := b.Clouds[0].Settle
	for _, d := range b.Daemons {
		if err := s3sdbsqs.Drain(ctx, settle, d); err != nil {
			return err
		}
	}
	settle()
	return nil
}
