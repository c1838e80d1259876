package s3sdbsqs

import (
	"context"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/core/sdbprov"
)

// Cleaner reaps temporary objects abandoned by uncommitted transactions:
// "the temporary objects that have been stored on S3, must be explicitly
// removed if they belong to uncommitted transactions. We use a cleaner
// daemon to remove temporary objects that have not been accessed for 4
// days" (§4.3). Four days matches SQS retention, so by the time a
// temporary object is old enough to reap, its transaction's WAL messages
// are guaranteed gone and the transaction can never commit.
type Cleaner struct {
	cloud  *cloud.Cloud
	layer  *sdbprov.Layer
	bucket string

	// MaxAge is the abandonment horizon (default 4 days).
	MaxAge time.Duration
}

// NewCleaner builds a cleaner for a store's bucket.
func NewCleaner(st *Store) *Cleaner {
	return NewCleanerForLayer(st.cloud, st.Layer())
}

// NewCleanerForLayer builds a cleaner directly over a provenance layer.
func NewCleanerForLayer(c *cloud.Cloud, layer *sdbprov.Layer) *Cleaner {
	return &Cleaner{cloud: c, layer: layer, bucket: layer.Bucket(), MaxAge: 4 * 24 * time.Hour}
}

// RunOnce deletes every temporary object older than MaxAge, returning how
// many were removed.
func (c *Cleaner) RunOnce(ctx context.Context) (n int, err error) {
	err = c.layer.Writes().Own(func() error {
		n, err = c.runOnce(ctx)
		return err
	})
	return n, err
}

func (c *Cleaner) runOnce(ctx context.Context) (int, error) {
	var infos []s3.Info
	err := c.layer.Retrier().Do(ctx, "s3sdbsqs/clean-list", func() error {
		var lerr error
		infos, lerr = c.cloud.S3.ListAll(c.bucket, TmpPrefix)
		return lerr
	})
	if err != nil {
		return 0, err
	}
	now := c.cloud.Clock.Now()
	removed := 0
	for _, info := range infos {
		if err := ctx.Err(); err != nil {
			return removed, err
		}
		if now.Sub(info.LastModified) <= c.MaxAge {
			continue
		}
		key := info.Key
		// DELETE is idempotent: a retry after a lost response is harmless.
		err := c.layer.Retrier().Do(ctx, "s3sdbsqs/clean-delete", func() error {
			return c.cloud.S3.Delete(c.bucket, key)
		})
		if err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
