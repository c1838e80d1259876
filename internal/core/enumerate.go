package core

import (
	"context"
	"iter"

	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
)

// S3Pages is the one paged S3 enumeration: it LISTs bucket under prefix a
// page at a time, honoring ctx before each request and fetching every page
// under r, so scans, audits and migrations share one transient-error
// policy. The sequence ends after the first error.
func S3Pages(ctx context.Context, r *retry.Retrier, svc *s3.Service, bucket, prefix string) iter.Seq2[[]s3.Info, error] {
	return func(yield func([]s3.Info, error) bool) {
		marker := ""
		for {
			if err := ctx.Err(); err != nil {
				yield(nil, err)
				return
			}
			var page *s3.ListPage
			err := r.Do(ctx, "core/s3-list", func() error {
				var lerr error
				page, lerr = svc.List(bucket, prefix, marker, 0)
				return lerr
			})
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(page.Objects, nil) || !page.IsTruncated {
				return
			}
			marker = page.NextMarker
		}
	}
}

// DeleteS3Prefix removes every object under prefix. Deleting an absent key
// succeeds, so a retry after a lost response is harmless.
func DeleteS3Prefix(ctx context.Context, r *retry.Retrier, svc *s3.Service, bucket, prefix string) error {
	for infos, err := range S3Pages(ctx, r, svc, bucket, prefix) {
		if err != nil {
			return err
		}
		for _, info := range infos {
			err := r.Do(ctx, "core/s3-prefix-delete", func() error {
				return svc.Delete(bucket, info.Key)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
