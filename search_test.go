package passcloud

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// searchClient loads a small repository: five ingested files under /data/
// plus one process-derived result.
func searchClient(t *testing.T, arch Architecture) *Client {
	t.Helper()
	ctx := context.Background()
	c, err := New(Options{Architecture: arch, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Ingest(ctx, fmt.Sprintf("/data/f%d", i), []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	p := c.Exec(nil, ProcessSpec{Name: "analyze", Argv: []string{"analyze"}})
	if err := p.Read("/data/f0"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write("/results/out", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(ctx, "/results/out"); err != nil {
		t.Fatal(err)
	}
	p.Exit()
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	return c
}

func archs() map[string]Architecture {
	return map[string]Architecture{
		"s3":         S3Only,
		"s3+sdb":     S3SimpleDB,
		"s3+sdb+sqs": S3SimpleDBSQS,
	}
}

// TestSearchBasics: the descriptor answers the fixed verbs' questions.
func TestSearchBasics(t *testing.T) {
	ctx := context.Background()
	for name, arch := range archs() {
		t.Run(name, func(t *testing.T) {
			c := searchClient(t, arch)

			// Q.2 as a descriptor.
			res, err := c.Search(ctx, QuerySpec{Tool: "analyze", Type: "file", RefsOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) != 1 || res.Entries[0].Ref.Object != "/results/out" {
				t.Fatalf("tool search = %+v", res.Entries)
			}

			// Attribute filter: all processes.
			res, err = c.Search(ctx, QuerySpec{Type: "process", RefsOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) != 1 || res.Entries[0].Ref.Object != "proc/1/analyze" {
				t.Fatalf("type search = %+v", res.Entries)
			}

			// Prefix listing with records.
			res, err = c.Search(ctx, QuerySpec{RefPrefix: "/data/"})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Entries) != 5 {
				t.Fatalf("prefix search = %d entries", len(res.Entries))
			}
			for _, e := range res.Entries {
				if len(e.Records) == 0 {
					t.Fatalf("full projection entry %v has no records", e.Ref)
				}
			}

			// Ancestors traversal from the result.
			res, err = c.Search(ctx, QuerySpec{
				Refs:      []Ref{{Object: "/results/out", Version: 0}},
				Direction: TraverseAncestors,
				RefsOnly:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			found := map[string]bool{}
			for _, e := range res.Entries {
				found[e.Ref.Object] = true
			}
			if !found["/data/f0"] || !found["proc/1/analyze"] {
				t.Fatalf("ancestors = %+v", res.Entries)
			}

			// Explain produces a plan for the same spec. The earlier
			// Search memoized this exact query, so the plan must report
			// the free repeat.
			plan, err := c.Explain(QuerySpec{Tool: "analyze", Type: "file", RefsOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Strategy == "" || plan.Arch == "" {
				t.Fatalf("plan = %+v", plan)
			}
			if arch != S3Only {
				if !plan.Cached || plan.EstOps != 0 {
					t.Fatalf("memoized query not planned as free: %+v", plan)
				}
				// An unseen query still shows its pushdown.
				cold, err := c.Explain(QuerySpec{Tool: "nosuch", Type: "file", RefsOnly: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(cold.Pushdown) == 0 || cold.Strategy != "indexed-two-phase" {
					t.Fatalf("indexed plan has no pushdown: %+v", cold)
				}
			}
		})
	}
}

// TestSearchCursorStableAcrossWrites is the pagination consistency
// contract: a page sequence started before a write observes one snapshot —
// no dropped entries, no duplicates, no phantom — while a fresh search
// afterwards sees the new generation.
func TestSearchCursorStableAcrossWrites(t *testing.T) {
	ctx := context.Background()
	for name, arch := range archs() {
		t.Run(name, func(t *testing.T) {
			c := searchClient(t, arch)
			spec := QuerySpec{RefPrefix: "/data/", RefsOnly: true, Limit: 2}

			// Page one.
			page1, err := c.Search(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(page1.Entries) != 2 || page1.Cursor == "" {
				t.Fatalf("page1 = %d entries, cursor %q", len(page1.Entries), page1.Cursor)
			}

			// A write lands mid-pagination (PutBatch via Ingest + Sync).
			if err := c.Ingest(ctx, "/data/f9", []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := c.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			c.Settle()

			// Remaining pages resume the pinned snapshot.
			var rest []ProvenanceEntry
			cursor := page1.Cursor
			for cursor != "" {
				next := spec
				next.Cursor = cursor
				page, err := c.Search(ctx, next)
				if err != nil {
					t.Fatal(err)
				}
				rest = append(rest, page.Entries...)
				cursor = page.Cursor
			}
			all := append(append([]ProvenanceEntry{}, page1.Entries...), rest...)
			seen := map[string]int{}
			for _, e := range all {
				seen[e.Ref.String()]++
			}
			if len(all) != 5 {
				t.Fatalf("page sequence returned %d entries, want the 5 pre-write files: %v", len(all), seen)
			}
			for ref, n := range seen {
				if n != 1 {
					t.Fatalf("entry %s returned %d times", ref, n)
				}
			}
			if seen["/data/f9:0"] != 0 {
				t.Fatal("phantom: mid-pagination write leaked into the pinned sequence")
			}

			// A fresh first page observes the new generation.
			fresh, err := c.Search(ctx, QuerySpec{RefPrefix: "/data/", RefsOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			freshSeen := map[string]bool{}
			for _, e := range fresh.Entries {
				freshSeen[e.Ref.String()] = true
			}
			if len(fresh.Entries) != 6 || !freshSeen["/data/f9:0"] {
				t.Fatalf("fresh search = %d entries (%v), want 6 incl /data/f9", len(fresh.Entries), freshSeen)
			}
		})
	}
}

// TestSearchCursorErrors: cursors are opaque but not forgeable — garbage
// and cross-query reuse fail loudly.
func TestSearchCursorErrors(t *testing.T) {
	ctx := context.Background()
	c := searchClient(t, S3SimpleDB)

	if _, err := c.Search(ctx, QuerySpec{RefPrefix: "/data/", RefsOnly: true, Cursor: "garbage!"}); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("garbage cursor: %v", err)
	}

	page, err := c.Search(ctx, QuerySpec{RefPrefix: "/data/", RefsOnly: true, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Same cursor, different logical query.
	other := QuerySpec{Type: "process", RefsOnly: true, Cursor: page.Cursor}
	if _, err := c.Search(ctx, other); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("cross-query cursor: %v", err)
	}

	// Same cursor, different client. The second client's process-local
	// generation counter matches the first's (identical workload), so
	// without a per-store instance token the cursor would silently resume a
	// result set the second store never pinned.
	c2 := searchClient(t, S3SimpleDB)
	foreign := QuerySpec{RefPrefix: "/data/", RefsOnly: true, Limit: 2, Cursor: page.Cursor}
	if _, err := c2.Search(ctx, foreign); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("foreign-client cursor: %v", err)
	}
}

// TestExplainEvictedPinCostsReEvaluation: Explain may promise a free
// pinned-page resume only while the pin is resident. Once newer paginated
// queries evict it, resuming at an unchanged generation re-evaluates the
// descriptor — with the cache disabled that is real cloud work, and the
// plan must predict it instead of hardcoding zero.
func TestExplainEvictedPinCostsReEvaluation(t *testing.T) {
	ctx := context.Background()
	for name, arch := range archs() {
		t.Run(name, func(t *testing.T) {
			c, err := New(Options{Architecture: arch, Seed: 5, DisableQueryCache: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := c.Ingest(ctx, fmt.Sprintf("/data/f%d", i), []byte{byte('a' + i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			c.Settle()

			spec := QuerySpec{RefPrefix: "/data/", RefsOnly: true, Limit: 2}
			page, err := c.Search(ctx, spec)
			if err != nil || page.Cursor == "" {
				t.Fatalf("page1 cursor=%q err=%v", page.Cursor, err)
			}
			resume := spec
			resume.Cursor = page.Cursor

			// Pin resident: the resume really is free.
			plan, err := c.Explain(resume)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Cached || plan.EstOps != 0 {
				t.Fatalf("resident-pin plan not free: %+v", plan)
			}

			// Evict the pin with newer paginated queries (the registry
			// retains a bounded number; generation is unchanged throughout).
			for i := 0; i < 12; i++ {
				filler := QuerySpec{RefPrefix: fmt.Sprintf("/data/f%d:", i), RefsOnly: true, Limit: 1}
				if _, err := c.Search(ctx, filler); err != nil {
					t.Fatal(err)
				}
			}

			plan, err = c.Explain(resume)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Cached || plan.EstOps == 0 {
				t.Fatalf("evicted-pin plan still claims a free resume: %+v", plan)
			}

			// The prediction matches the metered re-evaluation.
			before := c.Usage()
			if _, err := c.Search(ctx, resume); err != nil {
				t.Fatal(err)
			}
			after := c.Usage()
			metered := (after.S3Ops + after.SimpleDBOps) - (before.S3Ops + before.SimpleDBOps)
			if metered != plan.EstOps {
				t.Fatalf("resume metered %d ops, plan predicted %d", metered, plan.EstOps)
			}
		})
	}
}

// TestExplainExactDegradesOnSharedRegion: a client whose planner catalog
// never saw another client's writes must stop claiming exact predictions —
// on every architecture, with the query cache on and off, unsharded and
// over four shards, for a prefix query and for Q.1.
func TestExplainExactDegradesOnSharedRegion(t *testing.T) {
	ctx := context.Background()
	specs := []struct {
		name string
		spec QuerySpec
	}{{"prefix", QuerySpec{RefPrefix: "/shared/", RefsOnly: true}}, {"Q.1", QuerySpec{}}}
	for _, arch := range []Architecture{S3Only, S3SimpleDB, S3SimpleDBSQS} {
		for _, uncached := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				for _, sp := range specs {
					spec := sp.spec
					t.Run(fmt.Sprintf("%s/uncached=%v/shards=%d/%s", arch, uncached, shards, sp.name), func(t *testing.T) {
						region, err := NewRegion(Options{Architecture: arch, Seed: 3, DisableQueryCache: uncached, Shards: shards})
						if err != nil {
							t.Fatal(err)
						}
						alice, err := region.NewClient("alice")
						if err != nil {
							t.Fatal(err)
						}
						bob, err := region.NewClient("bob")
						if err != nil {
							t.Fatal(err)
						}

						if err := alice.Ingest(ctx, "/shared/a", []byte("x")); err != nil {
							t.Fatal(err)
						}
						if err := alice.Sync(ctx); err != nil {
							t.Fatal(err)
						}
						region.Settle()

						alicePlan, err := alice.Explain(spec)
						if err != nil {
							t.Fatal(err)
						}
						if !alicePlan.Exact {
							t.Fatalf("alice performed every write; her plan must be exact: %+v", alicePlan)
						}
						bobPlan, err := bob.Explain(spec)
						if err != nil {
							t.Fatal(err)
						}
						if bobPlan.Exact {
							t.Fatalf("bob never observed alice's writes; his plan must be an estimate: %+v", bobPlan)
						}
					})
				}
			}
		}
	}
}
