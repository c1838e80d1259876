package shard

// Allocation benchmarks for the router's hot merge paths: the cross-shard
// entry fan-in (core.EntryMerger) and the multi-hop frontier dedupe. Run with
//
//	go test -bench BenchmarkMerge -benchmem ./internal/core/shard/
//
// to see per-op allocation counts; the pre-sized merger should fold a wide
// fan-in without map rehashes or slice regrowth beyond the initial arena.

import (
	"fmt"
	"testing"

	"passcloud/internal/prov"

	"passcloud/internal/core"
)

// benchShardEntries fabricates nShards per-shard result slices of n entries
// each. A fraction of refs repeats across shards (pinned refs echoed by
// non-home shards) so the merger exercises both the append and the
// concatenate branch.
func benchShardEntries(nShards, n int) [][]core.Entry {
	perShard := make([][]core.Entry, nShards)
	for s := range perShard {
		entries := make([]core.Entry, 0, n)
		for i := 0; i < n; i++ {
			ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/bench/obj-%04d", i)), Version: 1}
			if i%8 != 0 { // 1-in-8 refs shared across every shard
				ref.Object = prov.ObjectID(fmt.Sprintf("/bench/s%d/obj-%04d", s, i))
			}
			entries = append(entries, core.Entry{
				Ref:     ref,
				Records: []prov.Record{{Subject: ref, Attr: prov.AttrType, Value: prov.StringValue("file")}},
			})
		}
		perShard[s] = entries
	}
	return perShard
}

func benchMergeFanIn(b *testing.B, nShards, n int, sized bool) {
	perShard := benchShardEntries(nShards, n)
	total := 0
	for _, entries := range perShard {
		total += len(entries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		merged := core.NewEntryMerger(0)
		if sized {
			merged = core.NewEntryMerger(total)
		}
		for _, entries := range perShard {
			for _, e := range entries {
				merged.Add(e)
			}
		}
		if len(merged.Entries) == 0 {
			b.Fatal("empty merge")
		}
	}
}

func BenchmarkMergeFanInSized(b *testing.B) {
	for _, shards := range []int{4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchMergeFanIn(b, shards, 256, true)
		})
	}
}

func BenchmarkMergeFanInUnsized(b *testing.B) {
	for _, shards := range []int{4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchMergeFanIn(b, shards, 256, false)
		})
	}
}

// BenchmarkMergeFrontierDedupe covers the multi-hop round boundary: the
// concatenated per-shard frontier is deduped and re-sorted once per BFS
// level.
func BenchmarkMergeFrontierDedupe(b *testing.B) {
	refs := make([]prov.Ref, 0, 4*256)
	for s := 0; s < 4; s++ {
		for i := 0; i < 256; i++ {
			refs = append(refs, prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/bench/obj-%04d", i%96)), Version: prov.Version(1 + i%3)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		out := core.DedupeRefs(refs)
		prov.SortRefs(out)
		if len(out) == 0 {
			b.Fatal("empty dedupe")
		}
	}
}
