package planner_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/planner"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// observed is one item write as the s3+sdb store hands it to its catalog.
type observed struct {
	subject       prov.Ref
	inline, spill []prov.Record
}

// captureObserved runs the combined workload at scale 0.05 and returns every
// flushed version in stored form, split into inline and spilled records at
// the item's attribute budget — the stream an s3+sdb store's catalog
// observes (sdbprov's EncodeValues and buildAttrs), without a cloud.
func captureObserved(b *testing.B) []observed {
	b.Helper()
	ctx := context.Background()
	var out []observed
	overflow := 0
	put := func(string) (string, error) {
		overflow++
		return fmt.Sprintf("prov/overflow/%d", overflow), nil
	}
	sys := pass.NewSystem(pass.Config{Flush: func(_ context.Context, batch []pass.FlushEvent) error {
		for _, ev := range batch {
			encoded := make([]prov.Record, len(ev.Records))
			for i, r := range ev.Records {
				var err error
				if encoded[i], err = core.EncodeValue(r, put); err != nil {
					return err
				}
			}
			// The continuation slot and the root token, plus the MD5 a
			// file carries.
			reserved := 2
			if ev.Persistent() {
				reserved++
			}
			w := observed{subject: ev.Ref, inline: encoded}
			if cut := sdb.MaxAttrsPerItem - reserved; len(encoded) > cut {
				w.inline, w.spill = encoded[:cut], encoded[cut:]
			}
			out = append(out, w)
		}
		return nil
	}})
	if err := workload.Run(ctx, sys, sim.NewRNG(1), workload.NewCombined(0.05)); err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkSDBCatalogObserve observes the captured stream into a fresh
// catalog per iteration and reports what that costs per item: ns, bytes
// allocated, and bytes still held after a GC while the catalog lives. It
// runs twice: with the value postings never asked for, and with one
// attribute question asked first, so every Observe after it keeps them.
func BenchmarkSDBCatalogObserve(b *testing.B) {
	stream := captureObserved(b)
	items := map[prov.Ref]bool{}
	records := 0
	for _, w := range stream {
		items[w.subject] = true
		records += len(w.inline)
	}
	b.Logf("%d writes, %d items, %d inline records", len(stream), len(items), records)
	for _, asked := range []bool{false, true} {
		name := "postings-cold"
		if asked {
			name = "postings-built"
		}
		b.Run(name, func(b *testing.B) {
			var allocated, retained uint64
			var before, mid, after runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				c := planner.NewSDBCatalog()
				if asked {
					c.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}})
				}
				for _, w := range stream {
					c.Observe(w.subject, w.inline, w.spill)
				}
				b.StopTimer()
				runtime.ReadMemStats(&mid)
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(c)
				allocated += mid.TotalAlloc - before.TotalAlloc
				retained += after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
			}
			per := float64(b.N) * float64(len(items))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/item")
			b.ReportMetric(float64(allocated)/per, "allocB/item")
			b.ReportMetric(float64(retained)/per, "retainedB/item")
			b.ReportMetric(0, "ns/op")
		})
	}
}
