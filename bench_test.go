package passcloud

// The benchmark harness regenerates every table in the paper's evaluation
// (§5) as a testing.B benchmark, plus ablations for the design decisions
// the paper argues for. Custom metrics carry the table values:
//
//	go test -bench 'Table' -benchmem
//
// Table 1 -> BenchmarkTable1Properties
// Table 2 -> BenchmarkTable2Storage/<arch>     (provops/object, overhead%)
// Table 3 -> BenchmarkTable3Queries/<q>/<backend> (ops/query, bytes/query)
//
// cmd/passbench prints the same tables in the paper's layout at larger
// scales; benches run at small scale so `go test -bench .` stays quick.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/props"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/cost"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

const benchScale = 0.005 // keeps each load around a thousand events

// BenchmarkTable1Properties measures the full property-verification matrix
// (Table 1): every architecture through every crash, consistency, causal
// and efficiency scenario.
func BenchmarkTable1Properties(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, h := range props.StandardHarnesses(int64(i + 1)) {
			report, err := props.Check(ctx, h)
			if err != nil {
				b.Fatal(err)
			}
			if report.Measured != report.Claimed {
				b.Fatalf("%s: measured %+v != claimed %+v", h.Name, report.Measured, report.Claimed)
			}
		}
	}
}

// BenchmarkTable2Storage loads the combined workload into one architecture
// per sub-benchmark and reports the paper's Table 2 quantities.
func BenchmarkTable2Storage(b *testing.B) {
	type build func(cl *cloud.Cloud) (core.Store, func(context.Context) error, error)
	builds := map[string]build{
		"s3": func(cl *cloud.Cloud) (core.Store, func(context.Context) error, error) {
			st, err := s3only.New(s3only.Config{Cloud: cl})
			return st, nil, err
		},
		"s3+sdb": func(cl *cloud.Cloud) (core.Store, func(context.Context) error, error) {
			st, err := s3sdb.New(s3sdb.Config{Cloud: cl})
			return st, nil, err
		},
		"s3+sdb+sqs": func(cl *cloud.Cloud) (core.Store, func(context.Context) error, error) {
			st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl})
			if err != nil {
				return nil, nil, err
			}
			daemon := s3sdbsqs.NewCommitDaemon(st, nil)
			drain := func(ctx context.Context) error {
				for {
					n, err := daemon.RunOnce(ctx, true)
					if err != nil {
						return err
					}
					if n == 0 && daemon.PendingTransactions() == 0 {
						return nil
					}
					cl.Settle()
				}
			}
			return st, drain, nil
		},
	}
	ctx := context.Background()
	for _, name := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		mk := builds[name]
		b.Run(name, func(b *testing.B) {
			var provOps, objects, provBytes, rawBytes int64
			for i := 0; i < b.N; i++ {
				cl := cloud.New(cloud.Config{Seed: int64(i + 1)})
				st, drain, err := mk(cl)
				if err != nil {
					b.Fatal(err)
				}
				setup := cl.Usage().TotalOps()
				collector := &cost.Collector{}
				sys := pass.NewSystem(pass.Config{Flush: collector.Tee(core.Flusher(st))})
				if err := workload.Run(ctx, sys, sim.NewRNG(int64(i+1)), workload.NewCombined(benchScale)); err != nil {
					b.Fatal(err)
				}
				if err := core.SyncStore(ctx, st); err != nil {
					b.Fatal(err)
				}
				if drain != nil {
					if err := drain(ctx); err != nil {
						b.Fatal(err)
					}
				}
				u := cl.Usage()
				objects += collector.Stats.Objects
				rawBytes += collector.Stats.DataBytes
				provOps += u.TotalOps() - setup - collector.Stats.Objects
				provBytes += u.Storage(billing.S3) - collector.Stats.DataBytes +
					u.Storage(billing.SimpleDB) + u.BytesIn(billing.SQS) + u.BytesOut(billing.SQS)
			}
			b.ReportMetric(float64(provOps)/float64(objects), "provops/object")
			b.ReportMetric(100*float64(provBytes)/float64(rawBytes), "overhead%")
		})
	}
}

// table3Backend is one loaded query backend: an architecture with the
// snapshot cache either disabled (the paper's pay-per-query shape) or
// enabled (the query-performance subsystem).
type table3Backend struct {
	cloud   *cloud.Cloud
	querier core.Querier
}

// table3Env holds the shared loaded datasets for query benches, built once:
// S3-only and SimpleDB backends, each in cached and uncached trim.
type table3Env struct {
	backends map[string]*table3Backend // "S3/uncached", "SimpleDB/cached", ...
}

var (
	table3Once sync.Once
	table3     *table3Env
	table3Err  error
)

func loadTable3(b *testing.B) *table3Env {
	b.Helper()
	table3Once.Do(func() {
		ctx := context.Background()
		env := &table3Env{backends: make(map[string]*table3Backend)}
		for _, cached := range []bool{false, true} {
			trim := "uncached"
			if cached {
				trim = "cached"
			}

			cl := cloud.New(cloud.Config{Seed: 9})
			st1, err := s3only.New(s3only.Config{Cloud: cl, DisableQueryCache: !cached})
			if err != nil {
				table3Err = err
				return
			}
			sys := pass.NewSystem(pass.Config{Flush: core.Flusher(st1)})
			if table3Err = workload.Run(ctx, sys, sim.NewRNG(9), workload.NewCombined(benchScale)); table3Err != nil {
				return
			}
			if table3Err = core.SyncStore(ctx, st1); table3Err != nil {
				return
			}
			env.backends["S3/"+trim] = &table3Backend{cloud: cl, querier: st1}

			cl2 := cloud.New(cloud.Config{Seed: 9})
			st2, err := s3sdb.New(s3sdb.Config{Cloud: cl2, DisableQueryCache: !cached})
			if err != nil {
				table3Err = err
				return
			}
			sys = pass.NewSystem(pass.Config{Flush: core.Flusher(st2)})
			if table3Err = workload.Run(ctx, sys, sim.NewRNG(9), workload.NewCombined(benchScale)); table3Err != nil {
				return
			}
			env.backends["SimpleDB/"+trim] = &table3Backend{cloud: cl2, querier: st2}
		}
		table3 = env
	})
	if table3Err != nil {
		b.Fatal(table3Err)
	}
	return table3
}

// BenchmarkTable3Queries measures Q.1/Q.2/Q.3 per backend and reports
// ops/query plus wall time. The uncached variants reproduce Table 3's
// shape (S3 pays a full scan per query; SimpleDB a handful of indexed
// queries). The cached variants measure the query-performance subsystem on
// repeated queries over an unchanged repository: the first iteration may
// build the snapshot, every further iteration answers from it, so at any
// realistic b.N the amortized ops/query is ~0.
func BenchmarkTable3Queries(b *testing.B) {
	env := loadTable3(b)
	ctx := context.Background()
	const tool = "softmean"

	queries := []struct {
		name string
		run  func(q core.Querier) error
	}{
		{"Q1", func(q core.Querier) error { _, err := core.CollectBySubject(q.Query(ctx, prov.Q1())); return err }},
		{"Q2", func(q core.Querier) error {
			_, err := core.CollectRefs(q.Query(ctx, prov.QOutputsOf(tool)))
			return err
		}},
		{"Q3", func(q core.Querier) error {
			_, err := core.CollectRefs(q.Query(ctx, prov.QDescendantsOfOutputs(tool)))
			return err
		}},
	}
	for _, query := range queries {
		for _, backend := range []string{"S3", "SimpleDB"} {
			for _, trim := range []string{"uncached", "cached"} {
				be := env.backends[backend+"/"+trim]
				run := query.run
				b.Run(query.name+"/"+backend+"/"+trim, func(b *testing.B) {
					before := be.cloud.Usage().TotalOps()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(be.querier); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					ops := be.cloud.Usage().TotalOps() - before
					b.ReportMetric(float64(ops)/float64(b.N), "ops/query")
				})
			}
		}
	}
}

// BenchmarkRepeatedQueryAmortization isolates the repeat-query cost the
// snapshot cache is for: one primed backend, b.N identical queries, zero
// expected cloud ops per query (the priming scan is excluded).
func BenchmarkRepeatedQueryAmortization(b *testing.B) {
	env := loadTable3(b)
	ctx := context.Background()
	const tool = "softmean"
	for _, backend := range []string{"S3", "SimpleDB"} {
		be := env.backends[backend+"/cached"]
		b.Run(backend, func(b *testing.B) {
			if _, err := core.CollectRefs(be.querier.Query(ctx, prov.QOutputsOf(tool))); err != nil {
				b.Fatal(err) // prime the snapshot
			}
			before := be.cloud.Usage().TotalOps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.CollectRefs(be.querier.Query(ctx, prov.QOutputsOf(tool))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ops := be.cloud.Usage().TotalOps() - before
			b.ReportMetric(float64(ops)/float64(b.N), "ops/query")
		})
	}
}

// BenchmarkPutPath measures the per-object store cost of each architecture
// (the client-visible write latency the paper's future-work prototype was
// to measure).
func BenchmarkPutPath(b *testing.B) {
	ctx := context.Background()
	type mk func(cl *cloud.Cloud) (core.Store, error)
	archs := map[string]mk{
		"s3": func(cl *cloud.Cloud) (core.Store, error) {
			return s3only.New(s3only.Config{Cloud: cl})
		},
		"s3+sdb": func(cl *cloud.Cloud) (core.Store, error) {
			return s3sdb.New(s3sdb.Config{Cloud: cl})
		},
		"s3+sdb+sqs": func(cl *cloud.Cloud) (core.Store, error) {
			return s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl})
		},
	}
	data := []byte(strings.Repeat("x", 16<<10))
	event := func(i, j int) pass.FlushEvent {
		ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/bench/%d-%d", i, j)), Version: 0}
		return pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: data,
			Records: []prov.Record{
				prov.NewString(ref, prov.AttrType, prov.TypeFile),
				prov.NewString(ref, prov.AttrName, string(ref.Object)),
			}}
	}
	for _, name := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		mk := archs[name]
		b.Run(name, func(b *testing.B) {
			cl := cloud.New(cloud.Config{Seed: 1})
			st, err := mk(cl)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			before := cl.Usage().TotalOps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.Put(ctx, st, event(i, 0)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ops := cl.Usage().TotalOps() - before
			b.ReportMetric(float64(ops)/float64(b.N), "cloudops/event")
		})
	}

	// The batched path: one 25-event PutBatch per iteration — the shape a
	// close with 24 unpersisted ancestors produces. cloudops/event is the
	// number to compare against the single-event runs above: the indexed
	// architectures amortize their per-item SimpleDB calls 25:1.
	const batchSize = 25
	for _, name := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		mk := archs[name]
		b.Run(name+"/batch25", func(b *testing.B) {
			cl := cloud.New(cloud.Config{Seed: 1})
			st, err := mk(cl)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)) * batchSize)
			before := cl.Usage().TotalOps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([]pass.FlushEvent, batchSize)
				for j := range batch {
					batch[j] = event(i, j)
				}
				if err := st.PutBatch(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ops := cl.Usage().TotalOps() - before
			b.ReportMetric(float64(ops)/float64(b.N*batchSize), "cloudops/event")
		})
	}
}

// BenchmarkVerifiedRead measures the §4.2 read protocol (GET + item fetch +
// MD5 verification).
func BenchmarkVerifiedRead(b *testing.B) {
	ctx := context.Background()
	cl := cloud.New(cloud.Config{Seed: 1})
	st, err := s3sdb.New(s3sdb.Config{Cloud: cl})
	if err != nil {
		b.Fatal(err)
	}
	data := []byte(strings.Repeat("y", 64<<10))
	ref := prov.Ref{Object: "/bench/read", Version: 0}
	ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: data,
		Records: []prov.Record{prov.NewString(ref, prov.AttrType, prov.TypeFile)}}
	if err := core.Put(ctx, st, ev); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(ctx, "/bench/read"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALCommit measures the §4.3 commit path: one logged transaction
// drained end to end.
func BenchmarkWALCommit(b *testing.B) {
	ctx := context.Background()
	cl := cloud.New(cloud.Config{Seed: 1})
	st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl})
	if err != nil {
		b.Fatal(err)
	}
	daemon := s3sdbsqs.NewCommitDaemon(st, nil)
	data := []byte(strings.Repeat("z", 16<<10))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/wal/%d", i)), Version: 0}
		ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: data,
			Records: []prov.Record{prov.NewString(ref, prov.AttrType, prov.TypeFile)}}
		if err := core.Put(ctx, st, ev); err != nil {
			b.Fatal(err)
		}
		if _, err := daemon.RunOnce(ctx, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ----------------------------------------------------------------

// BenchmarkAblationNonceCost measures what the nonce adds to the
// consistency record computation (§4.2 argues the nonce is necessary; this
// shows it is also nearly free).
func BenchmarkAblationNonceCost(b *testing.B) {
	data := []byte(strings.Repeat("d", 256<<10))
	b.Run("md5-only", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sdbprov.ConsistencyMD5(data, "")
		}
	})
	b.Run("md5+nonce", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sdbprov.ConsistencyMD5(data, "42-abcd")
		}
	})
}

// BenchmarkAblationInlineWAL compares the paper's design — data in a
// temporary S3 object, a pointer on the WAL — against inlining the data
// into 8 KB SQS chunks ("We could split large objects into 8KB chunks and
// store them on the WAL log, but this is quite inefficient"). The total-ops
// metric is the one the paper's pricing model charges for.
func BenchmarkAblationInlineWAL(b *testing.B) {
	ctx := context.Background()
	data := []byte(strings.Repeat("w", 256<<10)) // 256 KB object -> 32 chunks inline

	b.Run("pointer", func(b *testing.B) {
		cl := cloud.New(cloud.Config{Seed: 1})
		st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl})
		if err != nil {
			b.Fatal(err)
		}
		daemon := s3sdbsqs.NewCommitDaemon(st, nil)
		sqsBefore := cl.Usage().Ops(billing.SQS)
		totalBefore := cl.Usage().TotalOps()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/p/%d", i)), Version: 0}
			ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: data,
				Records: []prov.Record{prov.NewString(ref, prov.AttrType, prov.TypeFile)}}
			if err := core.Put(ctx, st, ev); err != nil {
				b.Fatal(err)
			}
			if _, err := daemon.RunOnce(ctx, true); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(cl.Usage().Ops(billing.SQS)-sqsBefore)/float64(b.N), "sqsops/object")
		b.ReportMetric(float64(cl.Usage().TotalOps()-totalBefore)/float64(b.N), "totalops/object")
	})

	b.Run("inline", func(b *testing.B) {
		cl := cloud.New(cloud.Config{Seed: 1})
		if err := cl.SQS.CreateQueue("inline-wal"); err != nil {
			b.Fatal(err)
		}
		sqsBefore := cl.Usage().Ops(billing.SQS)
		totalBefore := cl.Usage().TotalOps()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Inline strategy: every 8 KB of the object is its own WAL
			// message, then every message is received and deleted.
			const chunk = 8 << 10
			sent := 0
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				if _, err := cl.SQS.SendMessage("inline-wal", string(data[off:end])); err != nil {
					b.Fatal(err)
				}
				sent++
			}
			got := 0
			for got < sent {
				msgs, err := cl.SQS.ReceiveMessage("inline-wal", 10, time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					if err := cl.SQS.DeleteMessage("inline-wal", m.ReceiptHandle); err != nil {
						b.Fatal(err)
					}
					got++
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(cl.Usage().Ops(billing.SQS)-sqsBefore)/float64(b.N), "sqsops/object")
		b.ReportMetric(float64(cl.Usage().TotalOps()-totalBefore)/float64(b.N), "totalops/object")
	})
}

// BenchmarkProvenanceEncodings compares the three wire encodings.
func BenchmarkProvenanceEncodings(b *testing.B) {
	subject := prov.Ref{Object: "/f", Version: 3}
	var records []prov.Record
	for i := 0; i < 24; i++ {
		records = append(records, prov.NewInput(subject, prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/dep%d", i))}))
	}
	records = append(records, prov.NewString(subject, prov.AttrEnv, strings.Repeat("e", 512)))

	b.Run("s3-metadata", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			meta := prov.EncodeS3Metadata(records)
			if _, err := prov.DecodeS3Metadata(subject, meta); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sdb-attrs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			attrs := prov.EncodeSDBAttrs(records)
			if _, err := prov.DecodeSDBAttrs(subject, attrs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wal-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chunks, err := prov.ChunkJSON(records, 8<<10)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range chunks {
				if _, err := prov.UnmarshalJSONRecords(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
