package traced

import (
	"context"
	"fmt"
	"strings"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// The simulated services, the ledger, the record codecs and the retrier
// are concrete types the benchmark cannot interpose on from outside, so
// their costs come from direct-call probes made after the workload, on the
// region the workload loaded and with inputs harvested from it (the
// record sets a member's audit returns).

// perCall times n calls of f and returns the mean.
func perCall(n int, f func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// probeIntegrity measures the ledger's commit cost at two sizes, the
// subject hash, and the audit verifier, on the audit's real record sets.
func probeIntegrity(a *integrity.Audit, out map[string]float64) {
	commit := func(size, commits int) time.Duration {
		l := integrity.NewLedger("probe")
		slots := make(map[string][]string, size)
		for i := 0; i < size; i++ {
			slots[fmt.Sprintf("slot%06d", i)] = []string{fmt.Sprintf("%064x", i)}
		}
		l.Commit(slots)
		// One slot per commit, as one close's batch does.
		d, _ := perCall(commits, func(i int) error {
			l.Commit(map[string][]string{fmt.Sprintf("new%06d", i): {fmt.Sprintf("%064x", size+i)}})
			return nil
		})
		return d
	}
	n1k, n16k := commit(1<<10, 256), commit(16<<10, 32)
	out["integrity.commit_us_n1k"] = ns(n1k) / 1e3
	out["integrity.commit_us_n16k"] = ns(n16k) / 1e3
	out["integrity.commit_growth"] = ns(n16k) / ns(n1k)

	records := 0
	start := time.Now()
	for ref, rs := range a.Entries {
		integrity.SubjectHash(ref, rs)
		records += len(rs)
	}
	out["integrity.subjecthash_ns_per_record"] = ns(time.Since(start)) / float64(max(records, 1))

	start = time.Now()
	integrity.VerifyAudit(a)
	out["integrity.verifyaudit_us_per_version"] = ns(time.Since(start)) / 1e3 / float64(max(len(a.Entries), 1))
}

// probeProv measures the record codecs on the audit's record sets.
func probeProv(a *integrity.Audit, out map[string]float64) {
	type set struct {
		ref     prov.Ref
		records []prov.Record
		meta    map[string]string
	}
	var sets []set
	records := 0
	for ref, rs := range a.Entries {
		sets = append(sets, set{ref: ref, records: rs})
		records += len(rs)
	}
	per := func(d time.Duration) float64 { return ns(d) / float64(max(records, 1)) }

	start := time.Now()
	for i := range sets {
		sets[i].meta = prov.EncodeS3Metadata(sets[i].records)
	}
	out["prov.encode_s3meta_ns_per_record"] = per(time.Since(start))

	start = time.Now()
	for i := range sets {
		// Decode errors (a record over the metadata value limit has no
		// inline form) cost the same walk; the timing is what is wanted.
		_, _ = prov.DecodeS3Metadata(sets[i].ref, sets[i].meta)
	}
	out["prov.decode_s3meta_ns_per_record"] = per(time.Since(start))

	start = time.Now()
	for i := range sets {
		prov.EncodeSDBAttrs(sets[i].records)
	}
	out["prov.encode_sdb_ns_per_record"] = per(time.Since(start))
}

// probeRetry measures what wrapping a call in Retrier.Do costs when
// nothing fails.
func probeRetry(ctx context.Context, cl *cloud.Cloud, out map[string]float64) {
	r := retry.New(retry.Policy{}, cl.Clock, sim.NewRNG(1))
	d, _ := perCall(1<<16, func(int) error {
		return r.Do(ctx, "probe", func() error { return nil })
	})
	out["retry.do_overhead_ns"] = ns(d)
}

// probeSim times each simulated service's calls on the loaded namespace.
func probeSim(cl *cloud.Cloud, out map[string]float64) error {
	const bucket, prefix, n = "pass", "zz-bench-probe/", 128
	body := make([]byte, 16<<10)
	meta := map[string]string{"probe": strings.Repeat("m", 1<<10)}
	key := func(i int) string { return fmt.Sprintf("%s%04d", prefix, i) }

	put, err := perCall(n, func(i int) error { return cl.S3.Put(bucket, key(i), body, meta) })
	if err != nil {
		return fmt.Errorf("s3 put probe: %w", err)
	}
	cl.Settle()
	head, err := perCall(n, func(i int) error { _, err := cl.S3.Head(bucket, key(i)); return err })
	if err != nil {
		return fmt.Errorf("s3 head probe: %w", err)
	}
	start := time.Now()
	infos, err := cl.S3.ListAll(bucket, prefix)
	if err != nil {
		return fmt.Errorf("s3 list probe: %w", err)
	}
	list := time.Since(start)
	out["sim.s3_put_us"] = ns(put) / 1e3
	out["sim.s3_head_us"] = ns(head) / 1e3
	out["sim.s3_list_us_per_key"] = ns(list) / 1e3 / float64(max(len(infos), 1))

	const domain, batches, perBatch = "benchprobe", 16, 25
	if err := cl.SDB.CreateDomain(domain); err != nil {
		return fmt.Errorf("sdb probe domain: %w", err)
	}
	batchPut, err := perCall(batches, func(b int) error {
		items := make([]sdb.BatchItem, perBatch)
		for i := range items {
			items[i].Name = fmt.Sprintf("probe_%02d_%02d", b, i)
			for a := 0; a < 8; a++ {
				items[i].Attrs = append(items[i].Attrs, sdb.ReplaceableAttr{Name: fmt.Sprintf("a%d", a), Value: fmt.Sprintf("value-%d-%d-%d", b, i, a)})
			}
		}
		return cl.SDB.BatchPutAttributes(domain, items)
	})
	if err != nil {
		return fmt.Errorf("sdb batch-put probe: %w", err)
	}
	cl.Settle()
	start, items := time.Now(), 0
	for token := ""; ; {
		page, err := cl.SDB.Select("select * from "+domain, token)
		if err != nil {
			return fmt.Errorf("sdb select probe: %w", err)
		}
		items += len(page.Items)
		if token = page.NextToken; token == "" {
			break
		}
	}
	sel := time.Since(start)
	out["sim.sdb_batchput_us_per_item"] = ns(batchPut) / 1e3 / perBatch
	out["sim.sdb_select_us_per_item"] = ns(sel) / 1e3 / float64(max(items, 1))

	const queue = "bench-probe"
	if err := cl.SQS.CreateQueue(queue); err != nil {
		return fmt.Errorf("sqs probe queue: %w", err)
	}
	msg := strings.Repeat("w", 1<<10)
	send, err := perCall(n, func(int) error { _, err := cl.SQS.SendMessage(queue, msg); return err })
	if err != nil {
		return fmt.Errorf("sqs send probe: %w", err)
	}
	cl.Settle()
	recv, err := perCall(n/10, func(int) error { _, err := cl.SQS.ReceiveMessage(queue, 10, 0); return err })
	if err != nil {
		return fmt.Errorf("sqs receive probe: %w", err)
	}
	out["sim.sqs_send_us"] = ns(send) / 1e3
	out["sim.sqs_receive_us"] = ns(recv) / 1e3
	return nil
}
