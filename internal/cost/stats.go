// Package cost reproduces the paper's evaluation (§5): Table 2 (storage
// cost comparison) and Table 3 (query cost comparison), plus the USD pricing
// commentary.
//
// Two independent methods are provided, mirroring how the paper worked:
//
//   - the analytical estimator (Estimate) implements the paper's §5
//     formulas over dataset statistics, which can be collected at any scale
//     — including full paper scale — without running a cloud;
//   - the measured harness (Harness) actually pushes the workload through
//     each architecture against the simulated AWS and reads the billing
//     meters.
//
// passbench prints both (-table 2 -estimate); the README's "Query
// performance" section carries the measured Table 3.
package cost

import (
	"context"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// DatasetStats are the §5 quantities a dataset induces. All byte figures
// follow the paper's encodings.
type DatasetStats struct {
	// Objects is the number of stored S3 objects (file versions):
	// N(S3objects). The paper's "Raw ops" column.
	Objects int64
	// DataBytes is the raw data volume (the paper's 1.27 GB).
	DataBytes int64
	// Records is the total provenance record count.
	Records int64
	// ProvS3Bytes is the provenance size in S3 metadata form — what the
	// first architecture stores and what one WAL pass carries (S_SQS).
	ProvS3Bytes int64
	// ProvSDBBytes is the provenance size in SimpleDB form: item names,
	// attribute names and values, plus Amazon's 45-byte per-item overhead.
	ProvSDBBytes int64
	// Items is the number of SimpleDB items: one per object version,
	// transient objects included. N(SimpleDBitems).
	Items int64
	// BigRecords counts records whose value exceeds 1 KB:
	// N(provrecs>1KB).
	BigRecords int64
	// Transients is the number of transient (process/pipe) versions.
	Transients int64
}

// Collector accumulates DatasetStats from a PASS flush stream. Wire Flush
// as (or alongside) the system's flush function.
type Collector struct {
	Stats DatasetStats
}

// Flush implements pass.FlushFunc.
func (c *Collector) Flush(_ context.Context, batch []pass.FlushEvent) error {
	for _, ev := range batch {
		c.flushOne(ev)
	}
	return nil
}

func (c *Collector) flushOne(ev pass.FlushEvent) {
	if ev.Persistent() {
		c.Stats.Objects++
		c.Stats.DataBytes += int64(len(ev.Data))
	} else {
		c.Stats.Transients++
	}
	c.Stats.Items++

	itemName := prov.EncodeItemName(ev.Ref)
	c.Stats.ProvSDBBytes += int64(len(itemName)) + 45
	for _, r := range ev.Records {
		c.Stats.Records++
		size := int64(r.Size())
		// S3 metadata form: key ("p-NN") + attr + separator + value.
		c.Stats.ProvS3Bytes += size + 5
		// SimpleDB form: attribute name + value.
		c.Stats.ProvSDBBytes += size
		if r.Value.Size() > core.OverflowThreshold {
			c.Stats.BigRecords++
		}
	}
}

// Tee builds a flush function that feeds both the collector and next.
func (c *Collector) Tee(next pass.FlushFunc) pass.FlushFunc {
	return func(ctx context.Context, batch []pass.FlushEvent) error {
		if err := c.Flush(ctx, batch); err != nil {
			return err
		}
		if next == nil {
			return nil
		}
		return next(ctx, batch)
	}
}

// walChunkSize is the SQS message budget used by the §5 formula
// (provsize / 8KB).
const walChunkSize = 8 << 10

// Estimate applies the paper's §5 analytical formulas to dataset stats,
// producing the three provenance columns of Table 2.
func Estimate(st DatasetStats) *Table2 {
	t := &Table2{
		RawBytes: st.DataBytes,
		RawOps:   st.Objects,
	}

	// Architecture 1: provenance rides the data PUTs; the only extra ops
	// are the >1 KB records stored as separate objects ("There are 24,952
	// such records that result in an equal number of additional PUT
	// operations").
	t.Rows = append(t.Rows, Table2Row{
		Arch:      "s3",
		ProvBytes: st.ProvS3Bytes,
		ProvOps:   st.BigRecords,
	})

	// Architecture 2: N(SimpleDBitems) + N(provrecs>1KB).
	t.Rows = append(t.Rows, Table2Row{
		Arch:      "s3+sdb",
		ProvBytes: st.ProvSDBBytes,
		ProvOps:   st.Items + st.BigRecords,
	})

	// Architecture 3: storage 2·S_SQS + S_SimpleDB; ops
	// 2·[N(S3objects) + provsize/8KB] + N(SimpleDBitems) + N(provrecs>1KB).
	sqsBytes := st.ProvS3Bytes
	t.Rows = append(t.Rows, Table2Row{
		Arch:      "s3+sdb+sqs",
		ProvBytes: 2*sqsBytes + st.ProvSDBBytes,
		ProvOps:   2*(st.Objects+sqsBytes/walChunkSize) + st.Items + st.BigRecords,
	})
	return t
}

// Scale linearly extrapolates stats gathered at `from` scale to scale 1.0.
// Only counts and byte totals scale; ratios are preserved by construction.
func (st DatasetStats) Scale(from float64) DatasetStats {
	if from <= 0 || from == 1 {
		return st
	}
	f := 1 / from
	scale := func(v int64) int64 { return int64(float64(v) * f) }
	return DatasetStats{
		Objects:      scale(st.Objects),
		DataBytes:    scale(st.DataBytes),
		Records:      scale(st.Records),
		ProvS3Bytes:  scale(st.ProvS3Bytes),
		ProvSDBBytes: scale(st.ProvSDBBytes),
		Items:        scale(st.Items),
		BigRecords:   scale(st.BigRecords),
		Transients:   scale(st.Transients),
	}
}
