package workload

import (
	"context"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// tally summarizes a flush stream the way the paper's Table 2 does.
type tally struct {
	files      int
	transients int
	dataBytes  int64
	records    int
	provS3     int64 // provenance in S3-metadata form
	big        int   // records with values > 1 KB
	graph      *prov.Graph
	flushed    map[prov.Ref]bool
	violation  bool
}

// named returns the subjects whose name is name, sorted — the reference
// evaluator's answer.
func (c *tally) named(name string) []prov.Ref {
	return core.EvalQueryRefs(c.graph, prov.Query{Attrs: []prov.AttrFilter{{Attr: prov.AttrName, Value: name}}})
}

// ancestors returns every ref ref's lineage reaches, sorted.
func (c *tally) ancestors(ref prov.Ref) []prov.Ref {
	return core.EvalQueryRefs(c.graph, prov.QAncestors(ref))
}

func newTally() *tally {
	return &tally{graph: prov.NewGraph(), flushed: make(map[prov.Ref]bool)}
}

func (c *tally) flush(_ context.Context, batch []pass.FlushEvent) error {
	for _, ev := range batch {
		c.flushOne(ev)
	}
	return nil
}

func (c *tally) flushOne(ev pass.FlushEvent) {
	if ev.Persistent() {
		c.files++
		c.dataBytes += int64(len(ev.Data))
	} else {
		c.transients++
	}
	for _, r := range ev.Records {
		c.records++
		if r.Value.Size() > 1024 {
			c.big++
		}
		if r.Attr == prov.AttrInput && !c.flushed[r.Value.Ref] {
			c.violation = true
		}
	}
	c.provS3 += int64(prov.S3MetadataSize(prov.EncodeS3Metadata(ev.Records)))
	c.flushed[ev.Ref] = true
	c.graph.AddAll(ev.Records)
}

func runWorkload(t *testing.T, w Workload, seed int64) (*tally, *pass.System) {
	t.Helper()
	c := newTally()
	sys := pass.NewSystem(pass.Config{Flush: c.flush})
	if err := Run(context.Background(), sys, sim.NewRNG(seed), w); err != nil {
		t.Fatalf("run %s: %v", w.Name(), err)
	}
	return c, sys
}

func TestLinuxCompileShape(t *testing.T) {
	w := DefaultLinuxCompile(0.02) // 64 sources
	c, _ := runWorkload(t, w, 1)
	if c.files == 0 || c.transients == 0 {
		t.Fatalf("empty run: %+v", c)
	}
	// Every object file depends on its cc, which depends on source+headers.
	objs := c.named("/usr/src/linux/obj/f00000.o")
	if len(objs) != 1 {
		t.Fatalf("object file provenance missing: %v", objs)
	}
	anc := c.ancestors(objs[0])
	if len(anc) < w.HeaderFanIn {
		t.Fatalf("object ancestry too shallow: %d", len(anc))
	}
	// The image descends from every object file.
	images := c.named("/usr/src/linux/vmlinux")
	if len(images) != 1 {
		t.Fatal("vmlinux provenance missing")
	}
	if got := len(c.ancestors(images[0])); got < 64 {
		t.Fatalf("vmlinux ancestry = %d, want >= sources", got)
	}
	if c.violation {
		t.Fatal("causal ordering violated")
	}
	if !c.graph.IsAcyclic() {
		t.Fatal("cyclic provenance")
	}
}

func TestBlastShape(t *testing.T) {
	w := DefaultBlast(0.004) // 2 jobs
	w.BatchesPerJob = 6
	c, _ := runWorkload(t, w, 2)
	// Pipeline churn: transient versions must dominate file versions.
	if c.transients <= c.files {
		t.Fatalf("blast transients (%d) must exceed files (%d)", c.transients, c.files)
	}
	// blastall versions chain: the out file's ancestry reaches the fasta db.
	outs := c.named("/blast/results/job0000.out")
	if len(outs) == 0 {
		t.Fatal("job output provenance missing")
	}
	anc := c.ancestors(outs[len(outs)-1])
	foundDB := false
	for _, a := range anc {
		if a.Object == "/blast/db/nr.fasta" {
			foundDB = true
		}
	}
	if !foundDB {
		t.Fatalf("output ancestry (%d refs) does not reach the database", len(anc))
	}
	if c.violation || !c.graph.IsAcyclic() {
		t.Fatal("invariant violated")
	}
}

func TestProvChallengeShape(t *testing.T) {
	w := DefaultProvChallenge(0.0125) // 1 run
	c, _ := runWorkload(t, w, 3)
	// Stage counts: 4 align_warp + 4 reslice + 1 softmean + 3 slicer +
	// 3 convert = 15 processes.
	if got := len(c.named("align_warp")); got != 4 {
		t.Fatalf("align_warp processes = %d", got)
	}
	if got := len(c.named("softmean")); got != 1 {
		t.Fatalf("softmean processes = %d", got)
	}
	// The gif descends from every anatomy image (the diamond).
	gifs := c.named("/fmri/run0000/atlas_x.gif")
	if len(gifs) != 1 {
		t.Fatal("gif provenance missing")
	}
	anc := c.ancestors(gifs[0])
	images := 0
	for _, a := range anc {
		if len(a.Object) > 7 && a.Object[len(a.Object)-4:] == ".img" {
			images++
		}
	}
	if images < 9 { // 4 anatomy + 4 resliced + atlas (reference may appear too)
		t.Fatalf("gif ancestry has %d images, want >= 9", images)
	}
	if c.violation || !c.graph.IsAcyclic() {
		t.Fatal("invariant violated")
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	w1 := DefaultProvChallenge(0.0125)
	c1, _ := runWorkload(t, w1, 42)
	w2 := DefaultProvChallenge(0.0125)
	c2, _ := runWorkload(t, w2, 42)
	if c1.files != c2.files || c1.records != c2.records || c1.dataBytes != c2.dataBytes {
		t.Fatalf("same seed diverged: %+v vs %+v", c1, c2)
	}
	c3, _ := runWorkload(t, DefaultProvChallenge(0.0125), 43)
	if c1.dataBytes == c3.dataBytes {
		t.Fatal("different seeds produced identical byte counts")
	}
}

// TestCombinedCalibration runs the paper profile at 1/50 scale and logs the
// Table 2 drivers. The assertions pin the calibrated shape: provenance
// overhead near 9.3%, roughly 0.8 >1 KB records per stored object, and a
// SimpleDB item count several times the object count.
func TestCombinedCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	c, _ := runWorkload(t, NewCombined(0.02), 2009)

	items := c.files + c.transients
	overhead := float64(c.provS3) / float64(c.dataBytes)
	bigPerFile := float64(c.big) / float64(c.files)
	itemsPerFile := float64(items) / float64(c.files)

	t.Logf("files=%d transients=%d items=%d", c.files, c.transients, items)
	t.Logf("data=%.1fMB provS3=%.1fMB overhead=%.1f%%",
		float64(c.dataBytes)/(1<<20), float64(c.provS3)/(1<<20), overhead*100)
	t.Logf("records=%d big=%d bigPerFile=%.2f itemsPerFile=%.2f",
		c.records, c.big, bigPerFile, itemsPerFile)

	if overhead < 0.05 || overhead > 0.20 {
		t.Errorf("provenance overhead %.1f%% outside 5–20%% (paper: 9.3%%)", overhead*100)
	}
	if bigPerFile < 0.4 || bigPerFile > 1.6 {
		t.Errorf("big records per object %.2f outside 0.4–1.6 (paper: 0.8)", bigPerFile)
	}
	if itemsPerFile < 2.5 || itemsPerFile > 7 {
		t.Errorf("items per object %.2f outside 2.5–7 (paper: 4.6)", itemsPerFile)
	}
	if c.violation || !c.graph.IsAcyclic() {
		t.Error("invariant violated")
	}
}
