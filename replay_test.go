package passcloud

import (
	"fmt"
	"testing"

	"passcloud/internal/replay"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// TestReplayCleanWorkloads is the reproducibility half of the replay
// oracle: every seeded workload, replayed on a fresh sandbox tenant, must
// re-derive byte-identical content for every current file version — on
// all three architectures, single-store and sharded. A divergence here
// means the capture path recorded provenance that does not explain the
// stored bytes.
func TestReplayCleanWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cross-architecture replay")
	}
	const seed, scale = 42, 0.01
	for _, arch := range allArchitectures {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", arch, shards), func(t *testing.T) {
				c, err := New(Options{Architecture: arch, Seed: seed, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if err := workload.Run(ctx, c.sys, sim.NewRNG(seed), workload.NewCombined(scale)); err != nil {
					t.Fatal(err)
				}
				if err := c.Sync(ctx); err != nil {
					t.Fatal(err)
				}
				rep, err := c.ReplayAll(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Compared == 0 {
					t.Fatal("replay compared nothing; extraction is broken")
				}
				if rep.Subjects == 0 || rep.Processes == 0 || rep.Sources == 0 {
					t.Fatalf("implausible replay coverage: %+v", rep)
				}
				// Seeded workloads leave every file at its only version, so
				// every extracted file — derived or ingested — must be
				// diffed; anything less means the audit silently skipped
				// subjects.
				if rep.Compared != rep.Subjects+rep.Sources {
					t.Fatalf("compared %d of %d file versions", rep.Compared, rep.Subjects+rep.Sources)
				}
				if !rep.Clean() {
					for i, d := range rep.Divergences {
						if i >= 10 {
							t.Errorf("... and %d more", len(rep.Divergences)-10)
							break
						}
						t.Errorf("divergence: %s", d)
					}
					t.Fatalf("replay of a faithful capture diverged (%d findings)", len(rep.Divergences))
				}
				if rep.Usage.USD <= 0 {
					t.Fatal("replay sandbox metered no cost")
				}
			})
		}
	}
}

// TestReplaySingleTarget replays one object's lineage only and checks the
// extraction stays scoped to its ancestry.
func TestReplaySingleTarget(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDB, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(ctx, c.sys, sim.NewRNG(7), workload.DefaultProvChallenge(0.01)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	full, err := c.ReplayAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	one, err := c.Replay(ctx, "/fmri/run0000/atlas.img")
	if err != nil {
		t.Fatal(err)
	}
	if !one.Clean() {
		t.Fatalf("single-target replay diverged: %v", one.Divergences)
	}
	// The target's ancestry includes other current versions (warps,
	// resliced images); they are compared too, but the scope must stay a
	// proper subset of the full audit.
	if one.Compared == 0 || one.Compared >= full.Compared {
		t.Fatalf("single-target replay compared %d versions, full replay %d; want a proper ancestry subset", one.Compared, full.Compared)
	}
	if one.Processes == 0 || one.Processes >= full.Processes {
		t.Fatalf("single-target replay re-executed %d processes, full replay %d; want a proper ancestry subset", one.Processes, full.Processes)
	}
}

// TestReplayEnvDrift replays records captured under one kernel in an
// environment configured with another: every process version must report
// env-drift — and nothing else, since the record-derived content is
// unaffected by where it is re-derived.
func TestReplayEnvDrift(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDB, Seed: 3, Kernel: "2.6.23.17-pass"})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(ctx, c.sys, sim.NewRNG(3), workload.DefaultProvChallenge(0.01)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	q := c.b.Store
	obj, err := c.b.Store.Get(ctx, "/fmri/run0000/atlas.img")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Replay(ctx, replay.Config{
		Source: q,
		Fetch:  c.b.Store.Get,
		Runner: workload.Tools{},
		Kernel: "6.1.0-generic",
	}, obj.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) == 0 {
		t.Fatal("kernel drift went undetected")
	}
	drifted := 0
	for _, d := range rep.Divergences {
		if d.Kind != replay.KindEnvDrift {
			t.Fatalf("unexpected %s divergence under pure kernel drift: %s", d.Kind, d)
		}
		drifted++
	}
	if drifted != rep.Processes {
		t.Fatalf("%d env-drift findings for %d re-executed processes; drift must be reported once per process version", drifted, rep.Processes)
	}
}

// TestReplayUnrunnableTool checks that a writer outside the runner's
// registry is reported as unrunnable-tool rather than silently skipped or
// falsely diffed.
func TestReplayUnrunnableTool(t *testing.T) {
	c, err := New(Options{Architecture: S3Only, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, "/in/data.txt", []byte("opaque input")); err != nil {
		t.Fatal(err)
	}
	p := c.Exec(nil, ProcessSpec{Name: "mystery", Argv: []string{"mystery", "/in/data.txt"}})
	if err := p.Read("/in/data.txt"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write("/out/result.bin", []byte("bytes no registry derives")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(ctx, "/out/result.bin"); err != nil {
		t.Fatal(err)
	}
	p.Exit()
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Replay(ctx, "/out/result.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 1 {
		t.Fatalf("got %d divergences, want exactly 1: %v", len(rep.Divergences), rep.Divergences)
	}
	d := rep.Divergences[0]
	if d.Kind != replay.KindUnrunnableTool.String() || d.Subject.Object != "/out/result.bin" {
		t.Fatalf("got %s, want unrunnable-tool on /out/result.bin", d)
	}
}

// TestReplayWriteDerived closes the public-API loop: a process writing
// through WriteDerived produces content that Replay re-derives cleanly.
func TestReplayWriteDerived(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDBSQS, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, "/data/anatomy.img", []byte("scanned anatomy volume")); err != nil {
		t.Fatal(err)
	}
	p := c.Exec(nil, ProcessSpec{
		Name: "align_warp",
		Argv: []string{"align_warp", "/data/anatomy.img", "-m", "12"},
		Env:  "PATH=/usr/bin",
	})
	if err := p.Read("/data/anatomy.img"); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteDerived("/out/warp.warp"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(ctx, "/out/warp.warp"); err != nil {
		t.Fatal(err)
	}
	p.Exit()
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Replay(ctx, "/out/warp.warp")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("WriteDerived content diverged on replay: %v", rep.Divergences)
	}
	if rep.Compared == 0 || rep.Subjects != 1 || rep.Sources != 1 {
		t.Fatalf("unexpected coverage: %+v", rep)
	}
}
