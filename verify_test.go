package passcloud

import (
	"errors"
	"fmt"
	"testing"
)

// TestVerifyCleanAfterPipeline: a healthy run must verify with zero
// divergences on every architecture, unsharded and sharded, and
// VerifyLineage must see every stored version of a chained object.
func TestVerifyCleanAfterPipeline(t *testing.T) {
	for _, arch := range allArchitectures {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", arch, shards), func(t *testing.T) {
				c, err := New(Options{Architecture: arch, Seed: 42, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				runPipeline(t, c)

				rep, err := c.VerifyAll(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					for _, d := range rep.Divergences() {
						t.Errorf("healthy run flagged: %s", d)
					}
				}
				if rep.NamespaceRoot == "" {
					t.Error("namespace root is empty")
				}
				want := max(shards, 1)
				if len(rep.Shards) != want {
					t.Errorf("verified %d shards, want %d", len(rep.Shards), want)
				}

				lin, err := c.VerifyLineage(ctx, "/results/trends.dat")
				if err != nil {
					t.Fatal(err)
				}
				if !lin.Clean() {
					t.Errorf("lineage divergences: %v", lin.Divergences)
				}
				if lin.Versions == 0 {
					t.Error("lineage saw zero stored versions")
				}

				if _, err := c.VerifyLineage(ctx, "/no/such/file"); !errors.Is(err, ErrNotFound) {
					t.Errorf("missing object: got %v, want ErrNotFound", err)
				}
			})
		}
	}
}

// TestVerifyCleanWithSeparatorInClientID: the checkpoint token joins its
// fields on '|', so a client label containing one used to yield riders no
// store could parse back — a healthy store then reported
// checkpoint-missing. The label must survive the round trip instead.
func TestVerifyCleanWithSeparatorInClientID(t *testing.T) {
	for _, arch := range allArchitectures {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", arch, shards), func(t *testing.T) {
				c, err := New(Options{Architecture: arch, Seed: 42, Shards: shards, ClientID: "lab|alice%7C"})
				if err != nil {
					t.Fatal(err)
				}
				runPipeline(t, c)
				rep, err := c.VerifyAll(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range rep.Divergences() {
					t.Errorf("healthy run flagged: %s", d)
				}
				for _, sr := range rep.Shards {
					if sr.Subjects > 0 && sr.CheckpointRoot != sr.Root {
						t.Errorf("shard %d: checkpoint root %q was not compared against derived root %q", sr.Shard, sr.CheckpointRoot, sr.Root)
					}
				}
			})
		}
	}
}

// TestIntegrityOpCountParity: the tamper-evidence subsystem rides writes
// the architectures already issue — chain records travel inside flushed
// record sets and checkpoints ride as metadata/attributes on those same
// calls — so an identical workload must issue an identical number of
// cloud operations per service with integrity on and off. This is the
// zero-overhead claim in testable form.
func TestIntegrityOpCountParity(t *testing.T) {
	for _, arch := range allArchitectures {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", arch, shards), func(t *testing.T) {
				run := func(disable bool) UsageSummary {
					c, err := New(Options{Architecture: arch, Seed: 42, Shards: shards, DisableIntegrity: disable})
					if err != nil {
						t.Fatal(err)
					}
					runPipeline(t, c)
					return c.Usage()
				}
				on, off := run(false), run(true)
				if on.S3Ops != off.S3Ops {
					t.Errorf("S3 ops: %d with integrity, %d without", on.S3Ops, off.S3Ops)
				}
				if on.SimpleDBOps != off.SimpleDBOps {
					t.Errorf("SimpleDB ops: %d with integrity, %d without", on.SimpleDBOps, off.SimpleDBOps)
				}
				if on.SQSOps != off.SQSOps {
					t.Errorf("SQS ops: %d with integrity, %d without", on.SQSOps, off.SQSOps)
				}
			})
		}
	}
}

// TestVerifyReportsDisabledIntegrity: with the subsystem off, stored
// record sets carry no chain records, and verification says so rather
// than reporting a clean bill it cannot certify.
func TestVerifyReportsDisabledIntegrity(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDB, Seed: 42, DisableIntegrity: true})
	if err != nil {
		t.Fatal(err)
	}
	runPipeline(t, c)
	rep, err := c.VerifyAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("integrity-disabled store verified clean; chain-missing findings expected")
	}
	for _, d := range rep.Divergences() {
		if d.Kind != "chain-missing" && d.Kind != "checkpoint-missing" {
			t.Errorf("unexpected divergence kind %q: %s", d.Kind, d)
		}
	}
}
