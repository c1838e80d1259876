package passcloud

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestRegionSharedBetweenClients(t *testing.T) {
	for _, arch := range allArchitectures {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			region, err := NewRegion(Options{Architecture: arch, Seed: 21})
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

			// Alice publishes a dataset and a derivation.
			if err := alice.Ingest(ctx, "/shared/base.dat", []byte("base")); err != nil {
				t.Fatal(err)
			}
			p := alice.Exec(nil, ProcessSpec{Name: "alice-tool"})
			if err := p.Read("/shared/base.dat"); err != nil {
				t.Fatal(err)
			}
			if err := p.Write("/shared/alice-out.dat", []byte("from alice")); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(ctx, "/shared/alice-out.dat"); err != nil {
				t.Fatal(err)
			}
			if err := alice.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			region.Settle()

			// Bob downloads Alice's object (with verified provenance) into
			// his local namespace and builds on it.
			obj, err := bob.Fetch(ctx, "/shared/alice-out.dat")
			if err != nil {
				t.Fatalf("bob cannot fetch alice's object: %v", err)
			}
			if string(obj.Data) != "from alice" {
				t.Fatalf("data = %q", obj.Data)
			}
			q := bob.Exec(nil, ProcessSpec{Name: "bob-tool"})
			if err := q.Read("/shared/alice-out.dat"); err != nil {
				t.Fatal(err)
			}
			if err := q.Write("/shared/bob-out.dat", []byte("from bob")); err != nil {
				t.Fatal(err)
			}
			if err := q.Close(ctx, "/shared/bob-out.dat"); err != nil {
				t.Fatal(err)
			}
			if err := bob.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			region.Settle()

			// Cross-client lineage: bob's output descends from alice's tool.
			desc, err := alice.searchRefs(ctx, descendantsSpec("alice-tool"))
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range desc {
				if d.Object == "/shared/bob-out.dat" {
					found = true
				}
			}
			if !found {
				t.Fatalf("cross-client descendants missing bob's output: %v", desc)
			}
		})
	}
}

func TestRegionConcurrentClientsDistinctObjects(t *testing.T) {
	// The paper's usage model: "multiple clients can concurrently update
	// different objects at the same time."
	region, err := NewRegion(Options{Architecture: S3SimpleDBSQS, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c, err := region.NewClient(fmt.Sprintf("worker%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			p := c.Exec(nil, ProcessSpec{Name: fmt.Sprintf("job%d", i)})
			for f := 0; f < 5; f++ {
				path := fmt.Sprintf("/w%d/out%d.dat", i, f)
				if err := p.Write(path, []byte(fmt.Sprintf("payload %d/%d", i, f))); err != nil {
					errs <- err
					return
				}
				if err := p.Close(ctx, path); err != nil {
					errs <- err
					return
				}
			}
			if err := c.Sync(ctx); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}(i, c)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	region.Settle()

	// Every object landed, readable from any client.
	probe, err := region.NewClient("probe")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		for f := 0; f < 5; f++ {
			path := fmt.Sprintf("/w%d/out%d.dat", i, f)
			obj, err := probe.Get(ctx, path)
			if err != nil {
				t.Fatalf("get %s: %v", path, err)
			}
			if string(obj.Data) != fmt.Sprintf("payload %d/%d", i, f) {
				t.Fatalf("%s data = %q", path, obj.Data)
			}
		}
	}
	if u := region.Usage(); u.SQSOps == 0 {
		t.Fatal("region usage not aggregated")
	}
}

func TestRegionRejectsUnknownArchitecture(t *testing.T) {
	if _, err := NewRegion(Options{Architecture: Architecture(42)}); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}

func TestSafeDeleteRefusesWithDependents(t *testing.T) {
	for _, arch := range allArchitectures {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			c, err := New(Options{Architecture: arch, Seed: 55})
			if err != nil {
				t.Fatal(err)
			}
			runPipeline(t, c) // census -> trends.dat -> trends.png

			// The source has derivations: deletion must be refused.
			err = c.SafeDelete(ctx, "/census/data.csv")
			var hasDeps *ErrHasDependents
			if !errors.As(err, &hasDeps) {
				t.Fatalf("SafeDelete = %v, want ErrHasDependents", err)
			}
			if hasDeps.Object != "/census/data.csv" || len(hasDeps.Dependents) == 0 {
				t.Fatalf("dependents detail: %+v", hasDeps)
			}
			// The data is still there.
			if _, err := c.Get(ctx, "/census/data.csv"); err != nil {
				t.Fatalf("refused delete still removed data: %v", err)
			}

			// The leaf has no derivations: deletion proceeds.
			if err := c.SafeDelete(ctx, "/results/trends.png"); err != nil {
				t.Fatalf("leaf SafeDelete: %v", err)
			}
			c.Settle()
			if _, err := c.Get(ctx, "/results/trends.png"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("leaf still present after SafeDelete: %v", err)
			}
			// Its provenance survives as history.
			if _, err := c.Provenance(ctx, Ref{Object: "/results/trends.png", Version: 0}); err != nil && arch != S3Only {
				t.Fatalf("provenance history lost: %v", err)
			}
		})
	}
}

// TestDependentsSurviveOverwrite: overwriting an object must not erase the
// deletion guard for its earlier versions. On S3-only the overwrite
// replaces the object's per-version metadata, so version 0 survives in the
// scan-built graph only as its consumers' input edges — the descendants
// query must still seed it, matching the SimpleDB architectures' native
// starts-with-on-input semantics.
func TestDependentsSurviveOverwrite(t *testing.T) {
	for _, arch := range allArchitectures {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			c, err := New(Options{Architecture: arch, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			runPipeline(t, c) // census:0 -> analyze -> trends.dat -> plot -> trends.png

			// A second (truncating) write supersedes /census/data.csv.
			w := c.Exec(nil, ProcessSpec{Name: "rewrite"})
			if err := w.Write("/census/data.csv", []byte("census-2010-data")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(ctx, "/census/data.csv"); err != nil {
				t.Fatal(err)
			}
			w.Exit()
			if err := c.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			c.Settle()

			deps, err := c.searchRefs(ctx, dependentsSpec("/census/data.csv"))
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range deps {
				if d.Object == "proc/1/analyze" {
					found = true
				}
			}
			if !found {
				t.Fatalf("Dependents after overwrite = %v, want the analyze process that consumed version 0", deps)
			}

			// The deletion guard must therefore still refuse.
			var hasDeps *ErrHasDependents
			if err := c.SafeDelete(ctx, "/census/data.csv"); !errors.As(err, &hasDeps) {
				t.Fatalf("SafeDelete after overwrite = %v, want ErrHasDependents", err)
			}
		})
	}
}

func TestDependentsListsDirectConsumers(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDB, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	runPipeline(t, c)
	deps, err := c.searchRefs(ctx, dependentsSpec("/results/trends.dat"))
	if err != nil {
		t.Fatal(err)
	}
	// Direct consumers: the plot process (the png depends on the process,
	// not the file directly).
	if len(deps) != 1 || deps[0].Object != "proc/2/plot" {
		t.Fatalf("Dependents = %v", deps)
	}
}
