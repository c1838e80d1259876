package trace

import "testing"

// build generates one trace holding all three shapes.
func build(seed uint64) *Trace {
	b := NewBuilder(seed, 0, "/c0")
	b.Compile(CompileConfig{Units: 12, Sources: 6, Headers: 20, HeaderFanIn: 5, SourceSize: 2 << 10, ObjectSize: 4 << 10})
	b.Challenge(ChallengeConfig{Runs: 2, ImageSize: 4 << 10})
	b.Blast(BlastConfig{Jobs: 3, BatchesPerJob: 2, BatchPool: 8, DatabaseSize: 64 << 10, BatchSize: 1 << 10, ResultSize: 2 << 10})
	return b.Trace()
}

func TestSameSeedSameTrace(t *testing.T) {
	a, b := build(7), build(7)
	if a.Digest() != b.Digest() {
		t.Fatalf("seed 7 generated two different traces: %s vs %s", a.Digest(), b.Digest())
	}
	if a.UserBytes != b.UserBytes || a.Procs != b.Procs {
		t.Fatalf("seed 7 summaries differ: %d/%d bytes, %d/%d procs", a.UserBytes, b.UserBytes, a.Procs, b.Procs)
	}
}

func TestDifferentSeedDifferentTrace(t *testing.T) {
	if a, b := build(7), build(8); a.Digest() == b.Digest() {
		t.Fatal("seeds 7 and 8 generated the same trace")
	}
	a := NewBuilder(7, 0, "/c")
	a.Challenge(ChallengeConfig{Runs: 1, ImageSize: 1 << 10})
	b := NewBuilder(7, 1, "/c")
	b.Challenge(ChallengeConfig{Runs: 1, ImageSize: 1 << 10})
	if a.Trace().Digest() == b.Trace().Digest() {
		t.Fatal("streams 0 and 1 of one seed generated the same trace")
	}
}

// TestSeedReachesEveryChoice checks each kind of random draw on its own:
// two seeds must disagree on environments, ingested payloads, appended
// payloads, which source a cc compiles, which headers it reads and which
// batch a cat streams — while the seed-independent structure (op kinds,
// Close order) stays identical, which is what keeps counts comparable
// across seeds.
func TestSeedReachesEveryChoice(t *testing.T) {
	a, b := build(1), build(2)
	if len(a.Ops) != len(b.Ops) || len(a.Setup) != len(b.Setup) {
		t.Fatalf("trace length depends on the seed: %d/%d ops, %d/%d set-up ops", len(a.Ops), len(b.Ops), len(a.Setup), len(b.Setup))
	}
	differs := map[string]bool{}
	for i := range a.Setup {
		if string(a.Setup[i].Data) != string(b.Setup[i].Data) {
			differs["ingest payload"] = true
		}
	}
	for i := range a.Ops {
		x, y := &a.Ops[i], &b.Ops[i]
		if x.Kind != y.Kind {
			t.Fatalf("op %d: kind depends on the seed (%s vs %s)", i, x.Kind, y.Kind)
		}
		switch x.Kind {
		case Exec:
			if x.Env != y.Env {
				differs["env"] = true
			}
			if x.Name == "cc" && x.Argv[3] != y.Argv[3] {
				differs["source choice"] = true
			}
			if x.Name == "cat" && x.Argv[1] != y.Argv[1] {
				differs["batch choice"] = true
			}
		case Read:
			if x.Path != y.Path {
				differs["read choice"] = true
			}
		case Append:
			if string(x.Data) != string(y.Data) {
				differs["append payload"] = true
			}
		case Close:
			if x.Path != y.Path {
				t.Fatalf("op %d: closed path depends on the seed (%s vs %s)", i, x.Path, y.Path)
			}
		}
	}
	for _, what := range []string{"env", "ingest payload", "append payload", "source choice", "batch choice", "read choice"} {
		if !differs[what] {
			t.Errorf("%s is the same under seeds 1 and 2", what)
		}
	}
}

func TestShapeCounts(t *testing.T) {
	tr := build(3)
	// 12 compile units, 2 challenge runs of 20 closes, formatdb's 3 index
	// files and 3 blast jobs.
	if want := 12 + 2*20 + 3 + 3*BlastCloses; tr.Closes() != want {
		t.Fatalf("trace has %d closes, want %d", tr.Closes(), want)
	}
	if len(tr.Runs) != 2 || len(tr.Runs[0].Graphics) != 3 {
		t.Fatalf("challenge runs = %+v", tr.Runs)
	}
	// Every process an op names was started by an earlier Exec.
	started := make([]bool, tr.Procs)
	for i, op := range tr.Ops {
		switch op.Kind {
		case Exec:
			started[op.Proc] = true
			if op.Peer >= 0 && !started[op.Peer] {
				t.Fatalf("op %d: exec under unstarted parent %d", i, op.Peer)
			}
		case Ingest:
		default:
			if !started[op.Proc] || (op.Kind == PipeTo && !started[op.Peer]) {
				t.Fatalf("op %d (%s): process not started", i, op.Kind)
			}
		}
	}
}
