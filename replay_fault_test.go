package passcloud

// The randomized replay-divergence oracle: capture bugs injected through
// raw cloud access — below the store APIs, the way a buggy capture layer
// would misrecord — must each surface as a replay divergence on exactly
// the affected subjects, and a faithful capture must replay with zero
// findings. Four bug shapes per run, disjoint victims:
//
//   - mutate-argv rewrites a recorded process argument vector, so the
//     writer's re-execution derives different bytes (digest-mismatch on
//     the file it wrote);
//   - drop-input deletes one recorded input edge from a multi-input file,
//     so the rebuild misses that writer's chunk (digest-mismatch);
//   - swap-pin repoints an input edge at a different existing process
//     version, so the rebuild runs the wrong recorded call
//     (digest-mismatch);
//   - bogus-pin repoints an input edge at a version that was never
//     recorded, so the rebuild cannot resolve the writer (missing-input).
//
// Victims are drawn by a seeded RNG; the seed matrix follows the
// SWEEP_SEEDS convention (the name carries "Fault" so CI's sweep job runs
// it across its full seed set).

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// oracleSeeds mirrors the sweep seed convention: the fixed local set,
// overridable via SWEEP_SEEDS so any logged failure replays verbatim.
func oracleSeeds(t *testing.T) []int64 {
	if env := os.Getenv("SWEEP_SEEDS"); env != "" {
		var out []int64
		for _, part := range strings.Split(env, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil {
				t.Fatalf("SWEEP_SEEDS: %v", err)
			}
			out = append(out, n)
		}
		return out
	}
	return []int64{1, 7}
}

func TestReplayFaultOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cross-architecture oracle")
	}
	for _, arch := range allArchitectures {
		for _, shards := range []int{1, 4} {
			for _, seed := range oracleSeeds(t) {
				t.Run(fmt.Sprintf("%s/shards=%d/seed%d", arch, shards, seed), func(t *testing.T) {
					runReplayFaultOracle(t, arch, shards, seed)
				})
			}
		}
	}
}

func runReplayFaultOracle(t *testing.T, arch Architecture, shards int, seed int64) {
	// The raw injections below bypass the store, so its query cache would
	// otherwise serve the pre-injection snapshot.
	c, err := New(Options{Architecture: arch, Seed: seed, Shards: shards, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(ctx, c.sys, sim.NewRNG(seed), workload.NewCombined(0.01)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Zero false positives: the untampered capture must replay clean.
	pre, err := c.ReplayAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Clean() {
		t.Fatalf("faithful capture diverged before injection: %v", pre.Divergences)
	}
	if pre.Compared != pre.Subjects+pre.Sources {
		t.Fatalf("pre-injection replay compared %d of %d file versions", pre.Compared, pre.Subjects+pre.Sources)
	}

	st := loadLineageStructure(t, c)
	if len(st.ccProcs) < 4 {
		t.Fatalf("workload recorded %d cc processes, oracle needs 4 disjoint victims", len(st.ccProcs))
	}
	if len(st.outFiles) == 0 {
		t.Fatal("workload recorded no multi-input result files")
	}

	rng := sim.NewRNG(seed)
	perm := rng.Perm(len(st.ccProcs))
	mutated, swapped, bogus, alt := st.ccProcs[perm[0]], st.ccProcs[perm[1]], st.ccProcs[perm[2]], st.ccProcs[perm[3]]
	outFile := st.outFiles[rng.Intn(len(st.outFiles))]
	// Drop a middle edge so the file keeps inputs on both sides and the
	// subgraph stays connected through the surviving pins.
	dropped := outFile.inputs[1+rng.Intn(len(outFile.inputs)-2)]

	inj := newInjector(t, c)
	inj.mutateString(mutated, prov.AttrArgv, st.argv[mutated]+" --drift")
	inj.dropInput(outFile.ref, dropped)
	inj.swapInput(st.output[swapped], swapped, alt)
	inj.swapInput(st.output[bogus], bogus, prov.Ref{Object: bogus.Object, Version: 999})
	c.Settle()

	post, err := c.ReplayAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Ref]string{
		toPublicRef(st.output[mutated]): "digest-mismatch",
		toPublicRef(outFile.ref):        "digest-mismatch",
		toPublicRef(st.output[swapped]): "digest-mismatch",
		toPublicRef(st.output[bogus]):   "missing-input",
	}
	got := map[Ref]string{}
	for _, d := range post.Divergences {
		if prior, dup := got[d.Subject]; dup {
			t.Errorf("subject %s flagged twice: %s and %s", d.Subject, prior, d.Kind)
		}
		got[d.Subject] = d.Kind
	}
	for subject, kind := range want {
		if got[subject] != kind {
			t.Errorf("injected bug at %s: want %s, got %q", subject, kind, got[subject])
		}
	}
	for subject, kind := range got {
		if _, expected := want[subject]; !expected {
			t.Errorf("false positive: %s flagged %s with no injected bug", subject, kind)
		}
	}
	if t.Failed() {
		t.Fatalf("oracle attribution failed; full report: %v", post.Divergences)
	}
}

// lineageStructure indexes the recorded graph for victim selection.
type lineageStructure struct {
	// ccProcs lists recorded cc process versions in canonical order; each
	// wrote exactly one object file.
	ccProcs []prov.Ref
	// output maps a process version to the current file version listing it
	// as an input.
	output map[prov.Ref]prov.Ref
	// argv maps a process version to its recorded argument vector.
	argv map[prov.Ref]string
	// outFiles lists current file versions with at least three recorded
	// writer pins (the coalesced blast result appends).
	outFiles []multiInputFile
}

type multiInputFile struct {
	ref    prov.Ref
	inputs []prov.Ref
}

func loadLineageStructure(t *testing.T, c *Client) *lineageStructure {
	q := c.b.Store
	type subjectInfo struct {
		typ, name, argv string
		inputs          []prov.Ref
		seenInput       map[prov.Ref]bool
	}
	subjects := map[prov.Ref]*subjectInfo{}
	for entry, qerr := range q.Query(ctx, prov.Query{Projection: prov.ProjectFull}) {
		if qerr != nil {
			t.Fatal(qerr)
		}
		info := subjects[entry.Ref]
		if info == nil {
			info = &subjectInfo{seenInput: map[prov.Ref]bool{}}
			subjects[entry.Ref] = info
		}
		for _, r := range entry.Records {
			switch {
			case r.Attr == prov.AttrType:
				info.typ = r.Value.Str
			case r.Attr == prov.AttrName:
				info.name = r.Value.Str
			case r.Attr == prov.AttrArgv:
				info.argv = r.Value.Str
			case r.Attr == prov.AttrInput && r.Value.Kind == prov.KindRef:
				if !info.seenInput[r.Value.Ref] {
					info.seenInput[r.Value.Ref] = true
					info.inputs = append(info.inputs, r.Value.Ref)
				}
			}
		}
	}
	st := &lineageStructure{output: map[prov.Ref]prov.Ref{}, argv: map[prov.Ref]string{}}
	for ref, info := range subjects {
		if info.typ != prov.TypeFile {
			continue
		}
		sort.Slice(info.inputs, func(i, j int) bool {
			a, b := info.inputs[i], info.inputs[j]
			if a.Object != b.Object {
				return a.Object < b.Object
			}
			return a.Version < b.Version
		})
		for _, in := range info.inputs {
			if proc := subjects[in]; proc != nil && proc.typ == prov.TypeProcess {
				st.output[in] = ref
			}
		}
		if len(info.inputs) >= 3 {
			st.outFiles = append(st.outFiles, multiInputFile{ref: ref, inputs: info.inputs})
		}
	}
	for ref, info := range subjects {
		if info.typ != prov.TypeProcess || info.name != "cc" {
			continue
		}
		if _, ok := st.output[ref]; !ok {
			continue // never pinned by a persisted file
		}
		st.ccProcs = append(st.ccProcs, ref)
		st.argv[ref] = info.argv
	}
	sort.Slice(st.ccProcs, func(i, j int) bool {
		a, b := st.ccProcs[i], st.ccProcs[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Version < b.Version
	})
	sort.Slice(st.outFiles, func(i, j int) bool { return st.outFiles[i].ref.Object < st.outFiles[j].ref.Object })
	return st
}

// injector applies one capture bug through raw cloud access, below the
// store APIs. Every method fails the test if it cannot find the recorded
// state to tamper with — a vacuously clean oracle proves nothing.
type injector interface {
	// mutateString replaces subject's attr string record with newVal.
	mutateString(subject prov.Ref, attr, newVal string)
	// dropInput deletes subject's recorded input edge.
	dropInput(subject, input prov.Ref)
	// swapInput repoints subject's input edge from oldIn to newIn.
	swapInput(subject, oldIn, newIn prov.Ref)
}

func newInjector(t *testing.T, c *Client) injector {
	clouds := c.b.Clouds
	if c.opts.Architecture == S3Only {
		return &s3RawInjector{t: t, clouds: clouds, bucket: c.bucketName()}
	}
	inj := &sdbRawInjector{t: t, clouds: clouds}
	for _, st := range c.b.Members {
		layered, ok := st.(interface{ Layer() *sdbprov.Layer })
		if !ok {
			t.Fatalf("store %T exposes no SimpleDB layer", st)
		}
		inj.domains = append(inj.domains, layered.Layer().Domain())
	}
	return inj
}

// sdbRawInjector tampers with provenance items in the SimpleDB-backed
// architectures. Items live on the shard of the carrier file that flushed
// them, so each mutation scans every shard domain.
type sdbRawInjector struct {
	t       *testing.T
	clouds  []*cloud.Cloud
	domains []string
}

// forEachCopy runs fn on every shard holding the subject's item.
func (in *sdbRawInjector) forEachCopy(subject prov.Ref, fn func(shard int, domain, item string, attrs []sdb.Attr)) {
	in.t.Helper()
	item := prov.EncodeItemName(subject)
	found := 0
	for i, cl := range in.clouds {
		attrs, ok, err := cl.SDB.GetAttributes(in.domains[i], item)
		if err != nil {
			in.t.Fatal(err)
		}
		if !ok {
			continue
		}
		found++
		fn(i, in.domains[i], item, attrs)
	}
	if found == 0 {
		in.t.Fatalf("no shard holds an item for %s; cannot inject", subject)
	}
}

func (in *sdbRawInjector) mutateString(subject prov.Ref, attr, newVal string) {
	in.t.Helper()
	in.forEachCopy(subject, func(shard int, domain, item string, _ []sdb.Attr) {
		err := in.clouds[shard].SDB.PutAttributes(domain, item, []sdb.ReplaceableAttr{
			{Name: attr, Value: core.EscapeLiteral(newVal), Replace: true},
		})
		if err != nil {
			in.t.Fatal(err)
		}
	})
}

func (in *sdbRawInjector) dropInput(subject, input prov.Ref) {
	in.t.Helper()
	dropped := 0
	in.forEachCopy(subject, func(shard int, domain, item string, attrs []sdb.Attr) {
		for _, a := range attrs {
			if a.Name == prov.AttrInput && a.Value == input.String() {
				err := in.clouds[shard].SDB.DeleteAttributes(domain, item, []sdb.Attr{a})
				if err != nil {
					in.t.Fatal(err)
				}
				dropped++
			}
		}
	})
	if dropped == 0 {
		in.t.Fatalf("no stored input edge %s -> %s to drop", subject, input)
	}
}

func (in *sdbRawInjector) swapInput(subject, oldIn, newIn prov.Ref) {
	in.t.Helper()
	in.dropInput(subject, oldIn)
	in.forEachCopy(subject, func(shard int, domain, item string, _ []sdb.Attr) {
		err := in.clouds[shard].SDB.PutAttributes(domain, item, []sdb.ReplaceableAttr{
			{Name: prov.AttrInput, Value: newIn.String()},
		})
		if err != nil {
			in.t.Fatal(err)
		}
	})
}

// s3RawInjector tampers with the metadata-encoded provenance of the
// S3-only architecture: a file's own records are p-* entries on its data
// object, a process's records are q-* entries riding its carrier file
// (spilling to a bundle object when the metadata budget runs out).
type s3RawInjector struct {
	t      *testing.T
	clouds []*cloud.Cloud
	bucket string
}

const (
	s3DataPrefix  = "data"
	s3FieldSep    = "\x1f"
	s3BundleEntry = "x-over"
)

// rewriteEverywhere runs edit over every data object's metadata (and any
// spill bundle), re-putting carriers the edit changed. edit returns the
// number of entries it rewrote.
func (in *s3RawInjector) rewriteEverywhere(edit func(meta map[string]string) int, editBundle func(recs []prov.Record) int) {
	in.t.Helper()
	applied := 0
	for _, cl := range in.clouds {
		infos, err := cl.S3.ListAll(in.bucket, s3DataPrefix)
		if err != nil {
			in.t.Fatal(err)
		}
		for _, info := range infos {
			obj, err := cl.S3.Get(in.bucket, info.Key)
			if err != nil {
				in.t.Fatal(err)
			}
			if n := edit(obj.Metadata); n > 0 {
				applied += n
				if err := cl.S3.Put(in.bucket, obj.Key, obj.Body, obj.Metadata); err != nil {
					in.t.Fatal(err)
				}
			}
			bkey, ok := obj.Metadata[s3BundleEntry]
			if !ok || editBundle == nil {
				continue
			}
			bundle, err := cl.S3.Get(in.bucket, bkey)
			if err != nil {
				in.t.Fatal(err)
			}
			recs, err := prov.UnmarshalJSONRecords(bundle.Body)
			if err != nil {
				in.t.Fatal(err)
			}
			if n := editBundle(recs); n > 0 {
				applied += n
				blob, err := prov.MarshalJSONRecords(recs)
				if err != nil {
					in.t.Fatal(err)
				}
				if err := cl.S3.Put(in.bucket, bkey, blob, bundle.Metadata); err != nil {
					in.t.Fatal(err)
				}
			}
		}
	}
	if applied == 0 {
		in.t.Fatal("no stored record matched; cannot inject")
	}
}

func (in *s3RawInjector) mutateString(subject prov.Ref, attr, newVal string) {
	in.t.Helper()
	// Process records ride carriers as q-* entries: subject, attr, value.
	prefix := subject.String() + s3FieldSep + attr + s3FieldSep
	in.rewriteEverywhere(func(meta map[string]string) int {
		n := 0
		for k, v := range meta {
			if strings.HasPrefix(k, "q-") && strings.HasPrefix(v, prefix) {
				meta[k] = prefix + core.EscapeLiteral(newVal)
				n++
			}
		}
		return n
	}, func(recs []prov.Record) int {
		n := 0
		for i := range recs {
			if recs[i].Subject == subject && recs[i].Attr == attr {
				recs[i].Value = prov.StringValue(core.EscapeLiteral(newVal))
				n++
			}
		}
		return n
	})
}

// editOwnInput rewrites one p-* input entry on the subject file's own data
// object: drop deletes it, otherwise it is repointed at newIn.
func (in *s3RawInjector) editOwnInput(subject, oldIn prov.Ref, drop bool, newIn prov.Ref) {
	in.t.Helper()
	key := s3DataPrefix + string(subject.Object)
	entry := prov.AttrInput + s3FieldSep + oldIn.String()
	applied := 0
	for _, cl := range in.clouds {
		obj, err := cl.S3.Get(in.bucket, key)
		if err != nil {
			continue // the file's home is another shard
		}
		changed := 0
		for k, v := range obj.Metadata {
			if strings.HasPrefix(k, "p-") && v == entry {
				if drop {
					delete(obj.Metadata, k)
				} else {
					obj.Metadata[k] = prov.AttrInput + s3FieldSep + newIn.String()
				}
				changed++
			}
		}
		if changed > 0 {
			applied += changed
			if err := cl.S3.Put(in.bucket, obj.Key, obj.Body, obj.Metadata); err != nil {
				in.t.Fatal(err)
			}
		}
	}
	if applied == 0 {
		in.t.Fatalf("no stored input edge %s -> %s to rewrite", subject, oldIn)
	}
}

func (in *s3RawInjector) dropInput(subject, input prov.Ref) {
	in.editOwnInput(subject, input, true, prov.Ref{})
}

func (in *s3RawInjector) swapInput(subject, oldIn, newIn prov.Ref) {
	in.editOwnInput(subject, oldIn, false, newIn)
}
