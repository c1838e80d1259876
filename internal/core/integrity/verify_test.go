package integrity_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/leakcheck"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// namespace is n stores of one architecture, each on its own region with
// its own fault plan, behind a router when n > 1.
type namespace struct {
	clouds []*cloud.Cloud
	faults []*sim.FaultPlan
	stores []core.Store
	drains []func(context.Context) error
}

func (ns *namespace) auditors() []integrity.Auditor {
	out := make([]integrity.Auditor, len(ns.stores))
	for i, st := range ns.stores {
		out[i] = st.(integrity.Auditor)
	}
	return out
}

// loadNamespace builds the namespace and writes a workload whose
// processes rewrite several files, round after round: each flush carries
// the process version that wrote it, so adjacent versions of one process
// can home on different shards, and a version that wrote two files rides
// both flushes.
func loadNamespace(t testing.TB, arch string, n int, seed int64) *namespace {
	t.Helper()
	ns := &namespace{}
	var members []shard.Store
	for i := 0; i < n; i++ {
		faults := sim.NewFaultPlan()
		cl := cloud.New(cloud.Config{Seed: seed + int64(i), Faults: faults})
		ns.clouds, ns.faults = append(ns.clouds, cl), append(ns.faults, faults)
		var st shard.Store
		var err error
		switch arch {
		case "s3":
			st, err = s3only.New(s3only.Config{Cloud: cl})
		case "s3+sdb":
			st, err = s3sdb.New(s3sdb.Config{Cloud: cl})
		case "s3+sdb+sqs":
			var wal *s3sdbsqs.Store
			wal, err = s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, ClientID: fmt.Sprintf("c%d", i)})
			st = wal
			daemon := s3sdbsqs.NewCommitDaemon(wal, nil)
			ns.drains = append(ns.drains, func(ctx context.Context) error {
				for range 50 {
					k, err := daemon.RunOnce(ctx, true)
					if err != nil {
						return err
					}
					if k == 0 && daemon.PendingTransactions() == 0 {
						return nil
					}
				}
				return errors.New("commit daemon did not drain")
			})
		default:
			t.Fatalf("unknown arch %q", arch)
		}
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, st)
		ns.stores = append(ns.stores, st)
	}
	var target core.Store = members[0]
	if n > 1 {
		r, err := shard.New(shard.Config{Shards: members})
		if err != nil {
			t.Fatal(err)
		}
		target = r
	}
	ctx := context.Background()
	sys := pass.NewSystem(pass.Config{Flush: core.Flusher(target)})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range 6 {
		must(sys.Ingest(ctx, fmt.Sprintf("/in/%d", i), fmt.Appendf(nil, "in-%d", i)))
	}
	for round := range 3 {
		p := sys.Exec(nil, pass.ExecSpec{Name: "tool", Argv: []string{"tool", fmt.Sprint(round)}})
		for k := range 4 {
			must(sys.Read(p, fmt.Sprintf("/in/%d", k)))
			must(sys.Read(p, fmt.Sprintf("/in/%d", (k+round+1)%6)))
			a, b := fmt.Sprintf("/out/a%d", k), fmt.Sprintf("/out/b%d", k)
			must(sys.Write(p, a, fmt.Appendf(nil, "a-%d-%d", round, k), pass.Truncate))
			must(sys.Write(p, b, fmt.Appendf(nil, "b-%d-%d", round, k), pass.Truncate))
			must(sys.Close(ctx, p, a))
			must(sys.Close(ctx, p, b))
		}
		sys.Exit(p)
	}
	must(sys.Sync(ctx))
	must(core.SyncStore(ctx, target))
	for _, d := range ns.drains {
		must(d(ctx))
	}
	for _, cl := range ns.clouds {
		cl.Settle()
	}
	return ns
}

// frozen serves a deep copy of one scanned audit per Audit call, so each
// verifier run starts from the same state.
type frozen struct{ a *integrity.Audit }

func (f frozen) Audit(context.Context) (*integrity.Audit, error) { return cloneAudit(f.a), nil }

func cloneAudit(a *integrity.Audit) *integrity.Audit {
	out := *a
	out.Entries = make(map[prov.Ref][]prov.Record, len(a.Entries))
	for ref, records := range a.Entries {
		out.Entries[ref] = slices.Clone(records)
	}
	out.Checkpoints = slices.Clone(a.Checkpoints)
	return &out
}

// scanAll freezes every store's audit.
func scanAll(t testing.TB, ns *namespace) []*integrity.Audit {
	t.Helper()
	out := make([]*integrity.Audit, len(ns.stores))
	for i, au := range ns.auditors() {
		a, err := au.Audit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a
	}
	return out
}

func frozenAuditors(audits []*integrity.Audit) []integrity.Auditor {
	out := make([]integrity.Auditor, len(audits))
	for i, a := range audits {
		out[i] = frozen{a}
	}
	return out
}

// sortedRefs lists a's subjects in (object, version) order.
func sortedRefs(a *integrity.Audit) []prov.Ref {
	refs := make([]prov.Ref, 0, len(a.Entries))
	for ref := range a.Entries {
		refs = append(refs, ref)
	}
	slices.SortFunc(refs, func(x, y prov.Ref) int {
		if c := strings.Compare(string(x.Object), string(y.Object)); c != 0 {
			return c
		}
		return int(x.Version - y.Version)
	})
	return refs
}

// holders counts the shards storing ref.
func holders(audits []*integrity.Audit, ref prov.Ref) (n int, at int) {
	at = -1
	for i, a := range audits {
		if _, ok := a.Entries[ref]; ok {
			n++
			at = i
		}
	}
	return n, at
}

// corruption rewrites one frozen namespace; apply reports whether it
// found a victim.
type corruption struct {
	name  string
	apply func(audits []*integrity.Audit, pick int) bool
}

// withRecords rewrites a subject's records through fn.
func withRecords(a *integrity.Audit, ref prov.Ref, fn func([]prov.Record) []prov.Record) {
	a.Entries[ref] = fn(slices.Clone(a.Entries[ref]))
}

// victim is a stored subject a corruption may pick.
type victim struct {
	shard int
	ref   prov.Ref
}

// victims are the subjects with version > 0, in a fixed order, across shards.
func victims(audits []*integrity.Audit) (out []victim) {
	for i, a := range audits {
		for _, ref := range sortedRefs(a) {
			if ref.Version > 0 {
				out = append(out, victim{i, ref})
			}
		}
	}
	return out
}

var corruptions = []corruption{
	{"flip-byte", func(audits []*integrity.Audit, pick int) bool {
		vs := victims(audits)
		if len(vs) == 0 {
			return false
		}
		v := vs[pick%len(vs)]
		withRecords(audits[v.shard], v.ref, func(rs []prov.Record) []prov.Record {
			i := pick % len(rs)
			s := []byte(rs[i].Value.String())
			s[len(s)/2] ^= 0x01
			rs[i].Value = prov.StringValue(string(s))
			return rs
		})
		return true
	}},
	{"flip-chain-byte", func(audits []*integrity.Audit, pick int) bool {
		vs := victims(audits)
		if len(vs) == 0 {
			return false
		}
		v := vs[(pick*7)%len(vs)]
		withRecords(audits[v.shard], v.ref, func(rs []prov.Record) []prov.Record {
			for i := range rs {
				if rs[i].Attr == integrity.AttrChain {
					s := []byte(rs[i].Value.Str)
					s[len(s)-1] ^= 0x01
					rs[i].Value = prov.StringValue(string(s))
				}
			}
			return rs
		})
		return true
	}},
	{"swap-version", func(audits []*integrity.Audit, pick int) bool {
		vs := victims(audits)
		for k := range vs {
			v := vs[(pick+k)%len(vs)]
			a := audits[v.shard]
			prev := prov.Ref{Object: v.ref.Object, Version: v.ref.Version - 1}
			if _, ok := a.Entries[prev]; !ok {
				continue
			}
			x, y := a.Entries[prev], a.Entries[v.ref]
			a.Entries[prev], a.Entries[v.ref] = resubject(y, prev), resubject(x, v.ref)
			return true
		}
		return false
	}},
	{"drop-record", func(audits []*integrity.Audit, pick int) bool {
		vs := victims(audits)
		if len(vs) == 0 {
			return false
		}
		v := vs[(pick*3)%len(vs)]
		withRecords(audits[v.shard], v.ref, func(rs []prov.Record) []prov.Record {
			return slices.Delete(rs, pick%len(rs), pick%len(rs)+1)
		})
		return true
	}},
	{"drop-chain-record", func(audits []*integrity.Audit, pick int) bool {
		vs := victims(audits)
		if len(vs) == 0 {
			return false
		}
		v := vs[(pick*5)%len(vs)]
		withRecords(audits[v.shard], v.ref, func(rs []prov.Record) []prov.Record {
			return slices.DeleteFunc(rs, func(r prov.Record) bool { return r.Attr == integrity.AttrChain })
		})
		return true
	}},
	{"drop-subject", func(audits []*integrity.Audit, pick int) bool {
		vs := victims(audits)
		if len(vs) == 0 {
			return false
		}
		v := vs[(pick*11)%len(vs)]
		victim := prov.Ref{Object: v.ref.Object, Version: v.ref.Version - 1}
		if _, ok := audits[v.shard].Entries[victim]; !ok {
			victim = v.ref // no history: drop the surviving version
		}
		delete(audits[v.shard].Entries, victim)
		return true
	}},
	{"duplicate-record", func(audits []*integrity.Audit, pick int) bool {
		vs := victims(audits)
		if len(vs) == 0 {
			return false
		}
		v := vs[(pick*13)%len(vs)]
		withRecords(audits[v.shard], v.ref, func(rs []prov.Record) []prov.Record {
			return append(rs, rs[pick%len(rs)], integrity.ChainRecord(v.ref, "h:"+strings.Repeat("0", 32)))
		})
		return true
	}},
}

func resubject(rs []prov.Record, ref prov.Ref) []prov.Record {
	out := slices.Clone(rs)
	for i := range out {
		out[i].Subject = ref
	}
	return out
}

// spreadPredecessors makes the multi-shard predecessor paths certain to
// run: a version whose successor is on another shard is also stored there
// (an identical copy, as a transient ancestor riding two flushes is), and
// another version is moved to a shard its successor is not on.
func spreadPredecessors(t *testing.T, audits []*integrity.Audit) {
	t.Helper()
	copied, moved := false, false
	for i, a := range audits {
		for _, ref := range sortedRefs(a) {
			next := prov.Ref{Object: ref.Object, Version: ref.Version + 1}
			if n, _ := holders(audits, ref); n != 1 {
				continue
			}
			if n, _ := holders(audits, next); n == 0 {
				continue
			}
			j := (i + 1) % len(audits)
			switch {
			case !copied:
				audits[j].Entries[ref] = slices.Clone(a.Entries[ref])
				copied = true
			case !moved:
				audits[j].Entries[ref] = a.Entries[ref]
				delete(a.Entries, ref)
				moved = true
			}
		}
	}
	if !copied || !moved {
		t.Fatalf("no version with a stored successor to spread (copied %v, moved %v)", copied, moved)
	}
}

// alterOneCopy flips a byte in the last shard's copy of a version that
// several shards hold and a successor links to.
func alterOneCopy(t *testing.T, audits []*integrity.Audit) {
	t.Helper()
	for _, a := range audits {
		for _, ref := range sortedRefs(a) {
			if ref.Version == 0 {
				continue
			}
			prev := prov.Ref{Object: ref.Object, Version: ref.Version - 1}
			if n, at := holders(audits, prev); n > 1 {
				withRecords(audits[at], prev, func(rs []prov.Record) []prov.Record {
					rs[0].Value = prov.StringValue(rs[0].Value.String() + "~")
					return rs
				})
				return
			}
		}
	}
	t.Fatal("no version held by several shards")
}

// crossShardLinks counts links whose predecessor some other shard holds,
// and those whose predecessor several shards hold.
func crossShardLinks(audits []*integrity.Audit) (other, several int) {
	for i, a := range audits {
		for ref := range a.Entries {
			if ref.Version == 0 {
				continue
			}
			n, at := holders(audits, prov.Ref{Object: ref.Object, Version: ref.Version - 1})
			switch {
			case n > 1:
				several++
			case n == 1 && at != i:
				other++
			}
		}
	}
	return other, several
}

func checkAgainstOracle(t *testing.T, audits []*integrity.Audit, what string) *integrity.Result {
	t.Helper()
	ctx := context.Background()
	want, err := oracleVerifyStores(ctx, frozenAuditors(audits))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		checkVerifyStores(t, audits, want, fmt.Sprintf("%s at GOMAXPROCS %d", what, procs), procs)
	}
	if len(audits) == 1 {
		one := integrity.VerifyAudit(cloneAudit(audits[0]))
		if !reflect.DeepEqual(one, want.Shards[0]) {
			t.Errorf("%s: VerifyAudit differs from the reference:\n got  %+v\n want %+v", what, *one, *want.Shards[0])
		}
	}
	return want
}

// checkVerifyStores runs VerifyStores on procs CPUs: its work splits
// differently when there are fewer workers than shards or chunks.
func checkVerifyStores(t *testing.T, audits []*integrity.Audit, want *integrity.Result, what string, procs int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	got, err := integrity.VerifyStores(context.Background(), frozenAuditors(audits))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: VerifyStores differs from the reference", what)
		for i := range min(len(got.Shards), len(want.Shards)) {
			if g, w := got.Shards[i], want.Shards[i]; !reflect.DeepEqual(g, w) {
				t.Errorf("shard %d:\n got  %+v\n want %+v", i, *g, *w)
			}
		}
		if got.NamespaceRoot != want.NamespaceRoot {
			t.Errorf("namespace root %s, want %s", got.NamespaceRoot, want.NamespaceRoot)
		}
	}
}

// TestVerifyStoresMatchesReference holds VerifyStores and VerifyAudit to
// the reference verifier on three architectures at 1 and 4 shards: clean,
// then under every corruption kind, with predecessors stored on another
// shard and on several.
func TestVerifyStoresMatchesReference(t *testing.T) {
	for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
		for _, n := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d", arch, n), func(t *testing.T) {
				base := scanAll(t, loadNamespace(t, arch, n, 5))
				if res := checkAgainstOracle(t, base, "clean"); !res.Clean() {
					t.Fatalf("healthy namespace flagged: %v", res.Divergences())
				}
				if n > 1 {
					other, several := crossShardLinks(base)
					t.Logf("as written: %d links to another shard, %d to several", other, several)
					spreadPredecessors(t, base)
					if other, several = crossShardLinks(base); other == 0 || several == 0 {
						t.Fatalf("spread left %d links to another shard, %d to several", other, several)
					}
					// The shards' committed roots no longer cover what they
					// hold, but every chain still links.
					for _, d := range checkAgainstOracle(t, base, "spread").Divergences() {
						if d.Kind != integrity.RootMismatch {
							t.Fatalf("identical copies flagged: %v", d)
						}
					}
					// One copy of a version several shards hold is altered.
					audits := make([]*integrity.Audit, len(base))
					for i, a := range base {
						audits[i] = cloneAudit(a)
					}
					alterOneCopy(t, audits)
					if res := checkAgainstOracle(t, audits, "alter-one-copy"); !slices.ContainsFunc(res.Divergences(), func(d integrity.Divergence) bool {
						return d.Kind == integrity.ChainBreak
					}) {
						t.Errorf("an altered copy broke no chain: %v", res.Divergences())
					}
				}
				for _, c := range corruptions {
					for pick := range 3 {
						audits := make([]*integrity.Audit, len(base))
						for i, a := range base {
							audits[i] = cloneAudit(a)
						}
						if !c.apply(audits, pick) {
							t.Fatalf("%s: no victim", c.name)
						}
						what := fmt.Sprintf("%s/%d", c.name, pick)
						if res := checkAgainstOracle(t, audits, what); res.Clean() {
							t.Errorf("%s: corruption not detected", what)
						}
					}
				}
			})
		}
	}
}

// TestVerifyStoresScanErrorStopsInOrder: a scan that fails ends the audit
// at that shard — later shards see no operation — and no hashing
// goroutine outlives the call.
func TestVerifyStoresScanErrorStopsInOrder(t *testing.T) {
	ns := loadNamespace(t, "s3+sdb", 4, 9)
	ns.faults[2].ArmOp("sdb/Select", sim.ClassPermanent, 0, 1000)
	before := ns.clouds[3].Usage().TotalOps()
	_, err := integrity.VerifyStores(context.Background(), ns.auditors())
	if err == nil || !strings.HasPrefix(err.Error(), "integrity: audit shard 2: ") {
		t.Fatalf("err = %v, want integrity: audit shard 2: ...", err)
	}
	if ns.faults[2].OpFired("sdb/Select") == 0 {
		t.Fatal("the armed fault never fired")
	}
	if got := ns.clouds[3].Usage().TotalOps(); got != before {
		t.Fatalf("shard 3 metered %d ops after shard 2 failed", got-before)
	}
	if leaked := leakcheck.Check(); leaked != "" {
		t.Fatalf("goroutines outlived VerifyStores:\n%s", leaked)
	}
}

// TestSubjectHashAllocs: hashing allocates only the returned string once
// the pooled buffers have grown.
func TestSubjectHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	r := prov.Ref{Object: "proc/7/tool", Version: 3}
	records := []prov.Record{
		{Subject: r, Attr: prov.AttrType, Value: prov.StringValue(prov.TypeProcess)},
		{Subject: r, Attr: prov.AttrName, Value: prov.StringValue("tool")},
		{Subject: r, Attr: prov.AttrInput, Value: prov.RefValue(prov.Ref{Object: "/in/a", Version: 2})},
		{Subject: r, Attr: prov.AttrInput, Value: prov.RefValue(prov.Ref{Object: "/in/b", Version: 0})},
		{Subject: r, Attr: prov.AttrInput, Value: prov.RefValue(prov.Ref{Object: "/in/a", Version: 2})},
		integrity.ChainRecord(r, integrity.LinkToken(strings.Repeat("ab", 16))),
	}
	if got := testing.AllocsPerRun(100, func() { integrity.SubjectHash(r, records) }); got > 1 {
		t.Fatalf("SubjectHash allocates %.1f objects per call, want at most 1", got)
	}
}

// BenchmarkVerifyStores verifies 4 in-memory shards of 1k subjects each:
// chained versions of 250 objects per shard, 8 records per version.
func BenchmarkVerifyStores(b *testing.B) {
	const shards, objects, versions = 4, 250, 4
	audits := make([]*integrity.Audit, shards)
	for s := range audits {
		a := &integrity.Audit{Shard: s, Entries: make(map[prov.Ref][]prov.Record), RetainsHistory: true}
		var leaves []string
		for o := range objects {
			obj := prov.ObjectID(fmt.Sprintf("/shard%d/obj%04d", s, o))
			token := integrity.TokenGenesis
			for v := range versions {
				r := prov.Ref{Object: obj, Version: prov.Version(v)}
				records := []prov.Record{
					{Subject: r, Attr: prov.AttrType, Value: prov.StringValue(prov.TypeFile)},
					{Subject: r, Attr: prov.AttrName, Value: prov.StringValue(string(obj))},
				}
				for k := range 5 {
					in := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("proc/%d/tool", (o+k)%97)), Version: prov.Version(k)}
					records = append(records, prov.Record{Subject: r, Attr: prov.AttrInput, Value: prov.RefValue(in)})
				}
				records = append(records, integrity.ChainRecord(r, token))
				a.Entries[r] = records
				h := integrity.SubjectHash(r, records)
				leaves = append(leaves, h)
				token = integrity.LinkToken(h)
			}
		}
		a.Checkpoints = []integrity.Checkpoint{{Writer: "w", Seq: 1, Count: len(leaves), Root: integrity.MerkleRoot(leaves)}}
		audits[s] = a
	}
	auditors := make([]integrity.Auditor, shards)
	for i, a := range audits {
		auditors[i] = shared{a}
	}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		res, err := integrity.VerifyStores(ctx, auditors)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Clean() {
			b.Fatalf("benchmark namespace flagged: %v", res.Divergences())
		}
	}
}

// shared serves one audit as it is: the verifier only reads it.
type shared struct{ a *integrity.Audit }

func (s shared) Audit(context.Context) (*integrity.Audit, error) { return s.a, nil }

// fuzzRecords decodes a record set for subject: each record is a kind
// byte (odd: a ref value whose version is kind>>1), then a length-prefixed
// attribute and a length-prefixed value.
func fuzzRecords(subject prov.Ref, data []byte) []prov.Record {
	field := func() string {
		if len(data) == 0 {
			return ""
		}
		n := min(int(data[0]), len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s
	}
	var out []prov.Record
	for len(data) > 0 {
		kind := data[0]
		data = data[1:]
		attr, value := field(), field()
		v := prov.StringValue(value)
		if kind&1 == 1 {
			v = prov.RefValue(prov.Ref{Object: prov.ObjectID(value), Version: prov.Version(kind >> 1)})
		}
		out = append(out, prov.Record{Subject: subject, Attr: attr, Value: v})
	}
	return out
}

// fuzzEncode is fuzzRecords' inverse, for seeds.
func fuzzEncode(records ...prov.Record) []byte {
	var out []byte
	for _, r := range records {
		kind, value := byte(0), r.Value.Str
		if r.Value.Kind == prov.KindRef {
			kind, value = byte(r.Value.Ref.Version)<<1|1, string(r.Value.Ref.Object)
		}
		out = append(out, kind, byte(len(r.Attr)))
		out = append(out, r.Attr...)
		out = append(out, byte(len(value)))
		out = append(out, value...)
	}
	return out
}

// FuzzSubjectHashMatchesReference holds SubjectHash to the reference
// hash on any record set, and VerifyAudit of a one-subject audit to the
// reference verifier: the hashing pass deduplicates only a set that
// renders a line twice, so its record and chain counts must match
// DedupRecords' on every set.
func FuzzSubjectHashMatchesReference(f *testing.F) {
	s := prov.Ref{Object: "proc/1/tool", Version: 2}
	str := func(attr, value string) prov.Record {
		return prov.Record{Subject: s, Attr: attr, Value: prov.StringValue(value)}
	}
	ref := func(attr string, r prov.Ref) prov.Record {
		return prov.Record{Subject: s, Attr: attr, Value: prov.RefValue(r)}
	}
	chain := integrity.ChainRecord(s, integrity.LinkToken(strings.Repeat("0f", 16)))
	seeds := [][]prov.Record{
		nil,
		{str("in\x1f", "x"), str("in", "\x1fx")},
		{str("input\x1f", ""), str("input", "")},
		{str("in", "puta"), str("input", "a"), str("inp", "")},
		{ref(prov.AttrInput, prov.Ref{Object: "/a", Version: 1}), str(prov.AttrInput, "/a:1")},
		{str(integrity.AttrRoot, "v2|w|1|1|r"), str(integrity.AttrRoot, "v2|w|1|1|r"), chain},
		{str(integrity.AttrRoot, "a"), str(integrity.AttrRoot, "b")},
		{chain, chain, str(prov.AttrType, prov.TypeProcess), str(prov.AttrType, prov.TypeProcess)},
		{str("", ""), str("", "")},
	}
	for _, rs := range seeds {
		f.Add(string(s.Object), int(s.Version), fuzzEncode(rs...))
	}
	f.Add("", -1, []byte{})
	f.Fuzz(func(t *testing.T, object string, version int, data []byte) {
		subject := prov.Ref{Object: prov.ObjectID(object), Version: prov.Version(version)}
		records := fuzzRecords(subject, data)
		want := oracleSubjectHash(subject, records)
		if got := integrity.SubjectHash(subject, records); got != want {
			t.Fatalf("SubjectHash = %s, reference %s (records %v)", got, want, records)
		}
		entries := map[prov.Ref][]prov.Record{subject: records}
		got := integrity.VerifyAudit(&integrity.Audit{Entries: entries})
		want1 := oracleVerifyAudit(&oracleAudit{Audit: &integrity.Audit{Entries: map[prov.Ref][]prov.Record{subject: slices.Clone(records)}}})
		if !reflect.DeepEqual(got, want1) {
			t.Fatalf("VerifyAudit = %+v, reference %+v (records %v)", *got, *want1, records)
		}
	})
}
