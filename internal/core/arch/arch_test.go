package arch

import (
	"context"
	"fmt"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// identity is what a member store answers to: its architecture name, the
// writer label its integrity checkpoints carry, and its WAL queue.
type identity struct{ name, writer, queue string }

// identify writes one file version through st (draining daemon, if any)
// and reads the identity back off the store and its persisted checkpoint.
func identify(t *testing.T, st shard.Store, daemon *s3sdbsqs.CommitDaemon, i int) identity {
	t.Helper()
	ctx := context.Background()
	ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/f%d", i))}
	ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte("x"),
		Records: []prov.Record{prov.NewString(ref, prov.AttrType, prov.TypeFile)}}
	if err := st.PutBatch(ctx, []pass.FlushEvent{ev}); err != nil {
		t.Fatal(err)
	}
	id := identity{name: st.Name()}
	if daemon != nil {
		if err := s3sdbsqs.Drain(ctx, nil, daemon); err != nil {
			t.Fatal(err)
		}
		id.queue = st.(*s3sdbsqs.Store).Queue()
	}
	audit, err := st.(integrity.Auditor).Audit(ctx)
	if err != nil || len(audit.Checkpoints) == 0 {
		t.Fatalf("audit: %d checkpoints, err %v", len(audit.Checkpoints), err)
	}
	id.writer = audit.Checkpoints[0].Writer
	return id
}

// TestFactoryMatchesDirectConstruction holds the factory to the literal
// constructor calls it replaced, under both labelling conventions in the
// tree: the public client's (one label, as Writer and ClientID) and the
// load and cost harnesses' (ClientID only — the first two architectures
// keep the default writer).
func TestFactoryMatchesDirectConstruction(t *testing.T) {
	sites := []struct {
		name          string
		labelsWriters bool
	}{{"client", true}, {"harness", false}}
	for _, site := range sites {
		for _, name := range Names {
			for _, n := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/x%d", site.name, name, n), func(t *testing.T) {
					key := func(i int) string { return fmt.Sprintf("t/shard%d", i) }
					label := func(i int) string { return fmt.Sprintf("c-s%d", i) }
					writer := func(i int) string {
						if site.labelsWriters {
							return label(i)
						}
						return ""
					}

					b, err := BuildSharded(cloud.NewMulti(cloud.Config{Seed: 7}), n, func(i int) (string, Config) {
						return key(i), Config{Name: name, Writer: writer(i), ClientID: label(i)}
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(b.Members) != n || len(b.Clouds) != n || (b.Router != nil) != (n > 1) {
						t.Fatalf("members=%d clouds=%d router=%v", len(b.Members), len(b.Clouds), b.Router != nil)
					}
					wantDaemons := 0
					if name == "s3+sdb+sqs" {
						wantDaemons = n
					}
					if len(b.Daemons) != wantDaemons {
						t.Fatalf("daemons = %d, want %d", len(b.Daemons), wantDaemons)
					}

					multi := cloud.NewMulti(cloud.Config{Seed: 7})
					for i := 0; i < n; i++ {
						cl := multi.Namespace(key(i))
						var direct shard.Store
						var directDaemon, daemon *s3sdbsqs.CommitDaemon
						switch name {
						case "s3":
							direct, err = s3only.New(s3only.Config{Cloud: cl, Writer: writer(i)})
						case "s3+sdb":
							direct, err = s3sdb.New(s3sdb.Config{Cloud: cl, Writer: writer(i)})
						case "s3+sdb+sqs":
							var st *s3sdbsqs.Store
							st, err = s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, ClientID: label(i)})
							direct, directDaemon, daemon = st, s3sdbsqs.NewCommitDaemon(st, nil), b.Daemons[i]
						}
						if err != nil {
							t.Fatal(err)
						}
						got, want := identify(t, b.Members[i], daemon, i), identify(t, direct, directDaemon, i)
						if got != want {
							t.Errorf("shard %d: factory %+v, direct %+v", i, got, want)
						}
					}
				})
			}
		}
	}
}

func TestUnknownArchitecture(t *testing.T) {
	if _, _, err := Build(Config{Name: "s4", Cloud: cloud.New(cloud.Config{})}); err == nil {
		t.Fatal("Build accepted an unknown architecture")
	}
	_, err := BuildSharded(cloud.NewMulti(cloud.Config{}), 2, func(int) (string, Config) { return "k", Config{Name: "s4"} })
	if err == nil {
		t.Fatal("BuildSharded accepted an unknown architecture")
	}
}
