package arch_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/arch"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// goldenLayout pins the stored layout: the digest, per architecture and
// shard count, of everything the fixed script below leaves in the cloud
// (stored) and of every record an uncached Q.1 decodes back out of it (read).
// The values were recorded at the commit before the layout's definitions
// moved to their single owners (ARCHITECTURE.md "Stored layout"); a
// refactor of the codecs, the overflow path or the key scheme must
// reproduce them byte for byte. s3+sdb+sqs/x4's stored digest was
// re-recorded when the commit daemon began joining an item's log chunks in
// log order: before, SQS's delivery order chose which records spilled.
var goldenLayout = map[string]struct{ stored, read string }{
	"s3/x1":         {"311c4b1d4de2e27b4c149abc60cead85a384caa52a5a1a7de8a2869e5ba376a9", "1533fb5d633c8201e5d832f9fd01a6977b0708c5bc517962f5d8ce725dcf3401"},
	"s3/x4":         {"429b8736949806f4fdac3bd0b5f46f889306af306c7c71d9e7055f523a581c4f", "1533fb5d633c8201e5d832f9fd01a6977b0708c5bc517962f5d8ce725dcf3401"},
	"s3+sdb/x1":     {"ccd206c4c7cd67aa87e8af651641598f4a7ef8c8bf96fc8ff5121ff85c578bf1", "3fe42262c79692a1390541863dbe6b49fc080bee1b3a47e3291935a51903c2e5"},
	"s3+sdb/x4":     {"252a7b858ac966cadd196682a95965571fd9783a766d19b0b9e233d4b1a1dbef", "3fe42262c79692a1390541863dbe6b49fc080bee1b3a47e3291935a51903c2e5"},
	"s3+sdb+sqs/x1": {"7430c38b5f1e1f7030ebfe225fbd2db67cef3c53b03f75d240b55450af5339a5", "3fe42262c79692a1390541863dbe6b49fc080bee1b3a47e3291935a51903c2e5"},
	"s3+sdb+sqs/x4": {"7285e010dc9a805a95cd74f134bee9aea72cca9e09f5b553dea2dadc44092804", "3fe42262c79692a1390541863dbe6b49fc080bee1b3a47e3291935a51903c2e5"},
}

// layoutScript drives every layout feature through the PASS layer: a
// >1 KB value (overflow object), a >2 KB environment (metadata spill on
// architecture 1), more than 256 records on one item (x-more spill on
// architectures 2 and 3), a literal that needs escaping, a pipe and
// version churn.
func layoutScript(ctx context.Context, sys *pass.System) error {
	const fanIn = 260
	for i := 0; i < fanIn; i++ {
		if err := sys.Ingest(ctx, fmt.Sprintf("/in/%03d", i), []byte{byte(i)}); err != nil {
			return err
		}
	}
	closeOut := func(p *pass.Process, reads []string, out, body string) error {
		for _, r := range reads {
			if err := sys.Read(p, r); err != nil {
				return err
			}
		}
		if err := sys.Write(p, out, []byte(body), pass.Truncate); err != nil {
			return err
		}
		return sys.Close(ctx, p, out)
	}
	var all []string
	for i := 0; i < fanIn; i++ {
		all = append(all, fmt.Sprintf("/in/%03d", i))
	}
	// An environment that starts with the pointer mark must be escaped.
	link := sys.Exec(nil, pass.ExecSpec{Name: "link", Env: "\x1eliteral"})
	if err := closeOut(link, all, "/out/linked", "linked"); err != nil {
		return err
	}
	big := sys.Exec(nil, pass.ExecSpec{Name: "tool1", Argv: []string{"tool1", "-x"}, Env: strings.Repeat("E", 1500)})
	if err := closeOut(big, []string{"/in/000"}, "/out/1", "v0-out1"); err != nil {
		return err
	}
	huge := sys.Exec(nil, pass.ExecSpec{Name: "tool2", Env: strings.Repeat("H", 3*1024)})
	if err := closeOut(huge, []string{"/out/1", "/in/001"}, "/out/2", "v0-out2"); err != nil {
		return err
	}
	churn := sys.Exec(nil, pass.ExecSpec{Name: "tool3"})
	if err := closeOut(churn, []string{"/in/001"}, "/out/1", "v1-out1"); err != nil {
		return err
	}
	p4 := sys.Exec(nil, pass.ExecSpec{Name: "tool4"})
	p5 := sys.Exec(nil, pass.ExecSpec{Name: "tool5"})
	if err := sys.Read(p4, "/out/2"); err != nil {
		return err
	}
	if err := sys.Pipe(p4, p5); err != nil {
		return err
	}
	if err := closeOut(p5, nil, "/out/3", "v0-out3"); err != nil {
		return err
	}
	return sys.Sync(ctx)
}

// layoutDigest hashes every S3 key with its metadata map and body hash and
// every SimpleDB item with its attribute list, namespace by namespace.
func layoutDigest(t *testing.T, clouds []*cloud.Cloud) string {
	t.Helper()
	var lines []string
	for i, cl := range clouds {
		for _, bucket := range cl.S3.ListBuckets() {
			infos, err := cl.S3.ListAll(bucket, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range infos {
				obj, err := cl.S3.Get(bucket, info.Key)
				if err != nil {
					t.Fatal(err)
				}
				var meta []string
				for k, v := range obj.Metadata {
					meta = append(meta, fmt.Sprintf("%q=%q", k, v))
				}
				sort.Strings(meta)
				sum := sha256.Sum256(obj.Body)
				lines = append(lines, fmt.Sprintf("ns%d s3 %s %q body=%x meta=%s", i, bucket, info.Key, sum[:8], strings.Join(meta, ",")))
			}
		}
		for _, domain := range cl.SDB.ListDomains() {
			token := ""
			for {
				res, err := cl.SDB.Select("select * from "+domain, token)
				if err != nil {
					t.Fatal(err)
				}
				for _, item := range res.Items {
					var attrs []string
					for _, a := range item.Attrs {
						attrs = append(attrs, fmt.Sprintf("%q=%q", a.Name, a.Value))
					}
					sort.Strings(attrs)
					lines = append(lines, fmt.Sprintf("ns%d sdb %s %q attrs=%s", i, domain, item.Name, strings.Join(attrs, ",")))
				}
				if token = res.NextToken; token == "" {
					break
				}
			}
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readDigest hashes every record a Q.1 scan decodes, subject by subject.
func readDigest(t *testing.T, q core.Querier) string {
	t.Helper()
	all, err := core.CollectBySubject(q.Query(context.Background(), prov.Q1()))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for ref, records := range all {
		for _, r := range records {
			lines = append(lines, fmt.Sprintf("%s %q=%q kind=%d", ref, r.Attr, r.Value.String(), r.Value.Kind))
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestStoredLayoutGolden runs the script on each architecture (and each
// again over four shards) and compares what is stored against the pinned
// digests.
func TestStoredLayoutGolden(t *testing.T) {
	for _, name := range arch.Names {
		for _, n := range []int{1, 4} {
			id := fmt.Sprintf("%s/x%d", name, n)
			t.Run(id, func(t *testing.T) {
				ctx := context.Background()
				multi := cloud.NewMulti(cloud.Config{Seed: 20090223})
				b, err := arch.BuildSharded(multi, n, func(i int) (string, arch.Config) {
					label := fmt.Sprintf("golden-s%d", i)
					return fmt.Sprintf("golden/shard%d", i), arch.Config{Name: name, Writer: label, ClientID: label, DisableQueryCache: true}
				})
				if err != nil {
					t.Fatal(err)
				}
				sys := pass.NewSystem(pass.Config{Flush: core.Flusher(b.Store)})
				if err := layoutScript(ctx, sys); err != nil {
					t.Fatal(err)
				}
				if err := core.SyncStore(ctx, b.Store); err != nil {
					t.Fatal(err)
				}
				if err := s3sdbsqs.Drain(ctx, multi.Settle, b.Daemons...); err != nil {
					t.Fatal(err)
				}
				multi.Settle()
				want := goldenLayout[id]
				if got := layoutDigest(t, b.Clouds); got != want.stored {
					t.Errorf("stored layout digest %s, want %s", got, want.stored)
				}
				if got := readDigest(t, b.Store); got != want.read {
					t.Errorf("decoded records digest %s, want %s", got, want.read)
				}
			})
		}
	}
}
