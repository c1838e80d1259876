package s3sdbsqs

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// walCorpus logs one transaction — a file with a value past the 1 KB
// pointer bound and a transient process riding along — and returns the
// message bodies putBatch left on the queue.
func walCorpus(f *testing.F) []string {
	f.Helper()
	cl := cloud.New(cloud.Config{Seed: 1})
	st, err := New(Config{Cloud: cl})
	if err != nil {
		f.Fatal(err)
	}
	proc := procEvent("tool", 4, prov.NewString(prov.Ref{Object: "proc/4/tool"}, prov.AttrEnv, strings.Repeat("E", 1200)))
	out := fileEvent("/out", 0, "payload", prov.NewInput(prov.Ref{Object: "/out"}, proc.Ref))
	if err := st.PutBatch(context.Background(), []pass.FlushEvent{proc, out}); err != nil {
		f.Fatal(err)
	}
	// begin, prov, data, prov, md5, commit; a receive samples the queue, so
	// poll until all six came back.
	var bodies []string
	for try := 0; try < 50 && len(bodies) < 6; try++ {
		msgs, err := cl.SQS.ReceiveMessage(st.queue, 10, time.Minute)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range msgs {
			bodies = append(bodies, m.Body)
		}
	}
	if len(bodies) != 6 {
		f.Fatalf("received %d WAL messages, want 6", len(bodies))
	}
	return bodies
}

// FuzzDecodeWAL: the queue is the commit daemon's only input, and anyone
// holding the queue URL can send to it. Any body either is refused with an
// error, or decodes to a message that names its transaction and kind, whose
// chunk payload decodes to records or prov.ErrMalformed, and which
// re-encodes to a body that decodes to the same message — never a panic.
func FuzzDecodeWAL(f *testing.F) {
	for _, body := range walCorpus(f) {
		f.Add(body)
		f.Add(strings.Replace(body, `"tx"`, `"xt"`, 1))
		f.Add(body[:len(body)-2] + "Z}")
	}
	f.Add(`{"tx":"t","kind":"prov","seq":1,"recs":[{"s":"a:0","a":"input","r":"b:00"}]}`)
	f.Add(`{"tx":"t","kind":"prov","recs":null}`)
	f.Add(`{"tx":"","kind":"commit"}`)
	f.Add(`{"tx":"t","kind":"begin","count":1e99}`)
	f.Fuzz(func(t *testing.T, body string) {
		m, err := decodeWAL(body)
		if err != nil {
			return
		}
		if m.TxID == "" || m.Kind == "" {
			t.Fatalf("decodeWAL(%q) accepted a message without tx or kind", body)
		}
		records, recErr := m.decodeRecords()
		if recErr != nil && !errors.Is(recErr, prov.ErrMalformed) {
			t.Fatalf("decodeRecords of %q: %v does not wrap prov.ErrMalformed", body, recErr)
		}
		encoded, err := m.encode()
		if err != nil {
			// Only the 8 KB bound refuses a decoded message, and escaping
			// grows a body at most sixfold.
			if len(body)*6 <= sqs.MaxMessageSize {
				t.Fatalf("re-encoding %q: %v", body, err)
			}
			return
		}
		again, err := decodeWAL(encoded)
		if err != nil {
			t.Fatalf("decodeWAL(%q) re-encodes to %q: %v", body, encoded, err)
		}
		// Marshal compacts and HTML-escapes the chunk payload: compare what
		// it decodes to, and every other field as is.
		againRecords, againErr := again.decodeRecords()
		if (recErr == nil) != (againErr == nil) || !reflect.DeepEqual(records, againRecords) {
			t.Fatalf("chunk of %q decodes to %v, %v; re-encoded to %v, %v", body, records, recErr, againRecords, againErr)
		}
		m.Records, again.Records = nil, nil
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("decodeWAL(%q) = %+v, which re-encodes to %+v", body, m, again)
		}
	})
}
