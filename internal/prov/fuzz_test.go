package prov

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// The decoders of stored bytes are the verifier's trust boundary: whatever
// a tampered bucket or domain holds, they return records or an error
// wrapping ErrMalformed — never a panic — and what they accept re-encodes
// to the same record set. The seed corpora are healthy encodings plus what
// the fault sweep's minimal tampering (the last byte of a stored value
// replaced, sweep.mutateTail) makes of them.

// sameRecords compares two record sets regardless of order.
func sameRecords(a, b []Record) bool {
	canon := func(rs []Record) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.String() + "\x00" + string(rune('0'+r.Value.Kind))
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(canon(a), canon(b))
}

func checkDecode(t *testing.T, err error) bool {
	t.Helper()
	if err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode error does not wrap ErrMalformed: %v", err)
	}
	return err == nil
}

func FuzzDecodeS3Metadata(f *testing.F) {
	f.Add("p-0", "type\x1ffile", "p-1", "input\x1fproc/4/tool3:0", "q-0", "proc/4/tool3:0\x1fname\x1ftool3")
	f.Add("p-0", "type\x1ffilZ", "p-3", "x-chain\x1fh:b18d4f5ee35195e0b67996bbdf5609eZ", "q-10", "proc/4/tool3:Z\x1fpid\x1f4")
	f.Add("p-x", "type\x1ffile", "p-01", "a\x1fb", "x-ver", "1")
	f.Add("q-0", "no-subject", "p-0", "\x1fempty-attr", "p-2", "env\x1f\x1eprov//out/1_0/0")
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2, k3, v3 string) {
		subject := Ref{Object: "/out/1", Version: 1}
		got, err := DecodeS3Metadata(subject, map[string]string{k1: v1, k2: v2, k3: v3})
		if !checkDecode(t, err) {
			return
		}
		meta := make(map[string]string, len(got))
		for i, r := range got {
			k, v := S3MetaEntry(i, r, r.Subject != subject)
			meta[k] = v
		}
		again, err := DecodeS3Metadata(subject, meta)
		if err != nil || !sameRecords(got, again) {
			t.Fatalf("re-encoded %v decodes to %v, %v", got, again, err)
		}
	})
}

func FuzzDecodeSDBAttrs(f *testing.F) {
	f.Add("type", "file", "input", "bar:2")
	f.Add("x-chain", "h:b18d4f5ee35195e0b67996bbdf5609eZ", "input", "bar:Z")
	f.Add("x-md5", "5b45a64bb3987f1ea0089ebb2130531Z", "env", "\x1eprov/proc/2/tool1_0/Z")
	f.Fuzz(func(t *testing.T, n1, v1, n2, v2 string) {
		subject := Ref{Object: "foo", Version: 2}
		ignore := map[string]bool{"x-md5": true}
		got, err := DecodeSDBAttrs(subject, []SDBAttr{{n1, v1}, {n2, v2}}, ignore)
		if !checkDecode(t, err) {
			return
		}
		again, err := DecodeSDBAttrs(subject, EncodeSDBAttrs(got), ignore)
		if err != nil || !sameRecords(got, again) {
			t.Fatalf("re-encoded %v decodes to %v, %v", got, again, err)
		}
	})
}

func FuzzUnmarshalJSONRecords(f *testing.F) {
	healthy, _ := MarshalJSONRecords([]Record{
		NewString(Ref{Object: "proc/1/link"}, AttrEnv, "\x1eprov/proc/1/link_0/0"),
		NewInput(Ref{Object: "proc/1/link"}, Ref{Object: "/in/000"}),
	})
	f.Add(healthy)
	f.Add([]byte(strings.Replace(string(healthy), "]", "Z", 1)))
	f.Add([]byte(`[{"s":"proc/1/link:Z","a":"env","v":"x","t":true}]`))
	f.Add([]byte(`[{"s":"a:0","a":"input","r":"b:00"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalJSONRecords(data)
		if !checkDecode(t, err) {
			return
		}
		blob, err := MarshalJSONRecords(got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := UnmarshalJSONRecords(blob)
		if err != nil || !sameRecords(got, again) {
			t.Fatalf("re-encoded %v decodes to %v, %v", got, again, err)
		}
	})
}

func FuzzParseItemName(f *testing.F) {
	for _, s := range []string{"foo_2", "/out/1_0", "proc/4/tool3_Z", "0_00", "/f_+0", "x-ledger", "a_b_10"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ref, err := ParseItemName(s)
		if checkDecode(t, err) && EncodeItemName(ref) != s {
			t.Fatalf("ParseItemName(%q) = %v, which re-encodes to %q", s, ref, EncodeItemName(ref))
		}
	})
}

func FuzzParseRef(f *testing.F) {
	for _, s := range []string{"bar:2", "proc/4/tool3:0", "proc/4/tool3:Z", "0:00", "/f:-0", "weird:name:7"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ref, err := ParseRef(s)
		if checkDecode(t, err) && ref.String() != s {
			t.Fatalf("ParseRef(%q) = %v, which re-encodes to %q", s, ref, ref.String())
		}
	})
}
