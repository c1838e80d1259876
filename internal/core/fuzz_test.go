package core

import "testing"

// FuzzLiteralRoundTrip: the literal half of the pointer codec. Whatever a
// value holds — the pointer mark included — its escaped stored form decodes
// back to it, and never reads as a pointer.
func FuzzLiteralRoundTrip(f *testing.F) {
	for _, v := range []string{"", "plain", "\x1e", "\x1e\x1e", "\x1eprov//out/1_0/0", "\x1e\x1eprov//out/1_0/Z"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		key, literal, isPointer := DecodeValue(EscapeLiteral(v))
		if isPointer || key != "" || literal != v {
			t.Fatalf("DecodeValue(EscapeLiteral(%q)) = %q, %q, %v", v, key, literal, isPointer)
		}
	})
}
