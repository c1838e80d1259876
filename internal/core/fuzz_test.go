package core

import (
	"encoding/base64"
	"errors"
	"testing"
)

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

// FuzzDecodeCursor: the opaque resume token is caller-supplied. Any string
// either decodes to a state that re-encodes and decodes back to itself, or is
// refused with an error wrapping ErrBadCursor — never a panic.
func FuzzDecodeCursor(f *testing.F) {
	for _, st := range []cursorState{{}, {hash: 1<<64 - 1, stamp: "ab12@3.0", offset: 7}, {stamp: "a@1.2|3.4"}} {
		f.Add(encodeCursor(st))
	}
	for _, raw := range []string{"", "c1|0|s|0", "c1|zz|s|1", "c1|0|s|-1", "c2|0|s|0", "c1|0|s"} {
		f.Add(base64.RawURLEncoding.EncodeToString([]byte(raw)))
	}
	f.Add("not base64!")
	f.Fuzz(func(t *testing.T, s string) {
		st, err := decodeCursor(s)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("decodeCursor(%q): %v does not wrap ErrBadCursor", s, err)
			}
			return
		}
		again, err := decodeCursor(encodeCursor(st))
		if err != nil || again != st {
			t.Fatalf("decodeCursor(%q) = %+v, which re-encodes to %+v, %v", s, st, again, err)
		}
	})
}
