package core

import (
	"context"
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"passcloud/internal/prov"
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
// refused with an error wrapping ErrBadCursor — never a panic. And whatever it
// decodes to, PlanCursor's disposition is what RunPaged then does — a resident
// pin serves without evaluating, an evicted one at the current stamp evaluates
// exactly once, a failing one fails with ErrBadCursor or ErrCursorExpired and
// evaluates nothing — on a registry holding the pin, on one that lost it and
// on one that never minted it. A registry's instance token is random, so the
// text "INST" inside a cursor stands for the token of the registry it is
// tried on (and stays foreign on the third).
func FuzzDecodeCursor(f *testing.F) {
	q := prov.Query{Type: prov.TypeFile, Limit: 2}
	hash := QueryHash(q)
	for _, st := range []cursorState{{}, {hash: 1<<64 - 1, stamp: "ab12@3.0", offset: 7}, {stamp: "a@1.2|3.4"},
		{hash: hash, stamp: "INST@g1", offset: 2}, {hash: hash, stamp: "INST@g0", offset: 1}, {hash: hash + 1, stamp: "INST@g1"},
		{hash: hash, stamp: "INST@g1", offset: 1 << 40}} {
		f.Add(encodeCursor(st))
	}
	for _, raw := range []string{"", "c1|0|s|0", "c1|zz|s|1", "c1|0|s|-1", "c2|0|s|0", "c1|0|s"} {
		f.Add(base64.RawURLEncoding.EncodeToString([]byte(raw)))
	}
	f.Add("not base64!")
	pinned := []Entry{{Ref: pageRef(0)}, {Ref: pageRef(1)}, {Ref: pageRef(2)}, {Ref: pageRef(3)}, {Ref: pageRef(4)}}
	f.Fuzz(func(t *testing.T, s string) {
		st, err := decodeCursor(s)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("decodeCursor(%q): %v does not wrap ErrBadCursor", s, err)
			}
		} else if again, err := decodeCursor(encodeCursor(st)); err != nil || again != st {
			t.Fatalf("decodeCursor(%q) = %+v, which re-encodes to %+v, %v", s, st, again, err)
		}
		for _, regime := range []string{"resident", "evicted", "foreign"} {
			pins := &Pins{}
			cursor := s
			if raw, err := base64.RawURLEncoding.DecodeString(s); err == nil && regime != "foreign" {
				cursor = base64.RawURLEncoding.EncodeToString([]byte(strings.ReplaceAll(string(raw), "INST", pins.instance())))
			}
			if regime == "resident" {
				pins.put(hash, pins.token("g1"), pinned)
			}
			resumed := q
			resumed.Cursor = cursor
			if cursor == "" {
				continue // a first page resumes nothing
			}
			d := PlanCursor(resumed, pins, "g1")
			evals := 0
			page, _, err := runPage(t, resumed, "g1", pins, func(context.Context, prov.Query) ([]Entry, error) {
				evals++
				return append([]Entry(nil), pinned...), nil
			})
			want := map[CursorDisposition]int{CursorPinned: 0, CursorReEval: 1, CursorFails: 0}[d]
			failed := errors.Is(err, ErrBadCursor) || errors.Is(err, ErrCursorExpired)
			if evals != want || failed != (d == CursorFails) || (err != nil) != failed || (failed && len(page) > 0) {
				t.Fatalf("%s, cursor %q: planned as %v, ran %d evaluations, %d entries, %v", regime, cursor, d, evals, len(page), err)
			}
		}
	})
}

// FuzzGraphExecMatchesEvaluator: the graph executor, on at most three parts
// where some objects also have a stale copy on another part that hide hides,
// answers any descriptor as the reference evaluator does on the merged
// visible graph — records included under ProjectFull. The bytes decode, one
// choice each, into the placements, the subjects with their records, and the
// descriptor; exhausted bytes read as zero.
func FuzzGraphExecMatchesEvaluator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 0, 2, 2, 0, 0, 1, 9, 2, 4, 1, 0, 2, 0, 3, 1, 1, 3, 2, 2, 1, 0, 4, 0, 0, 2, 1, 1, 0, 1, 1, 1, 2, 1, 0})
	f.Add([]byte{1, 1, 0, 0, 1, 0, 0, 0, 8, 2, 1, 0, 1, 1, 0, 0, 0, 1, 2, 2, 1, 2, 0, 0, 3, 0, 1, 0, 0, 1, 0, 1, 2, 0, 2, 0, 1, 0, 0, 1, 1})
	objects := []prov.ObjectID{"/a", "/a/b", "proc/1/blast", "proc/2/sort", "/c"}
	names := []string{"blast", "sort", "/a", "/c"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		ref := func() prov.Ref {
			return prov.Ref{Object: objects[next(len(objects))], Version: prov.Version(next(3))}
		}
		parts := make([]*prov.Graph, 1+next(3))
		home, stale := make(map[prov.ObjectID]int), make(map[prov.ObjectID]int)
		for _, o := range objects {
			home[o], stale[o] = next(len(parts)), -1
			if len(parts) > 1 && next(2) == 0 {
				stale[o] = (home[o] + 1 + next(len(parts)-1)) % len(parts)
			}
		}
		for i := range parts {
			parts[i] = prov.NewGraph()
		}
		whole := prov.NewGraph()
		for n := next(10); n > 0; n-- {
			s := ref()
			rs := []prov.Record{
				prov.NewString(s, prov.AttrType, []string{prov.TypeFile, prov.TypeProcess}[next(2)]),
				prov.NewString(s, prov.AttrName, names[next(len(names))]),
			}
			for k := next(3); k > 0; k-- {
				rs = append(rs, prov.NewInput(s, ref()))
			}
			whole.AddAll(rs)
			parts[home[s.Object]].AddAll(rs)
			if p := stale[s.Object]; p >= 0 {
				parts[p].AddAll(append(rs, prov.NewString(s, prov.AttrName, names[next(len(names))]), prov.NewInput(s, ref())))
			}
		}
		q := prov.Query{
			Tool:      []string{"", "", "blast", "sort"}[next(4)],
			Type:      []string{"", prov.TypeFile, prov.TypeProcess}[next(3)],
			RefPrefix: []string{"", "", "/a", "/a:", "proc/", "/a/b:1"}[next(6)],
		}
		if next(2) == 0 {
			q.Attrs = []prov.AttrFilter{{Attr: prov.AttrName, Value: names[next(len(names))]}}
		}
		for k := next(3); k > 0; k-- {
			q.Refs = append(q.Refs, ref())
		}
		if q.Direction = prov.Direction(next(3)); q.Direction != prov.TraverseNone {
			q.Depth, q.IncludeSeeds = next(3), next(2) == 0
		}
		q.Projection = prov.Projection(next(2))

		hide := func(i int, o prov.ObjectID) bool { return i == stale[o] }
		if !graphRefsAgree(t, whole, parts, hide, q) {
			t.Fatalf("the graph executor disagrees with the evaluator")
		}
	})
}
