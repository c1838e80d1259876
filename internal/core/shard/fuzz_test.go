package shard_test

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// FuzzRouterCursor: the cursor of a paged router query is caller-supplied,
// and binds to a composite stamp — every member's, behind an "e<epoch>,"
// component once the ring has flipped. Whatever the string, on a router that
// never flipped and on one that did, the query either fails with
// core.ErrBadCursor or core.ErrCursorExpired or resumes a page of the one
// evaluation this router pinned for this query: never a panic, never entries
// of another query or another instance. And Explain's disposition of the
// cursor is what the query then does: a resident pin serves without asking a
// member, an evicted one at an unchanged stamp re-evaluates exactly once, a
// cursor planned to fail fails without asking one. The third router's pins are
// evicted before every try, inside an open (empty) migration window, so that
// its re-evaluation cannot hide behind the router's remembered answer.
func FuzzRouterCursor(f *testing.F) {
	ctx := context.Background()
	batches := captureBatches(f)
	files := prov.Query{Type: prov.TypeFile, Projection: prov.ProjectRefs, Limit: 2}
	procs := prov.Query{Type: prov.TypeProcess, Projection: prov.ProjectRefs, Limit: 1}
	firstCursor := func(q core.Querier, desc prov.Query) string {
		for e, err := range q.Query(ctx, desc) {
			if err != nil {
				f.Fatal(err)
			}
			if e.Cursor != "" {
				return e.Cursor
			}
		}
		f.Fatal("expected a truncated first page")
		return ""
	}

	// A cursor names the instance that minted it by a random token, new in
	// every process — the fuzzing workers' included. So that mutation can
	// reach past that check, the text "INST" inside a cursor stands for the
	// token of the router it is tried on.
	rebind := func(cursor, from, to string) string {
		raw, err := base64.RawURLEncoding.DecodeString(cursor)
		if err != nil {
			return cursor
		}
		return base64.RawURLEncoding.EncodeToString([]byte(strings.ReplaceAll(string(raw), from, to)))
	}
	type instance struct {
		q       core.Querier
		token   string
		want    []prov.Ref // the files, in the order every page slices
		members []*probedMember
		evict   bool
	}
	// evict pushes every resident pin out with paged queries of its own.
	evict := func(q core.Querier) {
		for i := 0; i < 8; i++ {
			other := prov.Query{RefPrefix: fmt.Sprintf("/none%d", i), Projection: prov.ProjectRefs, Limit: 1}
			if _, err := core.CollectRefs(q.Query(ctx, other)); err != nil {
				f.Fatal(err)
			}
		}
	}
	var routers []instance
	for _, c := range []struct {
		flips int
		evict bool
	}{{0, false}, {1, false}, {0, true}} {
		flips := c.flips
		tg, members := probed(f, "s3+sdb", 4, 59, false)
		for _, b := range batches {
			if err := tg.store.PutBatch(ctx, b); err != nil {
				f.Fatal(err)
			}
		}
		for i := 0; i < flips; i++ {
			if err := tg.router.FlipRing(tg.router.Assignment()); err != nil {
				f.Fatal(err)
			}
		}
		if epoch := strings.HasPrefix(tg.router.StampToken(), "e"); epoch != (flips > 0) {
			f.Fatalf("stamp %q after %d flips", tg.router.StampToken(), flips)
		}
		all := files
		all.Limit = 0
		want, err := core.CollectRefs(tg.router.Query(ctx, all))
		if err != nil || len(want) < 6 {
			f.Fatalf("%d files, %v", len(want), err)
		}
		// Seeds: this router's real first-page cursors — for the query under
		// test and for another — as minted, and rebound to whoever tries them.
		own := firstCursor(tg.querier(), files)
		raw, err := base64.RawURLEncoding.DecodeString(own)
		fields := strings.Split(string(raw), "|")
		if err != nil || len(fields) != 4 {
			f.Fatalf("cursor %q decodes to %q, %v", own, raw, err)
		}
		token, _, _ := strings.Cut(fields[2], "@")
		if c.evict {
			if err := tg.router.BeginMigration(0, 1, nil); err != nil {
				f.Fatal(err)
			}
		}
		routers = append(routers, instance{tg.querier(), token, want, members, c.evict})
		for _, minted := range []string{own, firstCursor(tg.querier(), procs)} {
			f.Add(minted)
			f.Add(rebind(minted, token, "INST"))
		}
		f.Add(rebind(rebind(own, token, "INST"), "@", "@e7,"))
		f.Add(rebind(rebind(own, token, "INST"), "@e1,", "@"))
		f.Add(base64.RawURLEncoding.EncodeToString([]byte(strings.Replace(string(raw), token, "INST", 1) + "999"))) // a far offset
	}
	f.Add("")
	f.Add("not base64!")

	f.Fuzz(func(t *testing.T, fuzzed string) {
		for i, r := range routers {
			for _, cursor := range []string{fuzzed, rebind(fuzzed, "INST", r.token)} {
				resumed := files
				resumed.Cursor = cursor
				if r.evict {
					evict(r.q)
				}
				plan := r.q.Explain(resumed)
				asked := calls(r.members)
				var page []prov.Ref
				var failed error
				for e, err := range r.q.Query(ctx, resumed) {
					if err != nil {
						failed = err
						break
					}
					page = append(page, e.Ref)
				}
				asked = calls(r.members) - asked
				// One evaluation of a shard-local query is one call per member.
				// The empty cursor resumes nothing: a first page.
				wantAsked, wantFail := int64(0), !plan.Cached
				if strings.HasPrefix(plan.Strategy, "pinned-reeval/") {
					wantAsked, wantFail = int64(len(r.members)), false
				} else if plan.Strategy != "pinned-page" && cursor != "" {
					t.Fatalf("router %d, cursor %q: planned as %q", i, cursor, plan.Strategy)
				}
				if cursor != "" && (asked != wantAsked || (failed != nil) != wantFail) {
					t.Fatalf("router %d, cursor %q: asked members %d times and failed with %v, planned as\n%s", i, cursor, asked, failed, plan)
				}
				if failed != nil {
					if !errors.Is(failed, core.ErrBadCursor) && !errors.Is(failed, core.ErrCursorExpired) {
						t.Fatalf("router %d, cursor %q: %v is neither ErrBadCursor nor ErrCursorExpired", i, cursor, failed)
					}
					if len(page) > 0 {
						t.Fatalf("router %d, cursor %q: %d entries before %v", i, cursor, len(page), failed)
					}
					continue
				}
				// A page: a run of at most Limit consecutive files, from
				// wherever the cursor's offset points (past the end: none).
				at := 0
				if len(page) > 0 {
					at = slices.Index(r.want, page[0])
				}
				if len(page) > files.Limit || at < 0 || at+len(page) > len(r.want) || !slices.Equal(page, r.want[at:at+len(page)]) {
					t.Fatalf("router %d, cursor %q: page %v is no page of %v", i, cursor, page, r.want)
				}
			}
		}
	})
}
