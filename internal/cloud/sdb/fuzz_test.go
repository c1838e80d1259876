package sdb

import (
	"errors"
	"reflect"
	"testing"
)

// Native fuzz targets for the two hand-written parsers. Both receive strings
// assembled from client-supplied values, so the invariant is the one the
// stored-layout decoders are held to: a returned error or a parsed tree,
// never a panic or a hang — and the service reports every parse failure as
// ErrInvalidQuery.

// FuzzParseQuery starts from the shapes sdbprov builds (instancesExpr,
// pushdownExpr, inputChunkExpr, startsWithExpr) and the syntax-error table.
// A tree that parses is also evaluated: the predicates the engine answers by
// index lookup must match what walking the attribute's values matches.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range append([]string{
		"['name' = 'blast']",
		"['name' = 'it''s'] intersection ['type' = 'file']",
		"['input' = '/a:0' or 'input' = '/b''c:1' or 'input' = '/rec\x1esep:3' or 'input' = '/a:0']",
		"['input' starts-with '/obj:']",
		"['Year' >= '1950' and 'Year' < '1980'] union ['Keyword' = 'CD' or 'Keyword' != 'Book'] not ['Rating' = '***'] sort 'Year' desc",
		"['a' = '1' and 'b' = '2']",
	}, querySyntaxErrors...) {
		f.Add(seed)
	}
	svc, _, _ := newTestService(f)
	loadMovies(f, svc)
	putOne(f, svc, "/out_0", Attr{"name", "blast"}, Attr{"type", "file"}, Attr{"input", "/a:0"}, Attr{"input", "/b'c:1"})

	f.Fuzz(func(t *testing.T, src string) {
		q, perr := parseQuery(src)
		_, qerr := svc.Query("prov", src, 0, "")
		if perr != nil {
			if q != nil || !errors.Is(qerr, ErrInvalidQuery) {
				t.Fatalf("parse error %v: tree %v, Query error %v", perr, q, qerr)
			}
			return
		}
		if qerr != nil {
			t.Fatalf("parsed, but Query failed: %v", qerr)
		}
		svc.mu.Lock()
		defer svc.mu.Unlock()
		v := svc.domains["prov"].views[0]
		for _, p := range append([]*predicate{q.first}, predsOf(q.rest)...) {
			if p == nil || p.cond == nil {
				t.Fatalf("parsed tree has an empty predicate")
			}
			walked := evalPredicate(v, &predicate{attr: p.attr, cond: p.cond})
			if got := evalPredicate(v, p); !reflect.DeepEqual(got, walked) {
				t.Fatalf("predicate on %q: lookup matched %v, walk %v", p.attr, got, walked)
			}
		}
	})
}

// FuzzParseSelect starts from the statements sdbprov and the benchmark send
// (`select itemName() from <domain>`, `select * from <domain>`), the
// grammar's other constructs and the syntax-error table.
func FuzzParseSelect(f *testing.F) {
	for _, seed := range append([]string{
		"select itemName() from prov",
		"select * from prov",
		"select count(*) from prov where Year > '1950'",
		"select Title, Year from prov where (Keyword = 'Book' or Keyword in ('CD', 'DVD')) and not Rating like '%***' order by Year desc limit 2",
		"select * from prov where every(Keyword) != 'CD' and Year between '1900' and '2000' and Author is not null",
		"select * from `prov` where itemName() > 'B' order by itemName() desc",
	}, selectSyntaxErrors...) {
		f.Add(seed)
	}
	svc, _, _ := newTestService(f)
	loadMovies(f, svc)

	f.Fuzz(func(t *testing.T, src string) {
		st, perr := parseSelect(src)
		_, serr := svc.Select(src, "")
		switch {
		case perr != nil:
			if st != nil || !errors.Is(serr, ErrInvalidQuery) {
				t.Fatalf("parse error %v: statement %v, Select error %v", perr, st, serr)
			}
		case serr != nil && !errors.Is(serr, ErrNoSuchDomain):
			t.Fatalf("parsed, but Select failed: %v", serr)
		}
	})
}
