package sdb

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/sim"
)

// loadMovies fills the classic SimpleDB documentation example dataset.
func loadMovies(t testing.TB, svc *Service) {
	t.Helper()
	put := func(item string, attrs ...Attr) {
		t.Helper()
		putOne(t, svc, item, attrs...)
	}
	put("0385333498", Attr{"Title", "The Sirens of Titan"}, Attr{"Author", "Kurt Vonnegut"},
		Attr{"Year", "1959"}, Attr{"Keyword", "Book"}, Attr{"Keyword", "Paperback"}, Attr{"Rating", "*****"})
	put("0802131786", Attr{"Title", "Tropic of Cancer"}, Attr{"Author", "Henry Miller"},
		Attr{"Year", "1934"}, Attr{"Keyword", "Book"}, Attr{"Rating", "****"})
	put("1579124585", Attr{"Title", "The Right Stuff"}, Attr{"Author", "Tom Wolfe"},
		Attr{"Year", "1979"}, Attr{"Keyword", "Book"}, Attr{"Keyword", "Hardcover"}, Attr{"Rating", "****"})
	put("B000T9886K", Attr{"Title", "In Between"}, Attr{"Author", "Paul Van Dyk"},
		Attr{"Year", "2007"}, Attr{"Keyword", "CD"}, Attr{"Keyword", "Trance"}, Attr{"Rating", "****"})
	put("B00005JPLW", Attr{"Title", "300"}, Attr{"Author", "Zack Snyder"},
		Attr{"Year", "2007"}, Attr{"Keyword", "DVD"}, Attr{"Keyword", "Action"}, Attr{"Rating", "***"})
}

func queryNames(t *testing.T, svc *Service, expr string) []string {
	t.Helper()
	var names []string
	token := ""
	for {
		res, err := svc.Query("prov", expr, 0, token)
		if err != nil {
			t.Fatalf("Query(%q): %v", expr, err)
		}
		names = append(names, res.ItemNames...)
		if res.NextToken == "" {
			return names
		}
		token = res.NextToken
	}
}

func TestQueryEquality(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Keyword' = 'Book']")
	want := []string{"0385333498", "0802131786", "1579124585"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestQueryRange(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Year' > '1975' and 'Year' < '2008']")
	want := []string{"1579124585", "B000T9886K", "B00005JPLW"}
	if len(got) != 3 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestQueryOrWithinPredicate(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Rating' = '***' or 'Rating' = '*****']")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestQueryIntersection(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Keyword' = 'Book'] intersection ['Rating' = '****']")
	want := []string{"0802131786", "1579124585"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestQueryUnion(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Keyword' = 'CD'] union ['Keyword' = 'DVD']")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestQueryNot(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Keyword' = 'Book'] not ['Rating' = '****']")
	want := []string{"0385333498"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestQueryStartsWith(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Title' starts-with 'The ']")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	got = queryNames(t, svc, "['Title' does-not-start-with 'The ']")
	if len(got) != 3 {
		t.Fatalf("negated: got %v", got)
	}
}

func TestQuerySort(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := queryNames(t, svc, "['Keyword' = 'Book'] sort 'Year' asc")
	want := []string{"0802131786", "0385333498", "1579124585"} // 1934, 1959, 1979
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("asc: got %v, want %v", got, want)
	}
	got = queryNames(t, svc, "['Keyword' = 'Book'] sort 'Year' desc")
	want = []string{"1579124585", "0385333498", "0802131786"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("desc: got %v, want %v", got, want)
	}
}

func TestQuerySortDropsItemsMissingAttr(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "with", Attr{"t", "x"}, Attr{"k", "1"})
	putOne(t, svc, "without", Attr{"t", "x"})
	got := queryNames(t, svc, "['t' = 'x'] sort 'k'")
	if len(got) != 1 || got[0] != "with" {
		t.Fatalf("got %v, want [with]", got)
	}
}

func TestQueryMultiValueSingleValueRule(t *testing.T) {
	// A range conjunction must be satisfied by a single value: an item with
	// values {"0100", "9900"} must NOT match ['v' > '0500' and 'v' < '1000'].
	svc, _, _ := newTestService(t)
	putOne(t, svc, "item", Attr{"v", "0100"}, Attr{"v", "9900"})
	got := queryNames(t, svc, "['v' > '0500' and 'v' < '1000']")
	if len(got) != 0 {
		t.Fatalf("conjunction satisfied across different values: %v", got)
	}
	got = queryNames(t, svc, "['v' > '0050' and 'v' < '1000']")
	if len(got) != 1 {
		t.Fatalf("single value 0100 should satisfy: %v", got)
	}
}

func TestQueryMixedAttributePredicateRejected(t *testing.T) {
	svc, _, _ := newTestService(t)
	_, err := svc.Query("prov", "['a' = '1' and 'b' = '2']", 0, "")
	if !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("mixed-attribute predicate: %v", err)
	}
}

// querySyntaxErrors must each fail to parse; FuzzParseQuery starts from them
// too.
var querySyntaxErrors = []string{
	"",
	"[",
	"['a']",
	"['a' =]",
	"['a' = 'b'",
	"'a' = 'b'",
	"['a' = 'b'] bogus ['c' = 'd']",
	"['a' ! 'b']",
	"['a' = 'unterminated]",
}

func TestQuerySyntaxErrors(t *testing.T) {
	svc, _, _ := newTestService(t)
	for _, expr := range querySyntaxErrors {
		if _, err := svc.Query("prov", expr, 0, ""); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("expr %q: err = %v, want ErrInvalidQuery", expr, err)
		}
	}
}

func TestQueryPagination(t *testing.T) {
	svc, _, _ := newTestService(t)
	for i := 0; i < 600; i++ {
		putOne(t, svc, fmt.Sprintf("item%04d", i), Attr{"t", "x"})
	}
	res, err := svc.Query("prov", "['t' = 'x']", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ItemNames) != QueryPageLimit || res.NextToken == "" {
		t.Fatalf("page 1: %d names, token %q", len(res.ItemNames), res.NextToken)
	}
	all := queryNames(t, svc, "['t' = 'x']")
	if len(all) != 600 {
		t.Fatalf("paginated total = %d, want 600", len(all))
	}
	seen := make(map[string]bool)
	for _, n := range all {
		if seen[n] {
			t.Fatalf("duplicate %q across pages", n)
		}
		seen[n] = true
	}
	if _, err := svc.Query("prov", "['t' = 'x']", 0, "garbage"); !errors.Is(err, ErrInvalidNextToken) {
		t.Fatalf("bad token: %v", err)
	}
}

func TestQueryWithAttributes(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	res, err := svc.QueryWithAttributes("prov", "['Keyword' = 'CD']", nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Name != "B000T9886K" {
		t.Fatalf("items = %v", res.Items)
	}
	if len(res.Items[0].Attrs) != 6 {
		t.Fatalf("attrs = %v", res.Items[0].Attrs)
	}

	res, err = svc.QueryWithAttributes("prov", "['Keyword' = 'CD']", []string{"Title"}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items[0].Attrs) != 1 || res.Items[0].Attrs[0].Name != "Title" {
		t.Fatalf("subset attrs = %v", res.Items[0].Attrs)
	}
}

func TestQueryAfterUpdateAndDelete(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "a", Attr{"k", "1"})
	putOne(t, svc, "b", Attr{"k", "1"})
	if err := svc.PutAttributes("prov", "a", []ReplaceableAttr{{Name: "k", Value: "2", Replace: true}}); err != nil {
		t.Fatal(err)
	}
	if got := queryNames(t, svc, "['k' = '1']"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("after replace: %v", got)
	}
	if err := svc.DeleteAttributes("prov", "b", nil); err != nil {
		t.Fatal(err)
	}
	if got := queryNames(t, svc, "['k' = '1']"); len(got) != 0 {
		t.Fatalf("after delete: %v (index stale)", got)
	}
	if got := queryNames(t, svc, "['k' = '2']"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("new value: %v", got)
	}
}

func TestQuoteStringRoundTrip(t *testing.T) {
	f := func(raw string) bool {
		// Only printable-ish payloads appear in provenance values; the
		// lexer is byte-oriented so any string without NUL works.
		if strings.ContainsRune(raw, 0) {
			return true
		}
		toks, err := tokenize(QuoteString(raw))
		if err != nil {
			return false
		}
		return len(toks) == 2 && toks[0].kind == tokString && toks[0].text == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueryIndexConsistencyQuick(t *testing.T) {
	// Property: for random data, an indexed equality query returns exactly
	// the items a full scan would.
	f := func(seed int64, n uint8) bool {
		svc, _, _ := newQuickService(seed)
		names := make(map[string][]Attr)
		for i := 0; i < int(n); i++ {
			item := fmt.Sprintf("i%d", i%7)
			val := fmt.Sprintf("v%d", (int(seed)+i)%4)
			if err := svc.PutAttributes("d", item, []ReplaceableAttr{{Name: "k", Value: val}}); err != nil {
				return false
			}
			names[item] = append(names[item], Attr{"k", val})
		}
		for v := 0; v < 4; v++ {
			val := fmt.Sprintf("v%d", v)
			res, err := svc.Query("d", "['k' = "+QuoteString(val)+"]", 0, "")
			if err != nil {
				return false
			}
			// Scan ground truth.
			want := make(map[string]bool)
			for item, attrs := range names {
				for _, a := range attrs {
					if a.Value == val {
						want[item] = true
					}
				}
			}
			if len(res.ItemNames) != len(want) {
				return false
			}
			for _, item := range res.ItemNames {
				if !want[item] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newQuickService(seed int64) (*Service, *sim.VirtualClock, *billing.Meter) {
	clock := sim.NewVirtualClock()
	meter := &billing.Meter{}
	svc := New(Config{
		Replicas: 2,
		Clock:    clock,
		RNG:      sim.NewRNG(seed),
		Meter:    meter,
	})
	_ = svc.CreateDomain("d")
	return svc, clock, meter
}

// chunkFixture loads a single-replica domain in which n items each list one
// distinct input, and returns the 32-term equality chain sdbprov's
// dependentsOf sends per chunk; it matches 32 items whatever n is.
func chunkFixture(tb testing.TB, n int) (*Service, string) {
	tb.Helper()
	svc := New(Config{Replicas: 1, Clock: sim.NewVirtualClock(), RNG: sim.NewRNG(1), Meter: &billing.Meter{}})
	if err := svc.CreateDomain("d"); err != nil {
		tb.Fatal(err)
	}
	input := func(i int) string { return fmt.Sprintf("/data/obj%07d:0", i) }
	batch := make([]BatchItem, 0, MaxItemsPerBatch)
	for i := 0; i < n; i++ {
		batch = append(batch, BatchItem{
			Name:  fmt.Sprintf("/data/out%07d_0", i),
			Attrs: []ReplaceableAttr{{Name: "input", Value: input(i)}, {Name: "type", Value: "file"}},
		})
		if len(batch) == MaxItemsPerBatch || i == n-1 {
			if err := svc.BatchPutAttributes("d", batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	terms := make([]string, 32)
	for i := range terms {
		terms[i] = "'input' = " + QuoteString(input(i*(n/len(terms))))
	}
	return svc, "[" + strings.Join(terms, " or ") + "]"
}

func queryChunk(tb testing.TB, svc *Service, expr string) {
	res, err := svc.Query("d", expr, 0, "")
	if err != nil || len(res.ItemNames) != 32 {
		tb.Fatalf("chunk query: %d names, err %v", len(res.ItemNames), err)
	}
}

// TestEqualityChainCostFlat guards against an equality chain that walks the
// attribute's values again: the walk is CPU, not allocation, so the guard
// times one 32-term chunk query with a 32-item answer on 1 k and on 64 k
// distinct input values. A walk reads ~64× between the two; index lookups
// read the same but for cache misses.
func TestEqualityChainCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("times two benchmarks")
	}
	perQuery := func(n int) float64 {
		svc, expr := chunkFixture(t, n)
		r := testing.Benchmark(func(b *testing.B) {
			for b.Loop() {
				queryChunk(b, svc, expr)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	small, large := perQuery(1<<10), perQuery(64<<10)
	if large > 4*small {
		t.Fatalf("32-term chunk query takes %.0f ns on 1k input values but %.0f ns on 64k (%.1f×)", small, large, large/small)
	}
}

func BenchmarkQueryInChunk(b *testing.B) {
	for _, n := range []int{1 << 10, 16 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("n=%dk", n>>10), func(b *testing.B) {
			svc, expr := chunkFixture(b, n)
			for b.Loop() {
				queryChunk(b, svc, expr)
			}
		})
	}
}
