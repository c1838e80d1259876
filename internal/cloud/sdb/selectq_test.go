package sdb

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func selectNames(t *testing.T, svc *Service, expr string) []string {
	t.Helper()
	var names []string
	token := ""
	for {
		res, err := svc.Select(expr, token)
		if err != nil {
			t.Fatalf("Select(%q): %v", expr, err)
		}
		for _, it := range res.Items {
			names = append(names, it.Name)
		}
		if res.NextToken == "" {
			return names
		}
		token = res.NextToken
	}
}

func TestSelectStar(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	res, err := svc.Select("select * from prov where Keyword = 'CD'", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Name != "B000T9886K" || len(res.Items[0].Attrs) != 6 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSelectProjection(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	res, err := svc.Select("select Title, Year from prov where Author = 'Tom Wolfe'", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 {
		t.Fatalf("items = %v", res.Items)
	}
	if len(res.Items[0].Attrs) != 2 {
		t.Fatalf("projected attrs = %v", res.Items[0].Attrs)
	}
}

func TestSelectProjectionOmitsEmptyItems(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "has", Attr{"k", "1"}, Attr{"extra", "x"})
	putOne(t, svc, "lacks", Attr{"k", "1"})
	res, err := svc.Select("select extra from prov where k = '1'", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Name != "has" {
		t.Fatalf("items = %v", res.Items)
	}
}

func TestSelectItemName(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := selectNames(t, svc, "select itemName() from prov where Keyword = 'Book'")
	want := []string{"0385333498", "0802131786", "1579124585"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSelectCount(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	res, err := svc.Select("select count(*) from prov where Year >= '2000'", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsCount || res.Count != 2 {
		t.Fatalf("count = %+v", res)
	}
}

func TestSelectNoWhereReturnsAll(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := selectNames(t, svc, "select itemName() from prov")
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestSelectAndOrNotParens(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := selectNames(t, svc,
		"select itemName() from prov where (Keyword = 'CD' or Keyword = 'DVD') and not Rating = '***'")
	if len(got) != 1 || got[0] != "B000T9886K" {
		t.Fatalf("got %v", got)
	}
}

func TestSelectBetween(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := selectNames(t, svc, "select itemName() from prov where Year between '1950' and '1980'")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestSelectIn(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := selectNames(t, svc, "select itemName() from prov where Year in ('1934', '2007')")
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSelectLike(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := selectNames(t, svc, "select itemName() from prov where Title like 'The%'")
	if len(got) != 2 {
		t.Fatalf("prefix: got %v", got)
	}
	got = selectNames(t, svc, "select itemName() from prov where Title like '%of%'")
	if len(got) != 2 { // "The Sirens of Titan", "Tropic of Cancer"
		t.Fatalf("infix: got %v", got)
	}
	got = selectNames(t, svc, "select itemName() from prov where Title like '%Stuff'")
	if len(got) != 1 {
		t.Fatalf("suffix: got %v", got)
	}
}

func TestSelectIsNull(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "a", Attr{"k", "1"}, Attr{"opt", "x"})
	putOne(t, svc, "b", Attr{"k", "1"})
	got := selectNames(t, svc, "select itemName() from prov where opt is null")
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("is null: %v", got)
	}
	got = selectNames(t, svc, "select itemName() from prov where opt is not null")
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("is not null: %v", got)
	}
}

func TestSelectEvery(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "all-red", Attr{"color", "red"})
	putOne(t, svc, "mixed", Attr{"color", "red"}, Attr{"color", "blue"})
	got := selectNames(t, svc, "select itemName() from prov where every(color) = 'red'")
	if len(got) != 1 || got[0] != "all-red" {
		t.Fatalf("every: %v", got)
	}
	// Plain comparison: any value suffices.
	got = selectNames(t, svc, "select itemName() from prov where color = 'red'")
	if len(got) != 2 {
		t.Fatalf("any: %v", got)
	}
}

func TestSelectItemNameComparison(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	got := selectNames(t, svc, "select itemName() from prov where itemName() like 'B00%'")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestSelectOrderByAndLimit(t *testing.T) {
	svc, _, _ := newTestService(t)
	loadMovies(t, svc)
	res, err := svc.Select("select Title from prov where Keyword = 'Book' order by Year desc limit 2", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 || res.Items[0].Name != "1579124585" {
		t.Fatalf("res = %+v", res.Items)
	}
	if res.NextToken == "" {
		t.Fatal("limit reached but no NextToken")
	}
	res2, err := svc.Select("select Title from prov where Keyword = 'Book' order by Year desc limit 2", res.NextToken)
	if err != nil || len(res2.Items) != 1 {
		t.Fatalf("page 2: %+v, %v", res2, err)
	}
}

func TestSelectOrderByItemNameDesc(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "a", Attr{"k", "1"})
	putOne(t, svc, "b", Attr{"k", "1"})
	got := selectNames(t, svc, "select itemName() from prov order by itemName() desc")
	if !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("got %v", got)
	}
}

func TestSelectPagination(t *testing.T) {
	svc, _, _ := newTestService(t)
	for i := 0; i < 30; i++ {
		putOne(t, svc, fmt.Sprintf("i%02d", i), Attr{"k", "1"})
	}
	got := selectNames(t, svc, "select itemName() from prov where k = '1' limit 7")
	if len(got) != 30 {
		t.Fatalf("paginated select total = %d, want 30", len(got))
	}
}

// selectSyntaxErrors must each fail to parse; FuzzParseSelect starts from
// them too.
var selectSyntaxErrors = []string{
	"",
	"select",
	"select * from",
	"select * from nope2 where",
	"select * frm prov",
	"select * from prov where k",
	"select * from prov where k = ",
	"select * from prov limit '0'",
	"select * from prov limit zero",
	"select * from prov bogus",
	"select count(x) from prov",
}

func TestSelectErrors(t *testing.T) {
	svc, _, _ := newTestService(t)
	for _, expr := range selectSyntaxErrors {
		if _, err := svc.Select(expr, ""); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("expr %q: err = %v, want ErrInvalidQuery", expr, err)
		}
	}
	if _, err := svc.Select("select * from missingdomain", ""); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("missing domain: %v", err)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		v, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"hello", "hell%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "%", true},
		{"hello", "h%o", true},
		{"hello", "h%x", false},
		{"", "%", true},
		{"abcabc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.v, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.v, c.pat, got, c.want)
		}
	}
}
