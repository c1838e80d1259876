package planner

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// catalogItem is one observed write, as the brute-force model keeps it.
type catalogItem struct{ inline, spill []prov.Record }

// FuzzSDBCatalogMatchesScan: every SDBCatalog answer equals a scan of what
// was observed. The bytes decode, one choice each, into a run of Observe and
// Forget calls — new subjects, rewrites with fewer or no records, spilled
// records, pointer-valued and escaped strings, input edges to objects whose
// names hold colons at versions 2 and 10. After every step each public
// method must equal a brute-force reading of a plain map of the observed
// items. Exhausted bytes read as zero.
func FuzzSDBCatalogMatchesScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 3, 0, 1, 2, 4, 2, 1, 0, 3, 1, 2, 0, 2, 1, 1, 0, 4, 3, 1, 2, 2, 0, 1, 3, 0, 1})
	f.Add([]byte{7, 2, 4, 1, 1, 2, 3, 1, 0, 2, 4, 3, 2, 1, 1, 3, 2, 0, 1, 2, 2, 3, 3, 4, 1, 0, 2, 1, 4, 2, 3, 1, 1, 5, 2, 2})
	objects := []prov.ObjectID{"/a", "/a:b", "/a:b:2", "/a:b:1", "/d", "/p", "proc/1/blast"}
	for i := 0; i < 40; i++ { // enough subjects for graphs of more than one level
		objects = append(objects, prov.ObjectID(fmt.Sprintf("f/%d", i)))
	}
	versions := []prov.Version{0, 1, 2, 10}
	values := []string{
		"x", "blast", prov.TypeFile,
		core.EscapeLiteral("\x1eliteral"), // an escaped literal that looks like a pointer
		core.PointerValue("prov/x/0"),
		"/a:b:2", // a string input value spelled like a ref
	}
	attrs := []string{prov.AttrType, prov.AttrName, prov.AttrInput, prov.AttrEnv}
	prefixes := []string{"", "/", "/a", "/a:", "/a:b", "/a:b:", "/a:b:1", "/a:b:10", "/a:b:2", "/a:b:2:", "/d:1", "f/1", "zz"}
	long := make([]byte, 1500) // a long run: many subjects, rewrites and forgets
	for i, x := 0, uint32(1); i < len(long); i++ {
		x = x*1103515245 + 12345
		long[i] = byte(x >> 16)
	}
	f.Add(long)
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
			return prov.Ref{Object: objects[next(len(objects))], Version: versions[next(len(versions))]}
		}
		recordsOf := func(s prov.Ref, n int) []prov.Record { // up to n records
			var rs []prov.Record
			for k := next(n + 1); k > 0; k-- {
				if attr := attrs[next(len(attrs))]; attr == prov.AttrInput && next(3) > 0 {
					rs = append(rs, prov.NewInput(s, ref()))
				} else {
					rs = append(rs, prov.NewString(s, attr, values[next(len(values))]))
				}
			}
			return rs
		}

		c, model := NewSDBCatalog(), map[prov.Ref]catalogItem{}
		var pool []prov.Ref // every ref made so far, observed or not
		for step := 0; step == 0 || len(data) > 0 && step < 200; step++ {
			s := ref()
			if !slices.Contains(pool, s) {
				pool = append(pool, s)
			}
			if next(5) == 0 {
				c.Forget(s)
				delete(model, s)
			} else {
				inline, spill := recordsOf(s, 6), recordsOf(s, 3*next(2))
				c.Observe(s, inline, spill)
				model[s] = catalogItem{slices.Clone(inline), slices.Clone(spill)}
				clear(inline) // the catalog must keep its own copy
			}
			if err := catalogMatchesModel(c, model, pool, attrs, values, prefixes); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// catalogMatchesModel compares c with a brute-force reading of model. pool
// holds the distinct refs to ask about, absent ones included.
func catalogMatchesModel(c *SDBCatalog, model map[prov.Ref]catalogItem, pool []prov.Ref, attrs, values, prefixes []string) error {
	// scan returns the items keep selects, in item-name order.
	scan := func(keep func(catalogItem) bool) []prov.Ref {
		var out []prov.Ref
		for s, it := range model {
			if keep(it) {
				out = append(out, s)
			}
		}
		slices.SortFunc(out, func(a, b prov.Ref) int {
			return strings.Compare(prov.EncodeItemName(a), prov.EncodeItemName(b))
		})
		return out
	}
	isPtr := func(r prov.Record) bool {
		_, _, ptr := core.DecodeValue(r.Value.Str)
		return r.Value.Kind == prov.KindString && ptr
	}
	gets := func(it catalogItem, want func(prov.Record) bool) (n int64) {
		for _, r := range it.inline {
			if want(r) && isPtr(r) {
				n++
			}
		}
		return n
	}
	itemGets := func(it catalogItem) int64 {
		n := gets(it, func(prov.Record) bool { return true })
		for _, r := range it.spill {
			if isPtr(r) {
				n++
			}
		}
		if len(it.spill) > 0 {
			n++
		}
		return n
	}

	if got, want := c.AllRefs(), scan(func(catalogItem) bool { return true }); c.Items() != len(model) || !slices.Equal(got, want) {
		return fmt.Errorf("AllRefs %v (Items %d), want %v", got, c.Items(), want)
	}
	var decode int64
	for _, it := range model {
		decode += itemGets(it)
	}
	if got := c.DecodeGets(); got != decode {
		return fmt.Errorf("DecodeGets %d, want %d", got, decode)
	}

	asks := slices.Clone(values)
	for _, r := range pool {
		asks = append(asks, r.String())
	}
	matches := func(f prov.AttrFilter) func(catalogItem) bool {
		return func(it catalogItem) bool {
			return slices.ContainsFunc(it.inline, func(r prov.Record) bool { return r.Attr == f.Attr && r.Value.String() == f.Value })
		}
	}
	var filters []prov.AttrFilter
	for _, attr := range attrs {
		for _, v := range asks {
			filters = append(filters, prov.AttrFilter{Attr: attr, Value: v})
		}
	}
	for i, f := range filters {
		want := scan(matches(f))
		if got := c.MatchAttrs([]prov.AttrFilter{f}); !slices.Equal(got, want) {
			return fmt.Errorf("MatchAttrs(%v) %v, want %v", f, got, want)
		}
		// A second predicate, from another attribute and value.
		both := []prov.AttrFilter{f, filters[(i*7+len(asks)+1)%len(filters)]}
		want = scan(func(it catalogItem) bool { return matches(both[0])(it) && matches(both[1])(it) })
		if got := c.MatchAttrs(both); !slices.Equal(got, want) {
			return fmt.Errorf("MatchAttrs(%v) %v, want %v", both, got, want)
		}
	}
	if got := c.MatchAttrs(nil); got != nil {
		return fmt.Errorf("MatchAttrs(nil) %v, want nil", got)
	}

	lists := func(it catalogItem, in func(prov.Ref) bool) bool {
		return slices.ContainsFunc(prov.AppendInputs(nil, it.inline), in)
	}
	for i, r := range pool {
		want := scan(func(it catalogItem) bool { return lists(it, func(in prov.Ref) bool { return in == r }) })
		if got := c.Dependents([]prov.Ref{r}); !slices.Equal(got, want) {
			return fmt.Errorf("Dependents(%v) %v, want %v", r, got, want)
		}
		some := pool[i/2 : i+1]
		want = scan(func(it catalogItem) bool {
			return lists(it, func(in prov.Ref) bool { return slices.Contains(some, in) })
		})
		if got := c.Dependents(some); !slices.Equal(got, want) {
			return fmt.Errorf("Dependents(%v) %v, want %v", some, got, want)
		}

		it := model[r]
		if got := c.Records(r); !slices.Equal(got, it.inline) {
			return fmt.Errorf("Records(%v) %v, want %v", r, got, it.inline)
		}
		wantIn := prov.AppendInputs(prov.AppendInputs(nil, it.inline), it.spill)
		if got := c.Inputs(r); !slices.Equal(got, wantIn) {
			return fmt.Errorf("Inputs(%v) %v, want %v", r, got, wantIn)
		}
	}
	for _, prefix := range prefixes {
		want := scan(func(it catalogItem) bool {
			return lists(it, func(in prov.Ref) bool { return strings.HasPrefix(in.String(), prefix) })
		})
		if got := c.DependentsOfPrefix(prefix); !slices.Equal(got, want) {
			return fmt.Errorf("DependentsOfPrefix(%q) %v, want %v", prefix, got, want)
		}
	}

	var items, env, named int64
	for _, r := range pool {
		it := model[r]
		items += itemGets(it)
		env += gets(it, func(r prov.Record) bool { return r.Attr == prov.AttrEnv })
		named += gets(it, func(r prov.Record) bool { return r.Attr == prov.AttrEnv || r.Attr == prov.AttrName })
	}
	if got := c.ItemGets(pool); got != items {
		return fmt.Errorf("ItemGets %d, want %d", got, items)
	}
	if got := c.AttrGets(pool, []string{prov.AttrEnv}); got != env {
		return fmt.Errorf("AttrGets(env) %d, want %d", got, env)
	}
	if got := c.AttrGets(pool, []string{prov.AttrName, prov.AttrEnv}); got != named {
		return fmt.Errorf("AttrGets(name, env) %d, want %d", got, named)
	}
	if got := c.AttrGets(pool, nil); got != 0 {
		return fmt.Errorf("AttrGets(none) %d, want 0", got)
	}
	return nil
}
