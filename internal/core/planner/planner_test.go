package planner

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/prov"
)

func pref(obj string, v int) prov.Ref {
	return prov.Ref{Object: prov.ObjectID(obj), Version: prov.Version(v)}
}

func TestSDBCatalogObserveReplace(t *testing.T) {
	c := NewSDBCatalog()
	s := pref("/f", 0)
	c.Observe(s, []prov.Record{
		prov.NewString(s, prov.AttrName, "blast"),
		prov.NewString(s, prov.AttrEnv, core.PointerValue("prov/x/0")),
	}, nil)
	if got := c.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}}); len(got) != 1 {
		t.Fatalf("MatchAttrs = %v", got)
	}
	if c.ItemGets([]prov.Ref{s}) != 1 {
		t.Fatal("pointer value must cost one decode GET")
	}

	// A rewrite replaces: the old index entries disappear.
	c.Observe(s, []prov.Record{prov.NewString(s, prov.AttrName, "align")}, nil)
	if got := c.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}}); len(got) != 0 {
		t.Fatalf("stale index entry survived: %v", got)
	}
	if c.Items() != 1 || c.ItemGets([]prov.Ref{s}) != 0 {
		t.Fatalf("replace semantics broken: items=%d gets=%d", c.Items(), c.ItemGets([]prov.Ref{s}))
	}
}

func TestSDBCatalogSpillNotIndexed(t *testing.T) {
	c := NewSDBCatalog()
	s := pref("/f", 0)
	inline := []prov.Record{prov.NewString(s, prov.AttrType, prov.TypeFile)}
	spill := []prov.Record{prov.NewString(s, prov.AttrName, "hidden")}
	c.Observe(s, inline, spill)
	if got := c.MatchAttrs([]prov.AttrFilter{{Attr: prov.AttrName, Value: "hidden"}}); len(got) != 0 {
		t.Fatalf("spilled record entered the index: %v", got)
	}
	if c.ItemGets([]prov.Ref{s}) != 1 {
		t.Fatal("spill object must cost one decode GET")
	}
}

func TestSDBCatalogDependentsAndOrder(t *testing.T) {
	c := NewSDBCatalog()
	parent := pref("/p", 0)
	// Versions 2 and 10: item-name order is lexicographic, so _10 sorts
	// before _2 — the order the real backend returns.
	d2, d10 := pref("/d", 2), pref("/d", 10)
	c.Observe(d2, []prov.Record{prov.NewInput(d2, parent)}, nil)
	c.Observe(d10, []prov.Record{prov.NewInput(d10, parent)}, nil)

	got := c.Dependents([]prov.Ref{parent})
	want := []prov.Ref{d10, d2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Dependents order = %v, want item-name order %v", got, want)
	}
	if got := c.DependentsOfPrefix("/p:"); !reflect.DeepEqual(got, want) {
		t.Fatalf("DependentsOfPrefix = %v", got)
	}
}

func TestS3CatalogScanCost(t *testing.T) {
	c := NewS3Catalog()
	c.Observe("data/a", 2)
	c.Observe("data/b", 0)
	c.Observe("data/a", 1) // replace
	objects, gets := c.ScanCost()
	if objects != 2 || gets != 1 {
		t.Fatalf("ScanCost = %d objects, %d gets", objects, gets)
	}
}

// TestSDBCatalogConcurrentUse: writes (Observe, Forget) and plans (every
// reader, and the records Records hands out read after it returns) run side
// by side. The graph changes its nodes in place, so this is the race
// detector's case.
func TestSDBCatalogConcurrentUse(t *testing.T) {
	c := NewSDBCatalog()
	parent := pref("/p", 0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := pref(fmt.Sprintf("/w%d/%d", w, i%20), i%3)
				c.Observe(s, []prov.Record{prov.NewString(s, prov.AttrName, "blast"), prov.NewInput(s, parent)}, nil)
				if i%7 == 0 {
					c.Forget(s)
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := []prov.AttrFilter{{Attr: prov.AttrName, Value: "blast"}}
			for i := 0; i < 200; i++ {
				for _, s := range c.MatchAttrs(name) {
					core.MatchAll(c.Records(s), name)
				}
				c.Dependents([]prov.Ref{parent})
				c.DependentsOfPrefix("/p:")
				c.AllRefs()
			}
		}()
	}
	wg.Wait()
}
