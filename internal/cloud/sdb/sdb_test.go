package sdb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/sim"
)

func newTestService(t testing.TB) (*Service, *sim.VirtualClock, *billing.Meter) {
	t.Helper()
	return newDelayedService(t, 0)
}

func newDelayedService(t testing.TB, maxDelay time.Duration) (*Service, *sim.VirtualClock, *billing.Meter) {
	t.Helper()
	clock := sim.NewVirtualClock()
	meter := &billing.Meter{}
	svc := New(Config{
		Replicas: 3,
		MaxDelay: maxDelay,
		Clock:    clock,
		RNG:      sim.NewRNG(1),
		Meter:    meter,
	})
	if err := svc.CreateDomain("prov"); err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	return svc, clock, meter
}

func putOne(t testing.TB, svc *Service, item string, attrs ...Attr) {
	t.Helper()
	ras := make([]ReplaceableAttr, len(attrs))
	for i, a := range attrs {
		ras[i] = ReplaceableAttr{Name: a.Name, Value: a.Value}
	}
	if err := svc.PutAttributes("prov", item, ras); err != nil {
		t.Fatalf("PutAttributes(%s): %v", item, err)
	}
}

func TestPutGetAttributes(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "foo_2",
		Attr{"input", "bar:2"},
		Attr{"type", "file"},
	)
	attrs, ok, err := svc.GetAttributes("prov", "foo_2")
	if err != nil || !ok {
		t.Fatalf("GetAttributes: %v, ok=%v", err, ok)
	}
	if len(attrs) != 2 {
		t.Fatalf("attrs = %v", attrs)
	}

	filtered, ok, err := svc.GetAttributes("prov", "foo_2", "type")
	if err != nil || !ok || len(filtered) != 1 || filtered[0] != (Attr{"type", "file"}) {
		t.Fatalf("filtered = %v, ok=%v, err=%v", filtered, ok, err)
	}
}

func TestGetMissingItem(t *testing.T) {
	svc, _, _ := newTestService(t)
	attrs, ok, err := svc.GetAttributes("prov", "ghost")
	if err != nil || ok || attrs != nil {
		t.Fatalf("missing item: attrs=%v ok=%v err=%v", attrs, ok, err)
	}
}

func TestMissingDomainErrors(t *testing.T) {
	svc, _, _ := newTestService(t)
	if err := svc.PutAttributes("nope", "i", []ReplaceableAttr{{Name: "a", Value: "1"}}); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("put: %v", err)
	}
	if _, _, err := svc.GetAttributes("nope", "i"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("get: %v", err)
	}
	if _, err := svc.Query("nope", "['a' = '1']", 0, ""); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("query: %v", err)
	}
}

func TestMultiValuedAttributes(t *testing.T) {
	// "an item can have two phone attributes with different values" (§2.2)
	svc, _, _ := newTestService(t)
	putOne(t, svc, "item", Attr{"phone", "111"}, Attr{"phone", "222"})
	attrs, _, _ := svc.GetAttributes("prov", "item")
	if len(attrs) != 2 {
		t.Fatalf("attrs = %v, want two phone values", attrs)
	}
}

func TestPutAttributesIdempotent(t *testing.T) {
	// §2.2: "running PutAttributes multiple times with the same attributes
	// ... will not generate an error", and (name, value) pairs are sets.
	svc, _, _ := newTestService(t)
	for i := 0; i < 3; i++ {
		putOne(t, svc, "item", Attr{"a", "1"}, Attr{"b", "2"})
	}
	attrs, _, _ := svc.GetAttributes("prov", "item")
	if len(attrs) != 2 {
		t.Fatalf("idempotent put duplicated pairs: %v", attrs)
	}
}

func TestDeleteAttributesIdempotent(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "item", Attr{"a", "1"})
	for i := 0; i < 3; i++ {
		if err := svc.DeleteAttributes("prov", "item", []Attr{{Name: "a", Value: "1"}}); err != nil {
			t.Fatalf("delete #%d: %v", i, err)
		}
	}
	if _, ok, _ := svc.GetAttributes("prov", "item"); ok {
		t.Fatal("item survived attribute deletion")
	}
	// Deleting a missing item entirely is also fine.
	if err := svc.DeleteAttributes("prov", "ghost", nil); err != nil {
		t.Fatalf("delete missing item: %v", err)
	}
}

func TestReplaceSemantics(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "item", Attr{"v", "1"}, Attr{"v", "2"})
	if err := svc.PutAttributes("prov", "item", []ReplaceableAttr{{Name: "v", Value: "3", Replace: true}}); err != nil {
		t.Fatal(err)
	}
	attrs, _, _ := svc.GetAttributes("prov", "item")
	if len(attrs) != 1 || attrs[0] != (Attr{"v", "3"}) {
		t.Fatalf("replace left %v", attrs)
	}
}

func TestDeleteByNameOnly(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "item", Attr{"v", "1"}, Attr{"v", "2"}, Attr{"keep", "x"})
	if err := svc.DeleteAttributes("prov", "item", []Attr{{Name: "v"}}); err != nil {
		t.Fatal(err)
	}
	attrs, _, _ := svc.GetAttributes("prov", "item")
	if len(attrs) != 1 || attrs[0] != (Attr{"keep", "x"}) {
		t.Fatalf("name-only delete left %v", attrs)
	}
}

func TestLimits(t *testing.T) {
	svc, _, _ := newTestService(t)

	big := strings.Repeat("v", MaxNameValueLen+1)
	if err := svc.PutAttributes("prov", "i", []ReplaceableAttr{{Name: "a", Value: big}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("1KB value limit: %v", err)
	}
	if err := svc.PutAttributes("prov", "i", []ReplaceableAttr{{Name: big, Value: "v"}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("1KB name limit: %v", err)
	}

	exact := strings.Repeat("v", MaxNameValueLen)
	if err := svc.PutAttributes("prov", "i", []ReplaceableAttr{{Name: "a", Value: exact}}); err != nil {
		t.Fatalf("exactly 1KB value rejected: %v", err)
	}

	many := make([]ReplaceableAttr, MaxAttrsPerCall+1)
	for i := range many {
		many[i] = ReplaceableAttr{Name: fmt.Sprintf("a%d", i), Value: "v"}
	}
	if err := svc.PutAttributes("prov", "i", many); !errors.Is(err, ErrTooManyAttrsPerCall) {
		t.Fatalf("100-per-call limit: %v", err)
	}

	// 256 pairs per item: three calls of 100+100+57 must fail on the last.
	for c := 0; c < 2; c++ {
		batch := make([]ReplaceableAttr, 100)
		for i := range batch {
			batch[i] = ReplaceableAttr{Name: fmt.Sprintf("n%d_%d", c, i), Value: "v"}
		}
		if err := svc.PutAttributes("prov", "full", batch); err != nil {
			t.Fatalf("batch %d: %v", c, err)
		}
	}
	last := make([]ReplaceableAttr, 57)
	for i := range last {
		last[i] = ReplaceableAttr{Name: fmt.Sprintf("n2_%d", i), Value: "v"}
	}
	if err := svc.PutAttributes("prov", "full", last); !errors.Is(err, ErrTooManyAttrsPerItem) {
		t.Fatalf("256-per-item limit: %v", err)
	}

	if err := svc.PutAttributes("prov", "i", nil); !errors.Is(err, ErrInvalidName) {
		t.Fatalf("empty attr list: %v", err)
	}
}

func TestDomainLifecycle(t *testing.T) {
	svc, _, _ := newTestService(t)
	if err := svc.CreateDomain("prov"); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("duplicate domain: %v", err)
	}
	if got := svc.ListDomains(); len(got) != 1 || got[0] != "prov" {
		t.Fatalf("ListDomains = %v", got)
	}
	if err := svc.DeleteDomain("prov"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteDomain("prov"); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := svc.ListDomains(); len(got) != 0 {
		t.Fatalf("ListDomains after delete = %v", got)
	}
}

func TestEventualConsistencyInsertNotImmediatelyQueryable(t *testing.T) {
	// §2.2: "An item inserted might not be returned in a query that is run
	// immediately after the insert."
	svc, clock, _ := newDelayedService(t, 10*time.Second)
	putOne(t, svc, "fresh", Attr{"type", "file"})

	missed := false
	for i := 0; i < 100; i++ {
		res, err := svc.Query("prov", "['type' = 'file']", 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ItemNames) == 0 {
			missed = true
			break
		}
	}
	if !missed {
		t.Fatal("every immediate query saw the fresh insert; anomaly not modeled")
	}

	clock.Advance(11 * time.Second)
	if !svc.Converged() {
		t.Fatal("not converged after max delay")
	}
	res, err := svc.Query("prov", "['type' = 'file']", 0, "")
	if err != nil || len(res.ItemNames) != 1 || res.ItemNames[0] != "fresh" {
		t.Fatalf("after settle: %v, %v", res, err)
	}
}

func TestConvergenceAcrossReplicasQuick(t *testing.T) {
	// Property: after settling, GetAttributes agrees no matter which
	// replica serves, for any random op sequence.
	f := func(seed int64, ops []uint8) bool {
		clock := sim.NewVirtualClock()
		svc := New(Config{
			Replicas: 3,
			MinDelay: time.Second,
			MaxDelay: 20 * time.Second,
			Clock:    clock,
			RNG:      sim.NewRNG(seed),
			Meter:    &billing.Meter{},
		})
		if err := svc.CreateDomain("d"); err != nil {
			return false
		}
		for i, op := range ops {
			item := fmt.Sprintf("i%d", op%5)
			switch op % 3 {
			case 0:
				_ = svc.PutAttributes("d", item, []ReplaceableAttr{{Name: "a", Value: fmt.Sprintf("%d", i)}})
			case 1:
				_ = svc.PutAttributes("d", item, []ReplaceableAttr{{Name: "a", Value: fmt.Sprintf("%d", i), Replace: true}})
			case 2:
				_ = svc.DeleteAttributes("d", item, nil)
			}
			clock.Advance(time.Duration(op) * time.Millisecond)
		}
		clock.Advance(21 * time.Second)
		// Sample each item many times; all reads must agree.
		for v := 0; v < 5; v++ {
			item := fmt.Sprintf("i%d", v)
			var first []Attr
			var firstOK bool
			for trial := 0; trial < 12; trial++ {
				attrs, ok, err := svc.GetAttributes("d", item)
				if err != nil {
					return false
				}
				if trial == 0 {
					first, firstOK = attrs, ok
					continue
				}
				if ok != firstOK || len(attrs) != len(first) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageAccounting(t *testing.T) {
	svc, _, meter := newTestService(t)
	meter.Reset()
	putOne(t, svc, "item", Attr{"name", "value"}) // 4+45 + 4+5 = 58
	if got := meter.Snapshot().Storage(billing.SimpleDB); got != 58 {
		t.Fatalf("Storage = %d, want 58 (item+overhead+attr bytes)", got)
	}
	if err := svc.DeleteAttributes("prov", "item", nil); err != nil {
		t.Fatal(err)
	}
	if got := meter.Snapshot().Storage(billing.SimpleDB); got != 0 {
		t.Fatalf("Storage after delete = %d, want 0", got)
	}
}

func TestOpMetering(t *testing.T) {
	svc, _, meter := newTestService(t)
	meter.Reset()
	putOne(t, svc, "i", Attr{"a", "1"})
	if _, _, err := svc.GetAttributes("prov", "i"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query("prov", "['a' = '1']", 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Select("select * from prov", ""); err != nil {
		t.Fatal(err)
	}
	u := meter.Snapshot()
	for _, op := range []string{"PutAttributes", "GetAttributes", "Query", "Select"} {
		if got := u.OpCount(billing.SimpleDB, op); got != 1 {
			t.Fatalf("OpCount(%s) = %d, want 1", op, got)
		}
	}
	if got := u.OpsByTier(billing.SimpleDB, billing.TierBox); got != 4 {
		t.Fatalf("box-tier ops = %d, want 4", got)
	}
}

func TestItemCount(t *testing.T) {
	svc, _, _ := newTestService(t)
	putOne(t, svc, "a", Attr{"x", "1"})
	putOne(t, svc, "b", Attr{"x", "1"})
	n, err := svc.ItemCount("prov")
	if err != nil || n != 2 {
		t.Fatalf("ItemCount = %d, %v", n, err)
	}
	if _, err := svc.ItemCount("nope"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("ItemCount missing domain: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	svc, _, _ := newTestService(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				item := fmt.Sprintf("i%d", i%10)
				_ = svc.PutAttributes("prov", item, []ReplaceableAttr{{Name: "a", Value: fmt.Sprintf("%d", w)}})
				_, _, _ = svc.GetAttributes("prov", item)
				_, _ = svc.Query("prov", "['a' >= '0']", 0, "")
			}
		}(w)
	}
	wg.Wait()
	n, err := svc.ItemCount("prov")
	if err != nil || n != 10 {
		t.Fatalf("ItemCount = %d, %v", n, err)
	}
}

func TestBatchPutAttributes(t *testing.T) {
	svc, _, meter := newTestService(t)
	meter.Reset()

	items := make([]BatchItem, MaxItemsPerBatch)
	for i := range items {
		items[i] = BatchItem{
			Name:  fmt.Sprintf("batch_%02d", i),
			Attrs: []ReplaceableAttr{{Name: "type", Value: "file"}, {Name: "seq", Value: fmt.Sprintf("%d", i)}},
		}
	}
	if err := svc.BatchPutAttributes("prov", items); err != nil {
		t.Fatalf("BatchPutAttributes: %v", err)
	}

	// One metered op covers all 25 items — the whole point of batching.
	u := meter.Snapshot()
	if got := u.OpCount(billing.SimpleDB, "BatchPutAttributes"); got != 1 {
		t.Fatalf("OpCount(BatchPutAttributes) = %d, want 1", got)
	}
	for _, it := range items {
		attrs, ok, err := svc.GetAttributes("prov", it.Name)
		if err != nil || !ok {
			t.Fatalf("GetAttributes(%s): %v ok=%v", it.Name, err, ok)
		}
		if len(attrs) != 2 {
			t.Fatalf("attrs(%s) = %v", it.Name, attrs)
		}
	}
}

func TestBatchPutAttributesLimits(t *testing.T) {
	svc, _, _ := newTestService(t)

	one := func(name string) BatchItem {
		return BatchItem{Name: name, Attrs: []ReplaceableAttr{{Name: "a", Value: "1"}}}
	}

	// 26 items exceed the 25-item limit.
	over := make([]BatchItem, MaxItemsPerBatch+1)
	for i := range over {
		over[i] = one(fmt.Sprintf("i%02d", i))
	}
	if err := svc.BatchPutAttributes("prov", over); !errors.Is(err, ErrTooManyItemsPerBatch) {
		t.Fatalf("26-item batch: err = %v, want ErrTooManyItemsPerBatch", err)
	}

	// Duplicate item names are rejected.
	if err := svc.BatchPutAttributes("prov", []BatchItem{one("dup"), one("dup")}); !errors.Is(err, ErrDuplicateItemInBatch) {
		t.Fatalf("duplicate batch: err = %v, want ErrDuplicateItemInBatch", err)
	}

	// A bad item anywhere in the batch stores nothing (all-or-nothing
	// validation): the good sibling must not appear.
	bad := BatchItem{Name: "bad", Attrs: []ReplaceableAttr{{Name: "", Value: "x"}}}
	if err := svc.BatchPutAttributes("prov", []BatchItem{one("good"), bad}); err == nil {
		t.Fatal("batch with invalid attribute accepted")
	}
	if _, ok, err := svc.GetAttributes("prov", "good"); err != nil || ok {
		t.Fatalf("partial batch applied: good exists=%v err=%v", ok, err)
	}

	// Empty and missing-domain calls fail cleanly.
	if err := svc.BatchPutAttributes("prov", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := svc.BatchPutAttributes("nope", []BatchItem{one("x")}); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("missing domain: err = %v", err)
	}
}
