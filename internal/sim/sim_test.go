package sim

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockStartsAtEpoch(t *testing.T) {
	c := NewVirtualClock()
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want epoch %v", got, Epoch)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(3 * time.Second)
	if got, want := c.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestVirtualClockIgnoresNegativeAdvance(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(time.Second)
	before := c.Now()
	c.Advance(-time.Hour)
	if got := c.Now(); !got.Equal(before) {
		t.Fatalf("negative Advance moved clock: %v -> %v", before, got)
	}
}

func TestVirtualClockSetMonotonic(t *testing.T) {
	c := NewVirtualClock()
	target := Epoch.Add(time.Hour)
	c.Set(target)
	if got := c.Now(); !got.Equal(target) {
		t.Fatalf("Set forward failed: Now() = %v, want %v", got, target)
	}
	c.Set(Epoch) // earlier: must be ignored
	if got := c.Now(); !got.Equal(target) {
		t.Fatalf("Set backwards moved clock: Now() = %v, want %v", got, target)
	}
}

func TestVirtualClockConcurrentAdvance(t *testing.T) {
	c := NewVirtualClock()
	const workers, steps = 8, 100
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				c.Advance(time.Millisecond)
				_ = c.Now()
			}
		}()
	}
	wg.Wait()
	want := Epoch.Add(workers * steps * time.Millisecond)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("lost advances under concurrency: Now() = %v, want %v", got, want)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("same-seed RNGs diverged at draw %d: %d != %d", i, x, y)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("differently seeded RNGs produced identical streams")
	}
}

func TestRNGHex(t *testing.T) {
	g := NewRNG(7)
	s := g.Hex(16)
	if len(s) != 32 {
		t.Fatalf("Hex(16) length = %d, want 32", len(s))
	}
	for _, r := range s {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			t.Fatalf("Hex produced non-hex rune %q in %q", r, s)
		}
	}
	if g.Hex(16) == s {
		t.Fatal("consecutive Hex calls returned identical strings")
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(3)
	f := func(seed int64) bool {
		return g.LogNormal(8, 2) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnRange(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestRNGConcurrentUse(t *testing.T) {
	g := NewRNG(5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Intn(100)
				g.Float64()
				g.Hex(4)
			}
		}()
	}
	wg.Wait() // race detector is the assertion here
}

// testPoints are the crash points these tests arm.
var testPoints Points

var pointA, pointB = testPoints.Declare("a"), testPoints.Declare("b")

func TestPointsDeclareInOrder(t *testing.T) {
	var ps Points
	a := ps.Declare("p/a")
	b := ps.DeclareWindow("p/b")
	c := ps.DeclareWindow("p/c")
	if len(ps) != 3 || ps[0] != a || ps[1] != b || ps[2] != c {
		t.Fatalf("declared %v, want [p/a p/b p/c]", ps)
	}
	if w := ps.Windows(); len(w) != 2 || w[0] != b || w[1] != c {
		t.Fatalf("windows %v, want [p/b p/c]", w)
	}
	if a.String() != "p/a" {
		t.Fatalf("String() = %q", a)
	}
}

func TestFaultPlanFiresOnce(t *testing.T) {
	p := NewFaultPlan()
	p.Arm(pointA)
	err := p.Check(pointA)
	if err == nil {
		t.Fatal("armed point did not fire")
	}
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("crash error not wrapped as ErrCrash: %v", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Point != "a" {
		t.Fatalf("crash error missing point: %v", err)
	}
	if err := p.Check(pointA); err != nil {
		t.Fatalf("point fired twice: %v", err)
	}
	if got := p.Fired(pointA); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestFaultPlanArmAfterSkips(t *testing.T) {
	p := NewFaultPlan()
	p.ArmAfter(pointA, 2)
	for i := 0; i < 2; i++ {
		if err := p.Check(pointA); err != nil {
			t.Fatalf("fired on check %d, want skip", i)
		}
	}
	if err := p.Check(pointA); err == nil {
		t.Fatal("did not fire on third check")
	}
}

func TestFaultPlanUnarmedPoint(t *testing.T) {
	p := NewFaultPlan()
	p.Arm(pointA)
	if err := p.Check(pointB); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	if !p.Pending() {
		t.Fatal("Pending() = false with an armed fault outstanding")
	}
}

func TestNilFaultPlanIsInert(t *testing.T) {
	var p *FaultPlan
	if err := p.Check(pointA); err != nil {
		t.Fatalf("nil plan crashed: %v", err)
	}
	if p.Fired(pointA) != 0 || p.Pending() {
		t.Fatal("nil plan reported state")
	}
	p.Arm(pointA) // must not panic
}

func TestFaultPlanConcurrent(t *testing.T) {
	p := NewFaultPlan()
	p.ArmAfter(pointA, 500)
	var wg sync.WaitGroup
	var mu sync.Mutex
	crashes := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := p.Check(pointA); err != nil {
					mu.Lock()
					crashes++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if crashes != 1 {
		t.Fatalf("crash fired %d times, want exactly 1", crashes)
	}
}
