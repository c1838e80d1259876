package retry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"passcloud/internal/cloud/awserr"
	"passcloud/internal/sim"
)

func newTestRetrier(p Policy) (*Retrier, *sim.VirtualClock) {
	clock := sim.NewVirtualClock()
	return New(p, clock, sim.NewRNG(1)), clock
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	r, clock := newTestRetrier(Policy{})
	start := clock.Now()
	attempts := 0
	err := r.Do(context.Background(), "op", func() error {
		attempts++
		if attempts < 3 {
			return fmt.Errorf("wrapped: %w", awserr.ErrThrottled)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if !clock.Now().After(start) {
		t.Fatal("backoff did not advance the virtual clock")
	}
	s := r.Snapshot()
	op := s.Ops["op"]
	if op.Attempts != 3 || op.Retries != 2 || op.Recovered != 1 || op.Exhausted != 0 {
		t.Fatalf("stats = %+v", op)
	}
	if s.Total.Wait == 0 {
		t.Fatal("no wait time recorded")
	}
}

func TestDoSurfacesPermanentImmediately(t *testing.T) {
	r, _ := newTestRetrier(Policy{})
	attempts := 0
	sentinel := errors.New("NoSuchKey")
	err := r.Do(context.Background(), "op", func() error {
		attempts++
		return sentinel
	})
	if !errors.Is(err, sentinel) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d; permanent errors must not retry", err, attempts)
	}
}

func TestDoNeverRetriesClientCrashes(t *testing.T) {
	r, _ := newTestRetrier(Policy{})
	attempts := 0
	err := r.Do(context.Background(), "op", func() error {
		attempts++
		return &sim.CrashError{Point: "x"}
	})
	if !errors.Is(err, sim.ErrCrash) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d; a dead client cannot retry", err, attempts)
	}
}

func TestDoExhaustsAttemptBudget(t *testing.T) {
	r, _ := newTestRetrier(Policy{MaxAttempts: 3})
	attempts := 0
	err := r.Do(context.Background(), "op", func() error {
		attempts++
		return awserr.ErrThrottled
	})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, awserr.ErrThrottled) {
		t.Fatalf("exhaustion must wrap the final transient error: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if s := r.Snapshot().Ops["op"]; s.Exhausted != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDoHonorsWaitBudget(t *testing.T) {
	r, clock := newTestRetrier(Policy{MaxAttempts: 100, BaseDelay: 40 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Budget: 100 * time.Millisecond})
	start := clock.Now()
	err := r.Do(context.Background(), "op", func() error { return awserr.ErrThrottled })
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if waited := clock.Now().Sub(start); waited > 100*time.Millisecond {
		t.Fatalf("waited %v, beyond the 100ms budget", waited)
	}
}

func TestDoRespectsContextCancellation(t *testing.T) {
	r, _ := newTestRetrier(Policy{})
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	err := r.Do(ctx, "op", func() error {
		attempts++
		cancel()
		return awserr.ErrThrottled
	})
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d; cancellation must stop retries", err, attempts)
	}
}

func TestNilRetrierRunsOnce(t *testing.T) {
	var r *Retrier
	attempts := 0
	err := r.Do(context.Background(), "op", func() error {
		attempts++
		return awserr.ErrThrottled
	})
	if attempts != 1 || !errors.Is(err, awserr.ErrThrottled) {
		t.Fatalf("nil retrier must run exactly once: attempts=%d err=%v", attempts, err)
	}
}

func TestBackoffIsBoundedAndGrowing(t *testing.T) {
	r, _ := newTestRetrier(Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond})
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		d := r.backoff(attempt)
		cap := r.policy.BaseDelay << (attempt - 1)
		if cap > r.policy.MaxDelay || cap <= 0 {
			cap = r.policy.MaxDelay
		}
		if d < cap/2 || d > cap {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, cap/2, cap)
		}
		if cap > prevMax {
			prevMax = cap
		}
	}
	if prevMax != 80*time.Millisecond {
		t.Fatalf("backoff never reached the cap: %v", prevMax)
	}
}

// TestSnapshotAdd: summing snapshots merges shared sites, keeps disjoint
// ones, and leaves both operands untouched.
func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Ops: map[string]OpStats{"put": {Attempts: 3, Retries: 1, Wait: time.Second}},
		Total: OpStats{Attempts: 3, Retries: 1, Wait: time.Second}}
	b := Snapshot{Ops: map[string]OpStats{"put": {Attempts: 2, Recovered: 1}, "get": {Attempts: 5, Exhausted: 1}},
		Total: OpStats{Attempts: 7, Recovered: 1, Exhausted: 1}}
	sum := Snapshot{}.Add(a).Add(b)
	want := Snapshot{Ops: map[string]OpStats{
		"put": {Attempts: 5, Retries: 1, Recovered: 1, Wait: time.Second},
		"get": {Attempts: 5, Exhausted: 1},
	}, Total: OpStats{Attempts: 10, Retries: 1, Recovered: 1, Exhausted: 1, Wait: time.Second}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("sum = %+v, want %+v", sum, want)
	}
	if a.Ops["put"].Attempts != 3 || len(b.Ops) != 2 {
		t.Fatalf("Add mutated an operand: %+v %+v", a, b)
	}
}
