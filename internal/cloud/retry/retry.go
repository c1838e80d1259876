// Package retry is the shared resilience policy for cloud I/O: jittered
// exponential backoff around individual service calls, bounded per-op by an
// attempt count and a total-wait budget, aware of context cancellation, and
// metered so the cost harness can report how much of a run's traffic was
// retry overhead.
//
// Only transient errors (awserr.Transient) are retried. Injected client
// crashes (sim.ErrCrash) and permanent service errors surface immediately —
// a crash is not an I/O failure, and retrying a permanent error only burns
// budget. Because the transient class includes lost responses
// (awserr.ErrRequestTimeout), every operation wrapped in a Retrier must be
// idempotent under re-apply; the fault sweep in internal/core/sweep proves
// each wrapped site is.
package retry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"passcloud/internal/cloud/awserr"
	"passcloud/internal/sim"
)

// Policy bounds one operation's retry behaviour. The zero value means
// defaults, so configs can embed a Policy without ceremony.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 6).
	MaxAttempts int
	// BaseDelay is the first backoff interval (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff interval.
	MaxDelay time.Duration
	// Budget caps the total backoff wait one operation may accumulate
	// (default 15s). Attempts stop when the next wait would exceed it.
	Budget time.Duration
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 15 * time.Second
	}
	return p
}

// OpStats counts one operation site's retry activity.
type OpStats struct {
	// Attempts is every call of the wrapped function, first tries included.
	Attempts int64
	// Retries is attempts beyond the first.
	Retries int64
	// Recovered counts operations that succeeded after at least one retry.
	Recovered int64
	// Exhausted counts operations that gave up: transient failures that
	// outlived the attempt count or wait budget.
	Exhausted int64
	// Wait is the total (virtual) time spent backing off.
	Wait time.Duration
}

// add accumulates o into the receiver.
func (s *OpStats) add(o OpStats) {
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Recovered += o.Recovered
	s.Exhausted += o.Exhausted
	s.Wait += o.Wait
}

// Snapshot is an immutable copy of a Retrier's counters.
type Snapshot struct {
	// Ops maps operation site names to their counters.
	Ops map[string]OpStats
	// Total sums every site.
	Total OpStats
}

// Add returns the site-wise sum of two snapshots — how a sharded store's
// members fold into one report.
func (s Snapshot) Add(o Snapshot) Snapshot {
	sum := Snapshot{Ops: make(map[string]OpStats, len(s.Ops)+len(o.Ops)), Total: s.Total}
	sum.Total.add(o.Total)
	for _, ops := range []map[string]OpStats{s.Ops, o.Ops} {
		for name, st := range ops {
			have := sum.Ops[name]
			have.add(st)
			sum.Ops[name] = have
		}
	}
	return sum
}

// String renders the snapshot one site per line, sorted, for reports.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Ops))
	for k := range s.Ops {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		o := s.Ops[k]
		fmt.Fprintf(&b, "%-32s attempts=%d retries=%d recovered=%d exhausted=%d wait=%s\n",
			k, o.Attempts, o.Retries, o.Recovered, o.Exhausted, o.Wait)
	}
	return b.String()
}

// ErrExhausted wraps the final transient error when a Retrier gives up, so
// callers can distinguish "retried and lost" from "failed immediately".
var ErrExhausted = errors.New("retry: budget exhausted")

// Retrier executes operations under a Policy, advancing the simulated clock
// through backoff waits and metering every site. A nil *Retrier executes
// operations once with no retries, so call sites need no guards.
type Retrier struct {
	policy Policy
	clock  sim.Clock
	rng    *sim.RNG

	mu  sync.Mutex
	ops map[string]OpStats
}

// New builds a Retrier. clock drives the backoff waits (a *sim.VirtualClock
// advances; any other clock makes waits instantaneous, which is what tests
// on wall clocks want); rng supplies jitter.
func New(policy Policy, clock sim.Clock, rng *sim.RNG) *Retrier {
	return &Retrier{
		policy: policy.withDefaults(),
		clock:  clock,
		rng:    rng,
		ops:    make(map[string]OpStats),
	}
}

// Do runs f under the retry policy, metering against the op site name.
// Transient errors back off and retry; permanent errors, injected crashes
// and context cancellation surface immediately. When attempts or budget run
// out the last transient error is returned wrapped in ErrExhausted.
func (r *Retrier) Do(ctx context.Context, op string, f func() error) error {
	if r == nil {
		return f()
	}
	var waited time.Duration
	for attempt := 1; ; attempt++ {
		r.record(op, func(s *OpStats) { s.Attempts++ })
		err := f()
		if err == nil {
			if attempt > 1 {
				r.record(op, func(s *OpStats) { s.Recovered++ })
			}
			return nil
		}
		if errors.Is(err, sim.ErrCrash) || !awserr.Transient(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		delay := r.backoff(attempt)
		if attempt >= r.policy.MaxAttempts || waited+delay > r.policy.Budget {
			r.record(op, func(s *OpStats) { s.Exhausted++ })
			return fmt.Errorf("%w after %d attempts (%s waited): %w", ErrExhausted, attempt, waited, err)
		}
		r.wait(delay)
		waited += delay
		r.record(op, func(s *OpStats) { s.Retries++; s.Wait += delay })
	}
}

// backoff computes the jittered exponential delay before retry number
// attempt (1-based: the wait after the first failure uses attempt 1).
// Full jitter on the upper half keeps herds apart while preserving a
// deterministic lower bound: delay ∈ [cap/2, cap].
func (r *Retrier) backoff(attempt int) time.Duration {
	cap := r.policy.BaseDelay << (attempt - 1)
	if cap <= 0 || cap > r.policy.MaxDelay {
		cap = r.policy.MaxDelay
	}
	half := cap / 2
	jitter := time.Duration(0)
	if r.rng != nil && half > 0 {
		jitter = time.Duration(r.rng.Float64() * float64(half))
	}
	return half + jitter
}

// wait advances the virtual clock through the backoff. Non-virtual clocks
// (wall-clock demos) skip the wait: real sleeping would only slow the
// simulation down without changing any observable ordering.
func (r *Retrier) wait(d time.Duration) {
	type advancer interface{ Advance(time.Duration) }
	if vc, ok := r.clock.(advancer); ok {
		vc.Advance(d)
	}
}

// record applies one mutation to an op's counters.
func (r *Retrier) record(op string, f func(*OpStats)) {
	r.mu.Lock()
	s := r.ops[op]
	f(&s)
	r.ops[op] = s
	r.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (r *Retrier) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Ops: map[string]OpStats{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{Ops: make(map[string]OpStats, len(r.ops))}
	for k, v := range r.ops {
		out.Ops[k] = v
		out.Total.add(v)
	}
	return out
}
