// Package sim provides the simulation substrate shared by every simulated
// cloud service in this repository: a controllable clock, a deterministic
// random source, and fault-injection plans.
//
// The paper's analysis depends on behaviours that are awkward to observe on
// real infrastructure — eventual-consistency anomalies, client crashes at
// precise protocol steps, message-retention expiry measured in days. Driving
// every service from a virtual clock and explicit fault plans makes each of
// those behaviours reachable deterministically in tests and benchmarks.
package sim

import (
	"sync"
	"time"
)

// Clock is the time source used by all simulated services.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current simulated time.
	Now() time.Time
}

// Epoch is the instant at which fresh virtual clocks start. The specific
// value is arbitrary but fixed so that runs are reproducible; it matches the
// AWS feature snapshot date the paper uses (January 2009).
var Epoch = time.Date(2009, time.January, 15, 0, 0, 0, 0, time.UTC)

// VirtualClock is a manually advanced Clock. The zero value is not usable;
// create one with NewVirtualClock.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock positioned at Epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: Epoch}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative durations are ignored:
// simulated time never moves backwards.
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Set positions the clock at t if t is later than the current time.
// Earlier instants are ignored so time remains monotonic.
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}
