// Package cloud bundles the three simulated AWS services the paper's
// architectures build on, wired to one clock, one deterministic random
// source, and one billing meter.
package cloud

import (
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/replica"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/sim"
)

// Config parameterizes a simulated AWS region.
type Config struct {
	// Seed drives all randomness (replica choice, delays, sampling).
	Seed int64
	// MaxDelay bounds eventual-consistency propagation. Zero gives strong
	// consistency — useful when a test targets something else.
	MaxDelay time.Duration
	// Faults optionally injects service-side failures — throttles,
	// permanent denials, applied-but-response-lost ops — into every service
	// of the region. Nil injects nothing. Client-side crash points use the
	// same plan but are checked by protocol code, not the services.
	Faults *sim.FaultPlan
}

// Cloud is one simulated AWS region.
type Cloud struct {
	Clock *sim.VirtualClock
	RNG   *sim.RNG
	Meter *billing.Meter
	S3    *s3.Service
	SDB   *sdb.Service
	SQS   *sqs.Service

	maxDelay time.Duration
}

// New builds a region.
func New(cfg Config) *Cloud {
	return newOnClock(cfg, sim.NewVirtualClock())
}

// newOnClock builds a region on an existing clock — the constructor Multi
// uses so all of its namespaces share one time source.
func newOnClock(cfg Config, clock *sim.VirtualClock) *Cloud {
	rng := sim.NewRNG(cfg.Seed)
	meter := &billing.Meter{}
	c := &Cloud{
		Clock:    clock,
		RNG:      rng,
		Meter:    meter,
		maxDelay: cfg.MaxDelay,
	}
	c.S3 = s3.New(s3.Config{
		Replication: replica.Config{
			MaxDelay: cfg.MaxDelay,
			Clock:    clock,
			RNG:      rng,
		},
		Meter:  meter,
		Faults: cfg.Faults,
	})
	c.SDB = sdb.New(sdb.Config{
		MaxDelay: cfg.MaxDelay,
		Clock:    clock,
		RNG:      rng,
		Meter:    meter,
		Faults:   cfg.Faults,
	})
	c.SQS = sqs.New(sqs.Config{
		Clock:  clock,
		RNG:    rng,
		Meter:  meter,
		Faults: cfg.Faults,
	})
	return c
}

// Settle advances the clock past the propagation horizon so every service
// converges. Tests and the harness call it between phases.
func (c *Cloud) Settle() {
	c.Clock.Advance(c.maxDelay + time.Millisecond)
}

// Usage returns the current billing snapshot.
func (c *Cloud) Usage() billing.Usage { return c.Meter.Snapshot() }

// MaxDelay returns the region's propagation horizon (zero when strongly
// consistent). Query caches use it to bound how long a snapshot taken from
// a possibly stale replica may be served.
func (c *Cloud) MaxDelay() time.Duration { return c.maxDelay }
