package e2e

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
	"time"
)

// The sandbox this benchmark runs on is a shared virtual machine whose
// speed drifts: the same binary on the same seed reads 10–20% slower for
// minutes at a time, and CPU time per operation drifts with it. A bound on
// a raw wall-clock reading would have to be wider than any change worth
// gating. So every time the benchmark reports is taken against a
// calibration: a fixed, allocation-free piece of work (hashing, sorting, a
// dependent walk through memory) that the benchmark itself runs several
// times a second, between the program's operations. Every time a run
// reports is multiplied by nominal ÷ the run's median calibration time, so
// it is expressed in the time units of a machine on which the calibration
// work takes exactly calNominal. One factor per run, not one per reading:
// the drift is slow against a 20 s run, and a single calibration point is
// itself noisy (±15%), so only their median is steadier than what it
// corrects. The program under test never runs inside the calibration, so a
// change to the program moves only the readings.

const (
	// calNominal is the calibration work's duration on the reference
	// sandbox when it is quiet. It only fixes the unit.
	calNominal = 2 * time.Millisecond
	// calEvery is the longest stretch of a measured phase that goes
	// without a calibration point.
	calEvery = 250 * time.Millisecond
)

// calPoint is one calibration: when it was taken and how long the work
// took.
type calPoint struct {
	at, took time.Duration
}

// calibrator owns the reference work and the points taken so far.
type calibrator struct {
	epoch time.Time
	hash  []byte
	keys  []uint64
	walk  []uint32

	mu     sync.Mutex
	points []calPoint
	spent  time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{epoch: time.Now(), hash: make([]byte, 128<<10), keys: make([]uint64, 8<<10), walk: make([]uint32, 1<<20)}
	// A single cycle through walk in a scrambled order: every step of the
	// walk depends on the one before it and misses the caches.
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { x ^= x >> 12; x ^= x << 25; x ^= x >> 27; return x * 0x2545F4914F6CDD1D }
	order := make([]uint32, len(c.walk))
	for i := range order {
		order[i] = uint32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for i, at := range order {
		c.walk[at] = order[(i+1)%len(order)]
	}
	for i := range c.hash {
		c.hash[i] = byte(next())
	}
	return c
}

// work is the reference work, once.
func (c *calibrator) work(scratch []uint64) uint64 {
	sum := sha256.Sum256(c.hash)
	x := binary.LittleEndian.Uint64(sum[:8])
	for i := range scratch {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		scratch[i] = x * 0x2545F4914F6CDD1D
	}
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	at := uint32(scratch[0] % uint64(len(c.walk)))
	for i := 0; i < 32<<10; i++ {
		at = c.walk[at]
	}
	return uint64(at) + scratch[len(scratch)/2]
}

var calSink uint64

// measure takes one calibration point: the fastest of three runs of the
// work, so a scheduling hiccup inside one run does not read as a slow
// machine while a slow machine still slows all three.
func (c *calibrator) measure() {
	start := time.Now()
	scratch := c.keys
	c.mu.Lock()
	defer c.mu.Unlock()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t := time.Now()
		calSink += c.work(scratch)
		best = min(best, time.Since(t))
	}
	c.points = append(c.points, calPoint{at: start.Sub(c.epoch), took: best})
	c.spent += time.Since(start)
}

// due takes a calibration point when the last one is older than calEvery.
func (c *calibrator) due() {
	c.mu.Lock()
	stale := len(c.points) == 0 || time.Since(c.epoch)-c.points[len(c.points)-1].at > calEvery
	c.mu.Unlock()
	if stale {
		c.measure()
	}
}

// timeSpent is the wall time calibration has used so far; phases subtract
// what was spent inside them.
func (c *calibrator) timeSpent() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}

// durations lists how long the work took at every point so far.
func (c *calibrator) durations() samples {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(samples, len(c.points))
	for i, p := range c.points {
		out[i] = p.took
	}
	return out
}

// factor is nominal ÷ the run's median calibration time.
func (c *calibrator) factor() float64 {
	return float64(calNominal) / float64(c.durations().percentile(50))
}
