package e2e

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples collects durations and reports order statistics.
type samples []time.Duration

// add records the time since start.
func (s *samples) add(start time.Time) { *s = append(*s, time.Since(start)) }

// percentile returns the p-th percentile (nearest rank) of the sample, 0
// when empty.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounters samples the allocator and collector. ReadMemStats stops the
// world, so it is only called at phase boundaries.
type heapCounters struct {
	allocBytes uint64
	gcPause    time.Duration
	gcCycles   uint32
}

func readHeap() heapCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapCounters{allocBytes: m.TotalAlloc, gcPause: time.Duration(m.PauseTotalNs), gcCycles: m.NumGC}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
