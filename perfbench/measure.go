package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// timing is a set of repeated measurements of one quantity.
type timing []float64

func (t timing) sorted() []float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for an
// even count), or NaN when there are no samples.
func (t timing) median() float64 {
	s := t.sorted()
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// top returns the highest percentile that has at least ten samples beyond
// it, and its value. ok is false below eleven samples.
func (t timing) top() (pct, v float64, ok bool) {
	s := t.sorted()
	n := len(s)
	if n < 11 {
		return 0, 0, false
	}
	k := n - 11
	return 100 * float64(k+1) / float64(n), s[k], true
}

// quantile returns the nearest-rank q-quantile (q in (0,1]).
func (t timing) quantile(q float64) float64 {
	s := t.sorted()
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// procCPU returns the process's user plus system CPU time in seconds.
func procCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS collects garbage, returns free memory to the OS and resets
// the kernel's resident-set high-water mark, so that the next peakRSSMB
// reading covers only what runs in between. It fails when the reset is not
// possible: peak_rss_mb would then be the peak of the whole process, a
// different quantity that must not be compared with per-unit records.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("cannot reset the peak RSS, so peak_rss_mb cannot be measured per unit: %w", err)
	}
	return nil
}

// peakRSSMB returns the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// The Go runtime counters the "go" layer reports, read through
// runtime/metrics.
const (
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmAllocs    = "/gc/heap/allocs:objects"
	rmMutexWait = "/sync/mutex/wait/total:seconds"
	rmSched     = "/sched/latencies:seconds"
)

// rtSnap is one reading of the process counters; the difference of two
// readings covers the interval between them.
type rtSnap struct {
	wall      time.Time
	cpu       float64
	gcCPU     float64
	allocs    uint64
	mutexWait float64
	sched     []uint64
	schedB    []float64
}

func snapRuntime() rtSnap {
	ss := []metrics.Sample{{Name: rmGCCPU}, {Name: rmAllocs}, {Name: rmMutexWait}, {Name: rmSched}}
	metrics.Read(ss)
	s := rtSnap{wall: time.Now(), cpu: procCPU()}
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		s.allocs = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		s.mutexWait = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[3].Value.Float64Histogram()
		s.sched = append([]uint64(nil), h.Counts...)
		s.schedB = h.Buckets
	}
	return s
}

// rtDelta is the process activity between two snapshots.
type rtDelta struct {
	wallS, cpuS, gcCPUS, mutexWaitS float64
	allocs                          uint64
	schedP99US                      float64
}

func (a rtSnap) to(b rtSnap) rtDelta {
	d := rtDelta{
		wallS:      b.wall.Sub(a.wall).Seconds(),
		cpuS:       b.cpu - a.cpu,
		gcCPUS:     b.gcCPU - a.gcCPU,
		mutexWaitS: b.mutexWait - a.mutexWait,
		allocs:     b.allocs - a.allocs,
	}
	// p99 of the goroutine scheduling latencies observed in the interval,
	// read as the upper edge of the bucket that holds it.
	if len(a.sched) == len(b.sched) && len(b.sched) > 0 {
		var total uint64
		counts := make([]uint64, len(b.sched))
		for i := range counts {
			counts[i] = b.sched[i] - a.sched[i]
			total += counts[i]
		}
		if total > 0 {
			want := uint64(math.Ceil(0.99 * float64(total)))
			var cum uint64
			for i, c := range counts {
				cum += c
				if cum >= want {
					hi := b.schedB[i+1]
					if math.IsInf(hi, 1) {
						hi = b.schedB[i]
					}
					d.schedP99US = hi * 1e6
					break
				}
			}
		}
	}
	return d
}

// cpuUtil is process CPU time over the wall time all GOMAXPROCS could have
// used.
func (d rtDelta) cpuUtil() float64 {
	if d.wallS <= 0 {
		return 0
	}
	return d.cpuS / (d.wallS * float64(runtime.GOMAXPROCS(0)))
}
