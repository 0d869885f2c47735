package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile is the nearest-rank q-quantile of ds (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs (the mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs reads the cumulative count and bytes of heap allocations.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// heapInuse is runtime.MemStats.HeapInuse read through runtime/metrics,
// which does not stop the world.
func heapInuse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// heapPeak samples heapInuse every few milliseconds until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func watchHeap(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		peak := heapInuse()
		for {
			select {
			case <-tick.C:
				peak = max(peak, heapInuse())
			case <-h.stop:
				h.done <- max(peak, heapInuse())
				return
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// gcStats is a snapshot of the collector's cycle count and pause histogram.
type gcStats struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return gcStats{cycles: s[0].Value.Uint64(), pauses: s[1].Value.Float64Histogram()}
}

// pauseQuantile is the q-quantile of the GC pauses between two snapshots,
// taken as the upper edge of the histogram bucket it falls in, and the
// number of pauses.
func pauseQuantile(before, after gcStats, q float64) (time.Duration, uint64) {
	counts := make([]uint64, len(after.pauses.Counts))
	var n uint64
	for i := range counts {
		counts[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			edge := after.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.pauses.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second)), n
		}
	}
	return 0, n
}
