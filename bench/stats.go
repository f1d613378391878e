package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sdss/internal/stats"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median leaves vals as they are and returns 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return stats.Quantile(append([]float64(nil), vals...), 0.5)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// tailQuantile is the quantile op_p95_ms reports: p95 when at least ten
// samples lie beyond it, else the highest quantile that still has ten
// beyond, never below the median.
func tailQuantile(n int) float64 {
	q := 0.95
	if n < 200 {
		q = 1 - 10/float64(n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// rssSampler records the largest resident set the process reaches while it
// runs, read from /proc/self/statm every few milliseconds. Where /proc is
// absent it reports the Go runtime's OS-memory total when stopped.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64 // MB; owned by the sampling goroutine until done closes
}

func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok && mb > s.peak {
				s.peak = mb
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stopMB ends the sampling and returns the peak in MB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	if s.peak > 0 {
		return s.peak
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
