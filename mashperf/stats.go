package main

import (
	"io/fs"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// samples holds one latency per operation.
type samples []time.Duration

// percentiles the report considers, in basis points (9900 = p99).
var standardPercentiles = []int{5000, 9000, 9900, 9990, 9999}

// tailPercentile returns the highest standard percentile, in basis points,
// that has at least ten samples beyond it among n, or 0 if none has.
func tailPercentile(n int) int {
	best := 0
	for _, p := range standardPercentiles {
		if n*(10000-p) >= 10*10000 {
			best = p
		}
	}
	return best
}

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// at returns the nearest-rank percentile bp (basis points) of sorted
// samples s, or 0 when s is empty.
func (s samples) at(bp int) time.Duration {
	if len(s) == 0 {
		return 0
	}
	idx := (len(s)*bp+9999)/10000 - 1
	return s[max(idx, 0)]
}

// median returns the median of unsorted durations.
func median(ds []time.Duration) time.Duration {
	return samples(ds).sorted().at(5000)
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// diskBytes sums the space allocated to the files under the given
// directories (sparse regions do not count). Entries that vanish during the
// walk are skipped: the store is idle, so only temporary files can.
func diskBytes(dirs ...string) int64 {
	var n int64
	for _, dir := range dirs {
		_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return nil
			}
			if info, err := e.Info(); err == nil {
				if st, ok := info.Sys().(*syscall.Stat_t); ok {
					n += st.Blocks * 512
				}
			}
			return nil
		})
	}
	return n
}
