package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/symbolic"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is the width of the slices a run is cut into for windowed
// figures.
const window = 4 * time.Second

// windowed cuts [0, span) into consecutive windows of about width w, puts
// each sample in the window of its time offset, applies f to every
// non-empty window, and returns the median over windows. A run reports
// windowed figures so that a burst of host noise moves a few windows, not
// the result. A span shorter than w is one window.
func windowed(at []time.Duration, xs []float64, w, span time.Duration, f func(xs []float64, width time.Duration) float64) float64 {
	n := max(1, int(span/w))
	w = span / time.Duration(n)
	wins := make([][]float64, n)
	for i, t := range at {
		if k := int(t / w); k >= 0 && k < n {
			wins[k] = append(wins[k], xs[i])
		}
	}
	var per []float64
	for _, win := range wins {
		if len(win) > 0 {
			per = append(per, f(win, w))
		}
	}
	return median(per)
}

// perSecond is a windowed f: samples per second of the window.
func perSecond(xs []float64, width time.Duration) float64 { return float64(len(xs)) / width.Seconds() }

// quantileOf returns a windowed f computing the q-quantile.
func quantileOf(q float64) func([]float64, time.Duration) float64 {
	return func(xs []float64, _ time.Duration) float64 { return quantile(xs, q) }
}

// symbolicDelta is the symbolic memo cache's hit ratio and evictions
// between two counter snapshots.
func symbolicDelta(before, after symbolic.CacheStats) (hitRatio, evictions float64) {
	hits := float64(after.SimplifyHits + after.CompareHits - before.SimplifyHits - before.CompareHits)
	misses := float64(after.SimplifyMisses + after.CompareMisses - before.SimplifyMisses - before.CompareMisses)
	return ratio(hits, hits+misses), float64(after.Evictions - before.Evictions)
}

// stealMeter measures the share of this machine's CPU time (all ticks of
// the /proc/stat cpu line, idle included) that the hypervisor stole
// between startSteal and share. It is validity data only: a vCPU stolen
// for a share s of the time runs CPU-bound work at about (1-s) of its
// speed, so every run prints s and flags a run above stealLimit, but no
// figure is corrected for it.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := stealTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := stealTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// stealTicks reads the cumulative steal and total CPU time (clock ticks)
// from /proc/stat; zeros where it is unavailable.
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
