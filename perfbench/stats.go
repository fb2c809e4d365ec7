package main

import (
	"sort"
	"time"
)

// Percentiles are taken per time window and reported as the median over the
// windows, so that a burst of interference from outside the program (the
// host's other tenants) slows one window rather than the result. The timed
// phase is cut into as many equal windows as hold minWindowSamples samples
// each on average, so each window's p90 has ten samples beyond it, and at
// most maxWindows.
const (
	minWindowSamples = 100
	maxWindows       = 10
)

// series is one timing: each sample's value in µs and its completion time in
// seconds since the timed phase began.
type series struct {
	at []float64
	us []float64
}

// add records a sample that began at opStart, in a phase that began at start,
// and returns its duration.
func (s *series) add(start, opStart time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(opStart)
	s.addAt(now.Sub(start), d)
	return d
}

// addAt records a sample of duration d that completed at offset at.
func (s *series) addAt(at, d time.Duration) {
	s.at = append(s.at, at.Seconds())
	s.us = append(s.us, us(d))
}

func (s *series) merge(o series) {
	s.at = append(s.at, o.at...)
	s.us = append(s.us, o.us...)
}

func (s series) windows(span time.Duration) [][]float64 {
	k := len(s.us) / minWindowSamples
	if k < 1 {
		k = 1
	}
	if k > maxWindows {
		k = maxWindows
	}
	w := make([][]float64, k)
	for i, at := range s.at {
		j := int(at / span.Seconds() * float64(k))
		if j >= k {
			j = k - 1
		}
		w[j] = append(w[j], s.us[i])
	}
	return w
}

// percentile is the median over windows of each window's p-th percentile.
func (s series) percentile(span time.Duration, p float64) float64 {
	var vals []float64
	for _, w := range s.windows(span) {
		if len(w) > 0 {
			vals = append(vals, percentile(w, p))
		}
	}
	return median(vals)
}

// overall is the p-th percentile of every sample, without windows.
func (s series) overall(p float64) float64 {
	return percentile(append([]float64(nil), s.us...), p)
}

// us is a duration in microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}
