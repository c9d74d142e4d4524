package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples collects operation latencies.
type samples []time.Duration

// quantile returns the q-quantile in milliseconds, interpolating
// linearly between order statistics.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	ms := make([]float64, len(s))
	for k, d := range s {
		ms[k] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	pos := q * float64(len(ms)-1)
	lo := int(pos)
	if lo+1 >= len(ms) {
		return ms[len(ms)-1]
	}
	frac := pos - float64(lo)
	return ms[lo] + frac*(ms[lo+1]-ms[lo])
}

// perSecond is the number of samples divided by their summed duration:
// operations completed per second of their own wall time.
func (s samples) perSecond() float64 {
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	if sum <= 0 {
		return 0
	}
	return float64(len(s)) / sum.Seconds()
}

// geoPerSecond is the reciprocal of the samples' geometric mean in
// seconds: operations per second at the geometric-mean operation. Unlike
// perSecond it weighs every operation's relative time equally, so the
// few costliest inputs of a seed do not set the whole figure.
func (s samples) geoPerSecond() float64 {
	if len(s) == 0 {
		return 0
	}
	var logSum float64
	for _, d := range s {
		if d <= 0 {
			return 0
		}
		logSum += math.Log(d.Seconds())
	}
	return math.Exp(-logSum / float64(len(s)))
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// secondsList renders set-up times for a report line.
func secondsList(xs []float64) string {
	parts := make([]string, len(xs))
	for k, x := range xs {
		parts[k] = strconv.FormatFloat(x, 'f', 3, 64) + "s"
	}
	return strings.Join(parts, " ")
}

// ratio is num/den, or 0 when den is 0 (a layer the workload bypasses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample reads the cumulative allocation and CPU counters that
// the traced run reports as deltas.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(k int) float64 {
		switch s[k].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[k].Value.Uint64())
		case metrics.KindFloat64:
			return s[k].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}
