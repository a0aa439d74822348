package main

import (
	"fmt"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie strictly beyond a reported tail
// percentile; fewer would make the tail one or two outliers.
const tailBeyond = 10

// A run's tail is taken per time slice when every slice has enough
// samples for a tail of its own: the timed phase is cut into tailSlices
// equal slices and the reported tail is the median of the slices' tails.
// A burst of stalls (fsyncs held up by the host's disk, a slow spell of a
// shared host) then moves the tails of the slices it falls in, not the
// run's.
const (
	tailSlices   = 20
	minSliceSize = 100
)

// sample is one timed request: its latency in milliseconds, when it
// completed (or was due) relative to the start of the timed phase, and
// the server's trace id when tracing.
type sample struct {
	ms      float64
	at      time.Duration
	traceID string
}

// summary is a latency distribution reduced to what the benchmark reports:
// the median and the highest percentile with tailBeyond samples beyond it.
type summary struct {
	N       int
	P50     float64
	Tail    float64 // value at TailPct
	TailPct float64 // percentile of Tail, in (0, 100)
	Slices  int     // 1, or tailSlices when Tail is the median of slice tails
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d p50=%.3f p%.1f=%.3f (tail over %d slice(s))", s.N, s.P50, s.TailPct, s.Tail, s.Slices)
}

// tail returns the highest percentile of sorted that has at least beyond
// samples strictly above its position: the order statistic at index
// n-1-beyond, with its percentile rank. ok is false when there are not
// beyond+1 samples.
func tail(sorted []float64, beyond int) (v, pct float64, ok bool) {
	n := len(sorted)
	if n < beyond+1 {
		return 0, 0, false
	}
	i := n - 1 - beyond
	return sorted[i], 100 * float64(i+1) / float64(n), true
}

// summarize reduces the samples of a timed phase; span is the length the
// slices divide (sample times run from 0 to span). It fails when the sample is too small for a tail with tailBeyond samples
// beyond it.
func summarize(xs []sample, span time.Duration) (summary, error) {
	all := make([]float64, len(xs))
	slices := make([][]float64, tailSlices)
	for i, x := range xs {
		all[i] = x.ms
		k := int(int64(tailSlices) * int64(x.at) / int64(span))
		k = min(max(k, 0), tailSlices-1)
		slices[k] = append(slices[k], x.ms)
	}
	sort.Float64s(all)
	v, pct, ok := tail(all, tailBeyond)
	if !ok {
		return summary{N: len(all)}, fmt.Errorf("%d samples: a tail needs at least %d", len(all), tailBeyond+1)
	}
	s := summary{N: len(all), P50: median(all), Tail: v, TailPct: pct, Slices: 1}
	for _, sl := range slices {
		if len(sl) < minSliceSize {
			return s, nil
		}
	}
	var tails, pcts []float64
	for _, sl := range slices {
		sort.Float64s(sl)
		v, pct, _ := tail(sl, tailBeyond)
		tails, pcts = append(tails, v), append(pcts, pct)
	}
	s.Tail, s.TailPct, s.Slices = median(tails), median(pcts), tailSlices
	return s, nil
}

// ackClassifier splits ingest acks into those that completed a stride and
// those that did not, by whether the response's cumulative stride count
// moved past the previous ack's. It also enforces that the count never
// goes backwards.
type ackClassifier struct {
	last uint64
}

// classify reports whether strides advanced past the previous ack; a
// decrease is an error (the stream's stride counter is monotone).
func (c *ackClassifier) classify(strides uint64) (advanced bool, err error) {
	if strides < c.last {
		return false, fmt.Errorf("ack strides went backwards: %d after %d", strides, c.last)
	}
	advanced = strides > c.last
	c.last = strides
	return advanced, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method). xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
