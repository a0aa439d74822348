package main

import (
	"math"
	"testing"
	"time"
)

func TestTailKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 100, 1000, 2345} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		v, pct, ok := tail(s, 10)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", n, beyond)
		}
		if want := 100 * float64(n-10) / float64(n); math.Abs(pct-want) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if _, pct, _ := tail(make([]float64, 1000), 10); pct != 99 {
		t.Errorf("n=1000 tail should be p99, got p%v", pct)
	}
	if _, _, ok := tail(make([]float64, 10), 10); ok {
		t.Error("10 samples cannot have a tail with 10 beyond it")
	}
}

func TestSummarize(t *testing.T) {
	ms := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12}
	xs := make([]sample, len(ms))
	for i, v := range ms {
		xs[i] = sample{ms: v, at: time.Duration(i) * time.Second}
	}
	s, err := summarize(xs, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 12 || s.P50 != 6.5 || s.Tail != 2 || s.Slices != 1 {
		t.Errorf("got %+v", s)
	}
	if xs[0].ms != 5 {
		t.Error("summarize must not reorder its input")
	}
	if _, err := summarize(xs[:5], 5*time.Second); err == nil {
		t.Error("5 samples should be too few for a tail")
	}
}

func TestSummarizeSlicesTheTail(t *testing.T) {
	// 5 slices of 1000 samples, values 0..999 in each, except that the
	// first slice also has a burst of 50 stalls of 100 ms: the whole-run
	// tail lands in the burst, the median of the slice tails does not.
	var xs []sample
	for k := 0; k < tailSlices; k++ {
		for i := 0; i < 1000; i++ {
			xs = append(xs, sample{ms: float64(i) / 1000, at: time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond})
		}
	}
	for i := 0; i < 50; i++ {
		xs = append(xs, sample{ms: 100, at: time.Duration(i) * time.Millisecond})
	}
	s, err := summarize(xs, time.Duration(tailSlices)*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Slices != tailSlices {
		t.Fatalf("tail over %d slices, want %d", s.Slices, tailSlices)
	}
	if want := 0.989; s.Tail != want {
		t.Errorf("tail %v, want %v (11th largest of 0..999 in the median slice)", s.Tail, want)
	}
	// Thin slices fall back to the whole-run tail.
	s, err = summarize(xs[:tailSlices*minSliceSize-1], time.Duration(tailSlices)*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Slices != 1 {
		t.Errorf("slices with fewer than %d samples must not be used", minSliceSize)
	}
}

func TestAckClassifier(t *testing.T) {
	var c ackClassifier
	steps := []struct {
		strides  uint64
		advanced bool
	}{{1, true}, {1, false}, {1, false}, {2, true}, {4, true}, {4, false}}
	for i, s := range steps {
		adv, err := c.classify(s.strides)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if adv != s.advanced {
			t.Errorf("step %d (strides %d): advanced=%v, want %v", i, s.strides, adv, s.advanced)
		}
	}
	if _, err := c.classify(3); err == nil {
		t.Error("a decreasing stride count must be an error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}
