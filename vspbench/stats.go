package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the percentile is worth reporting.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (the value of
// rank ⌈p·n/100⌉ in ascending order) and whether at least minBeyond
// samples lie beyond that rank. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// tail returns the p-th percentile when the sample supports it, and the
// slowest sample otherwise, with the percentile actually reported.
func tail(xs []float64, p float64) (float64, float64) {
	if v, ok := percentile(xs, p); ok {
		return v, p
	}
	v, _ := percentile(xs, 100)
	return v, 100
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapWatch samples the live heap — what the last collection found
// reachable — every 5 ms until stopped. The system under test runs in
// this process, so this is its working set plus the load generator's
// small bookkeeping. The time average is reported: a single end-of-run
// or peak reading depends on when the collector last ran.
type heapWatch struct {
	stop chan struct{}
	once sync.Once
	done chan float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var sum, n float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			sum += float64(s[0].Value.Uint64())
			n++
			select {
			case <-tick.C:
			case <-h.stop:
				h.done <- sum / n / (1 << 20)
				return
			}
		}
	}()
	return h
}

// mib stops the sampler and returns the mean live heap in MiB.
func (h *heapWatch) mib() float64 {
	h.close()
	return <-h.done
}

// close stops the sampler; it may be called more than once.
func (h *heapWatch) close() { h.once.Do(func() { close(h.stop) }) }

// setups is how often a run sets its system up; setup_s is the median.
const setups = 21

// timeSetup runs setup `repeats` times, closing every instance but the
// last, and returns the last instance with the median set-up time.
func timeSetup[T any](repeats int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	secs := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if i > 0 {
			teardown(inst)
		}
		runtime.GC() // collect the previous instance outside the timed set-up
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, median(secs), nil
}
