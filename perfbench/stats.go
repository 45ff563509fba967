package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// heapObjects is the runtime metric for heap memory occupied by objects,
// live or not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak Go heap above the heap live when it
// started, sampling every few milliseconds until Stop. The peak is kept
// per lap: a lap ends at each call of lap, or every window when window is
// positive.
type heapSampler struct {
	base   uint64
	window time.Duration
	stop   chan struct{}
	done   chan struct{}

	mu   sync.Mutex
	peak uint64
	laps []float64
}

// heapSampleEvery is the sampling period: short against an operation
// (tens of milliseconds at least), long against the cost of one read.
const heapSampleEvery = 2 * time.Millisecond

// startHeapSampler collects garbage, records the live heap as the base,
// and starts sampling.
func startHeapSampler(window time.Duration) *heapSampler {
	runtime.GC()
	h := &heapSampler{base: readHeap(), window: window, stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = h.base
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	lapStart := time.Now()
	for {
		select {
		case <-h.stop:
			return
		case now := <-t.C:
			h.sample()
			if h.window > 0 && now.Sub(lapStart) >= h.window {
				h.lap()
				lapStart = now
			}
		}
	}
}

func (h *heapSampler) sample() {
	v := readHeap()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// lap ends the current lap, recording its peak above the base in MiB, and
// starts the next one from the heap as it is now.
func (h *heapSampler) lap() {
	h.sample()
	h.mu.Lock()
	h.laps = append(h.laps, float64(h.peak-min(h.peak, h.base))/(1<<20))
	h.peak = readHeap()
	h.mu.Unlock()
}

// reset starts a lap from the heap as it is now without recording the
// one before.
func (h *heapSampler) reset() {
	v := readHeap()
	h.mu.Lock()
	h.peak = v
	h.mu.Unlock()
}

// Stop ends sampling and returns the median of the laps' peaks. With a
// window, the last, partial lap ends here.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	if h.window > 0 {
		h.lap()
	}
	return median(h.laps)
}
