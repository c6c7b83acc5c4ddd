package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// heapWatch tracks the peak retained heap: the live heap after a forced
// collection at fixed points of a pass (mark), outside every timed
// section. Sampling the live heap as of the runtime's own collections
// instead would make the peak depend on when those happen to run.
type heapWatch struct {
	marks  []float64 // live heap at each mark, MiB
	forced uint32    // forcedGCs when the watch started
	gc0    runtime.MemStats
}

// forcedGCs counts the collections the benchmark itself forces, so the
// GC diagnostics report only the runtime's own.
var forcedGCs uint32

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{forced: forcedGCs}
	runtime.ReadMemStats(&h.gc0)
	return h
}

// mark collects garbage and records the live heap. It collects twice, as
// settle does: objects cached in a sync.Pool survive one collection, and
// whether the pools held a large buffer at a single collection depended on
// scheduling (train's marks after the Average phase read 359 or 553 MiB).
func (h *heapWatch) mark() {
	settle()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.marks = append(h.marks, float64(s[0].Value.Uint64())/(1<<20))
	}
}

// finishHeap records heap_peak_mb as agg of the marks (slices.Max, or
// median where marks repeat one phase), the runtime's GC diagnostics
// (forced collections excluded) and the heavy-heap flag on rep.
func finishHeap(rep *report, h *heapWatch, agg func([]float64) float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := 0.0
	if len(h.marks) > 0 {
		peak = agg(h.marks)
	}
	rep.setE2E("heap_peak_mb", peak, "MiB")
	rep.setLayer("runtime.gc_cycles", float64(ms.NumGC-h.gc0.NumGC-(forcedGCs-h.forced)), "count")
	rep.setLayer("runtime.gc_pause_ms", float64(ms.PauseTotalNs-h.gc0.PauseTotalNs)/float64(time.Millisecond), "ms")
	rep.heavyHeap = peak > heavyHeapMiB
}

// settle collects garbage left by set-up so it is not charged to the
// measured phase.
func settle() {
	forcedGCs += 2
	runtime.GC()
	runtime.GC()
}

// setupReps is how many set-ups a workload times before its measured
// phases, and again after them; setup_s is the median of all of them. The
// shared machine has slow stretches that last seconds, so set-ups timed
// back to back at the start of a run all land in the same stretch. Timing
// half of them at the end moves the median less.
const setupReps = 5

// timeSetup runs one set-up, after collecting garbage, and appends its
// wall time to times.
func timeSetup[T any](times *[]float64, f func() (T, error)) (T, error) {
	settle()
	start := time.Now()
	v, err := f()
	*times = append(*times, time.Since(start).Seconds())
	return v, err
}

// reportSetup records setup_s from the set-up times.
func reportSetup(rep *report, times []float64) {
	rep.setE2E("setup_s", median(times), "s")
	rep.samples["setup_s"] = len(times)
}
