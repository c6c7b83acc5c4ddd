package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"wisedb/internal/search"
)

// forEach runs fn(i) for every i in [0, n) across a pool of worker
// goroutines. It is the execution engine behind training, adaptive
// re-training, strategy profiling, and serving (RunTenants passes
// workers == n: one long-lived worker per engine shard). In training each
// index is an independent unit of work (one sample workload's exact
// search), so the pool hands out indices from an atomic counter and
// workers write results into caller-owned, per-index slots — no locks on
// the hot path, and the caller folds results in index order afterwards so
// the outcome is identical for any worker count.
//
// workers <= 0 selects runtime.GOMAXPROCS(0). The first error cancels the
// remaining work and is returned; a canceled ctx surfaces as its ctx.Err().
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline fast path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// searchCacheGeneration is the epoch size of the transposition-cache
// barrier: sample searches run in generations of this many indices, and a
// generation's solved suffixes are committed to the shared cache only at
// the barrier after it completes. Every search therefore observes exactly
// the commits of strictly earlier generations — a pure function of the
// training inputs — so trained models stay bit-identical at any
// Parallelism even though equal-cost optima may be stitched from cached
// suffixes. The constant is deliberately independent of the worker count.
const searchCacheGeneration = 32

// solveSamples runs run(i) for every sample index on the worker pool,
// inserting deterministic commit barriers when a transposition cache is in
// play. With cache == nil it degenerates to one forEach over all indices.
func solveSamples(ctx context.Context, workers, n int, cache *search.TranspositionCache,
	run func(i int, cache *search.TranspositionCache, rec *search.PendingSuffixes) error) error {
	return solveSamplesFold(ctx, workers, n, cache, run, nil)
}

// solveSamplesFold is solveSamples with a pipelined fold stage: after each
// generation's commit barrier, the completed index range [lo, hi) is handed
// to fold on a dedicated goroutine, so folding generation k (building the
// decision-tree dataset, harvesting counters) overlaps the searches of
// generation k+1. Ranges arrive in index order and fold runs
// single-threaded, so any fold that appends per index in range order
// produces exactly the sequence a post-hoc loop over [0, n) would — the
// pipelining is invisible to the result. The channel hand-off
// happens-before each fold call, so fold may freely read the per-index
// slots the workers wrote. solveSamplesFold returns only after the fold
// goroutine has drained (on error, remaining ranges are discarded).
func solveSamplesFold(ctx context.Context, workers, n int, cache *search.TranspositionCache,
	run func(i int, cache *search.TranspositionCache, rec *search.PendingSuffixes) error,
	fold func(lo, hi int) error) error {
	var (
		ranges   chan [2]int
		foldDone chan error
	)
	emit := func(lo, hi int) {
		if ranges != nil && hi > lo {
			ranges <- [2]int{lo, hi}
		}
	}
	// finish closes the pipeline and joins the fold goroutine; the run
	// error wins over a fold error (it happened first).
	finish := func(err error) error {
		if ranges == nil {
			return err
		}
		close(ranges)
		foldErr := <-foldDone
		if err == nil {
			err = foldErr
		}
		return err
	}
	if fold != nil {
		ranges = make(chan [2]int, 8)
		foldDone = make(chan error, 1)
		go func() {
			var err error
			for r := range ranges {
				if err == nil {
					err = fold(r[0], r[1])
				}
				// After a fold error, keep draining so emit never blocks.
			}
			foldDone <- err
		}()
	}

	if cache == nil {
		// No barriers to pipeline against: one pool pass, one fold.
		err := forEach(ctx, workers, n, func(i int) error { return run(i, nil, nil) })
		if err == nil {
			emit(0, n)
		}
		return finish(err)
	}
	gen := searchCacheGeneration
	if gen > n {
		gen = n
	}
	pending := make([]search.PendingSuffixes, gen)
	for base := 0; base < n; base += gen {
		g := gen
		if base+g > n {
			g = n - base
		}
		first := base
		if err := forEach(ctx, workers, g, func(j int) error {
			return run(first+j, cache, &pending[j])
		}); err != nil {
			return finish(err)
		}
		// Commit order is irrelevant (the merge is commutative); doing it
		// at the barrier, single-threaded, is what keeps the visible cache
		// state independent of goroutine scheduling.
		for j := 0; j < g; j++ {
			cache.Commit(&pending[j])
		}
		emit(base, base+g)
	}
	return finish(nil)
}

// deriveSeed mixes a per-sample sub-seed out of the training seed and the
// sample index with a SplitMix64 finalizer. Every sample workload is drawn
// from its own deterministic sub-stream, so sample i is the same workload no
// matter which worker draws it — training results are bit-identical for any
// Parallelism.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
