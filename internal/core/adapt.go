package core

import (
	"context"
	"fmt"
	"time"

	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/search"
	"wisedb/internal/sla"
)

// Adapt re-trains the model for a stricter goal with minimal work (§5):
// instead of sampling and searching from scratch, it re-solves the model's
// retained sample workloads on the same scheduling graphs with updated edge
// weights, using the adaptive-A* heuristic h'(v) = max(h(v), C* − g_old(v))
// built from each sample's previous search (Lemma 5.1 proves h' admissible
// when the new goal is stricter and the goal is monotonic; for Average and
// Percentile goals the search ignores the reuse information and re-solves
// exactly, so adaptation stays correct but gains no heuristic speedup). The
// model must have been trained with KeepTrainingData. The re-searches run
// on the same worker pool as Train (TrainingConfig.Parallelism) and the
// result is identical for any worker count.
//
// The returned model itself retains training data, so a chain of
// progressively stricter goals — as built by strategy recommendation — can
// adapt step by step.
func (m *Model) Adapt(goal sla.Goal) (*Model, error) {
	return m.AdaptContext(context.Background(), goal)
}

// AdaptContext is Adapt with cancellation.
func (m *Model) AdaptContext(ctx context.Context, goal sla.Goal) (*Model, error) {
	return m.adapt(ctx, goal, true)
}

// adapt implements Adapt; keep controls whether the new model retains its
// own training data (needed to adapt it further, skipped by one-shot
// shifts).
func (m *Model) adapt(ctx context.Context, goal sla.Goal, keep bool) (*Model, error) {
	if len(m.samples) == 0 {
		return nil, fmt.Errorf("core: Adapt requires a model trained with KeepTrainingData")
	}
	start := time.Now()
	prob := graph.NewProblem(m.env, goal)
	prob.NoSymmetryBreaking = true // as in Train: faster at sample sizes
	searcher, err := search.New(prob)
	if err != nil {
		return nil, fmt.Errorf("core: adapt: %w", err)
	}

	// Like Train, adaptation shares a per-call transposition cache across
	// its worker pool: the new goal changes every suffix optimum, so the
	// cache never outlives the call.
	var cache *search.TranspositionCache
	if !m.TrainingConfig.DisableSearchCache && goal.Monotonic() {
		cache = search.NewTranspositionCache()
	}
	solutions := make([]*search.Result, len(m.samples))
	err = solveSamples(ctx, m.TrainingConfig.Parallelism, len(m.samples), cache,
		func(i int, cache *search.TranspositionCache, rec *search.PendingSuffixes) error {
			s := m.samples[i]
			res, err := searcher.Solve(s.w, search.Options{Reuse: s.reuse, KeepClosed: keep, Cache: cache, Record: rec})
			if err != nil {
				return fmt.Errorf("core: adapt sample %d: %w", i, err)
			}
			solutions[i] = res
			return nil
		})
	if err != nil {
		return nil, err
	}

	numLabels := len(m.env.Templates) + len(m.env.VMTypes)
	ds := &dt.Dataset{FeatureNames: features.Names(len(m.env.Templates)), NumLabels: numLabels}
	fs := features.NewState(prob)
	var samples []trainSample
	cacheHits, cacheMisses := 0, 0
	for i, res := range solutions {
		addPathToDataset(ds, fs, res.Path)
		cacheHits += res.CacheHits
		cacheMisses += res.CacheMisses
		if keep {
			samples = append(samples, trainSample{w: m.samples[i].w, reuse: search.ReuseFrom(res)})
		}
	}
	tree := dt.Train(ds, m.TrainingConfig.Tree)
	adapted := &Model{
		Goal:              goal,
		Tree:              tree,
		TrainingTime:      time.Since(start),
		TrainingRows:      ds.Len(),
		TrainingConfig:    m.TrainingConfig,
		TrainingCacheHits: cacheHits, TrainingCacheMisses: cacheMisses,
		// Adaptation re-solves every retained sample (the goal changed, so no
		// prior solution is reusable as-is); the §5 heuristic reuse is an
		// accelerant, not a replay, hence all samples count as cold.
		ColdSamples: len(m.samples),
		env:         m.env,
		prob:        runtimeProblem(m.env, goal),
		samples:     samples,
		searchCache: cache,
		// Adaptation re-solves the same sample workloads, so the adapted
		// model serves the same arrival mix.
		trainingMix: m.trainingMix,
	}
	adapted.servingTables() // compile the serving form at adapt time
	return adapted, nil
}

// Tighten adapts the model to its own goal tightened by fraction p (§7.3's
// tightening formula).
func (m *Model) Tighten(p float64) (*Model, error) {
	if p < 0 {
		return nil, fmt.Errorf("core: Tighten(p=%g): adaptive re-training requires a stricter goal; train a fresh model for looser ones", p)
	}
	return m.Adapt(m.Goal.Tighten(p))
}

// ShiftedModelContext adapts the model to its goal linearly shifted by
// wait d (§6.3's linear-shifting optimization, valid for shiftable goals
// only: scheduling queries that have waited d equals scheduling fresh
// queries under a goal tightened by d). Online streams thread their run
// context through model acquisition so a cancelled stream does not leave
// an adaptation running.
func (m *Model) ShiftedModelContext(ctx context.Context, d time.Duration) (*Model, error) {
	if !m.Goal.Shiftable() {
		return nil, fmt.Errorf("core: goal %s is not linearly shiftable", m.Goal.Name())
	}
	if d == 0 {
		return m, nil
	}
	return m.adapt(ctx, m.Goal.Shift(d), false)
}
