package core

import (
	"bytes"
	"context"

	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Warm retraining: a drift retrain that reuses the prior epoch's search
// products instead of solving every sample workload from scratch. Three
// layers compose, each individually sound and jointly bit-transparent —
// the warm model's serving content is identical to the cold retrain's (see
// DESIGN.md, "Warm retrain"):
//
//  1. Cross-epoch transposition cache. The prior epoch's cache holds solved
//     suffix subproblems keyed by workload-independent signatures (for
//     monotonic goals: unassigned counts, open-VM type, queued wait), so
//     its entries stay exact under the new arrival mix — only the sample
//     *starts* change, never the suffix optima. The warm train clones the
//     snapshot (the epoch stays immutable) and seeds its worker pool with
//     it.
//  2. Sample-level path replay. Sample i's workload is drawn from the same
//     deterministic sub-seed at every epoch; a per-query inverse-CDF draw
//     changes only where the mix shift moved a bin boundary across the
//     query's variate. Samples whose draw is unchanged skip the search
//     entirely: the prior epoch's stored optimal path is replayed in
//     O(path) (search.Replay), regenerating the identical training steps
//     and cache records the search would have produced. Samples retained
//     without a stored path (v1 checkpoints) re-solve with the prior
//     search's adaptive-A* reuse (§5: h' = max(h, C* − g_old), exact for
//     the same goal), which collapses the search to a near-replay.
//  3. Pipelined tree build. Solved generations stream into the
//     decision-tree dataset at the worker pool's commit barriers
//     (solveSamplesFold), overlapping dataset construction with the
//     remaining searches.
//
// Soundness rests on the canonical-search invariant (search's solver):
// monotonic, unseeded searches return the lexicographically least optimal
// schedule regardless of cache contents or heuristic strength, so every
// layer accelerates without steering. Non-monotonic goals (Average,
// Percentile) have none of these properties — their caches are unsound
// across searches and reuse can prune the optimum — so they fall back to a
// cold train, explicitly counted in Model.ColdSamples.

// WarmTrainContext trains a model for the advisor's configuration
// (typically the drifted arrival mix in SampleWeights), warm-started from
// prior — the epoch being replaced. When the (goal, environment, config)
// combination supports warm reuse, the prior epoch's transposition cache
// and retained sample searches accelerate training; otherwise this is
// exactly TrainContext. Either way the returned model is bit-identical in
// serving content to a cold Train of the same configuration, at any
// Parallelism.
func (a *Advisor) WarmTrainContext(ctx context.Context, goal sla.Goal, prior *Model) (*Model, error) {
	if !a.warmEligible(goal, prior) {
		return a.TrainContext(ctx, goal)
	}
	cache := search.NewTranspositionCache()
	if prior.searchCache != nil {
		// Clone, do not share: the warm train commits its own suffix
		// records as it runs, and the prior epoch may still be serving
		// (and being checkpointed) concurrently.
		cache = prior.searchCache.Clone()
	}
	return a.trainPipeline(ctx, goal, cache, &warmSource{
		samples: prior.samples,
		useVariates: prior.TrainingConfig.Seed == a.cfg.Seed &&
			prior.TrainingConfig.SampleSize == a.cfg.SampleSize,
	})
}

// warmEligible gates the warm path. Every condition guards a soundness or
// determinism requirement:
//
//   - monotonic goal: the transposition cache and §5 reuse are only sound
//     there, and only monotonic searches are canonical;
//   - cache enabled, no expansion cap: a capped search can return a
//     non-optimal schedule, which is not a pure function of the inputs;
//   - same goal: cache entries and Closed costs are goal-specific (equal
//     goals make the reuse bound exact rather than merely admissible);
//   - same environment object: the prior epoch's searches priced edges on
//     this exact latency matrix (DriftRetrain always retrains on the
//     serving model's own env);
//   - something to reuse: a prior with neither cache nor retained samples
//     warms nothing.
func (a *Advisor) warmEligible(goal sla.Goal, prior *Model) bool {
	return prior != nil &&
		goal.Monotonic() &&
		!a.cfg.DisableSearchCache &&
		a.cfg.MaxExpansions == 0 &&
		prior.env == a.env &&
		goalsEqual(goal, prior.Goal) &&
		(prior.searchCache != nil || len(prior.samples) > 0)
}

// goalsEqual compares goals by their canonical persisted encoding — the
// goal families carry slices (PerQuery), so == would panic; the encoding
// compares every parameter exactly.
func goalsEqual(a, b sla.Goal) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	pa, errA := encodeGoal(a)
	pb, errB := encodeGoal(b)
	return errA == nil && errB == nil && bytes.Equal(pa, pb)
}

// warmSource carries the prior epoch's retained searches into
// trainPipeline. useVariates reports that the prior epoch drew its
// samples with this configuration's seed and sample size, so its stored
// per-sample variates reproduce this epoch's draws exactly and the
// samplers need not be reconstructed.
type warmSource struct {
	samples     []trainSample
	useVariates bool
}

// sameQueries reports whether two sample workloads drew exactly the same
// query sequence (template and tag per position) — the condition for
// replaying the prior epoch's search of the sample.
func sameQueries(a, b *workload.Workload) bool {
	if b == nil || len(a.Queries) != len(b.Queries) {
		return false
	}
	for i, q := range a.Queries {
		if b.Queries[i] != q {
			return false
		}
	}
	return true
}
