// Package core implements the WiSeDB advisor itself: decision-model
// generation (§4), adaptive modeling (§5), strategy recommendation (§6.1),
// batch scheduling (§6.2), and online scheduling with the model-reuse and
// linear-shifting optimizations (§6.3).
//
// Model generation solves N independent sample workloads exactly; the
// advisor runs those searches on a worker pool (TrainConfig.Parallelism)
// with one deterministic sub-seed per sample, so a trained model is
// bit-identical for any worker count. A trained Model is immutable and safe
// for concurrent use: many goroutines may call ScheduleBatch on one Model.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// TrainConfig tunes decision-model generation (§4.2: N sample workloads of
// m queries each).
type TrainConfig struct {
	// NumSamples is N, the number of random sample workloads. The paper
	// uses 3000; a few hundred suffice for the relative results and are
	// the default here (see DESIGN.md's scaling note). Zero selects the
	// default.
	NumSamples int
	// SampleSize is m, the queries per sample workload. The paper uses
	// 18. It must stay small enough for exact search to be fast. Zero
	// selects the default.
	SampleSize int
	// Seed makes sampling deterministic: sample i is drawn from a
	// sub-seed derived from (Seed, i), so the same Seed yields the same
	// model at every Parallelism.
	Seed int64
	// SampleWeights, when non-nil, draws sample-workload queries from the
	// weighted template distribution instead of the uniform one (§4.2 uses
	// uniform direct sampling; drift-adapted models are re-trained on the
	// observed arrival mix). Must have one non-negative weight per
	// template with a positive sum.
	SampleWeights []float64
	// Parallelism is the number of worker goroutines solving sample
	// workloads concurrently; 0 selects runtime.GOMAXPROCS(0). Results
	// are identical for every value.
	Parallelism int
	// Tree configures the decision-tree learner.
	Tree dt.Config
	// MaxExpansions bounds per-sample search effort (0 = unlimited).
	MaxExpansions int
	// KeepTrainingData retains each sample's workload and search data on
	// the model so that adaptive modeling (§5) can re-train cheaply.
	KeepTrainingData bool
	// DisableSearchCache turns off the cross-sample transposition cache
	// that Train/Adapt share across their worker pool (see
	// search.TranspositionCache). The cache applies to monotonic goals
	// only and never changes solution costs; disabling it is for
	// measurement and debugging.
	DisableSearchCache bool
}

// normalized returns the config with zero values replaced by defaults.
func (cfg TrainConfig) normalized() TrainConfig {
	def := DefaultTrainConfig()
	if cfg.NumSamples == 0 {
		cfg.NumSamples = def.NumSamples
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = def.SampleSize
	}
	if cfg.Tree == (dt.Config{}) {
		cfg.Tree = def.Tree
	}
	return cfg
}

// validate reports the first problem that would make training misbehave.
func (cfg TrainConfig) validate() error {
	switch {
	case cfg.NumSamples < 0:
		return fmt.Errorf("core: TrainConfig.NumSamples must be positive, got %d", cfg.NumSamples)
	case cfg.SampleSize < 0:
		return fmt.Errorf("core: TrainConfig.SampleSize must be positive, got %d", cfg.SampleSize)
	case cfg.Parallelism < 0:
		return fmt.Errorf("core: TrainConfig.Parallelism must be >= 0, got %d", cfg.Parallelism)
	case cfg.MaxExpansions < 0:
		return fmt.Errorf("core: TrainConfig.MaxExpansions must be >= 0, got %d", cfg.MaxExpansions)
	}
	return nil
}

// DefaultTrainConfig returns the configuration used by the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		NumSamples:       500,
		SampleSize:       12,
		Seed:             1,
		Tree:             dt.DefaultConfig(),
		KeepTrainingData: true,
	}
}

// PaperTrainConfig returns the paper's §7.1 training scale (N=3000, m=18).
func PaperTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 3000
	cfg.SampleSize = 18
	return cfg
}

// Advisor generates workload-management models for one application
// environment (template set + VM types + latency predictor). An Advisor is
// safe for concurrent use.
type Advisor struct {
	env *schedule.Env
	cfg TrainConfig
}

// NewAdvisor returns an Advisor for the environment. Zero-valued fields of
// cfg are filled with defaults (a zero-value TrainConfig trains at the
// default scale); invalid values — negative counts, a nil or empty
// environment — are reported as an error rather than a panic.
func NewAdvisor(env *schedule.Env, cfg TrainConfig) (*Advisor, error) {
	if env == nil {
		return nil, errors.New("core: NewAdvisor requires a non-nil environment")
	}
	if len(env.Templates) == 0 {
		return nil, errors.New("core: NewAdvisor requires at least one template")
	}
	if len(env.VMTypes) == 0 {
		return nil, errors.New("core: NewAdvisor requires at least one VM type")
	}
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SampleWeights != nil {
		if len(cfg.SampleWeights) != len(env.Templates) {
			return nil, fmt.Errorf("core: TrainConfig.SampleWeights has %d weights for %d templates", len(cfg.SampleWeights), len(env.Templates))
		}
		total := 0.0
		for i, w := range cfg.SampleWeights {
			if w < 0 {
				return nil, fmt.Errorf("core: TrainConfig.SampleWeights[%d] is negative (%g)", i, w)
			}
			total += w
		}
		if total <= 0 {
			return nil, errors.New("core: TrainConfig.SampleWeights must have a positive sum")
		}
	}
	return &Advisor{env: env, cfg: cfg}, nil
}

// MustNewAdvisor is NewAdvisor panicking on error, for examples and tests
// with statically known-good configuration.
func MustNewAdvisor(env *schedule.Env, cfg TrainConfig) *Advisor {
	a, err := NewAdvisor(env, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Env returns the advisor's environment.
func (a *Advisor) Env() *schedule.Env { return a.env }

// Config returns the advisor's training configuration (normalized).
func (a *Advisor) Config() TrainConfig { return a.cfg }

// trainSample retains one sample workload and its search byproducts for
// adaptive re-training.
type trainSample struct {
	w     *workload.Workload
	reuse *search.Reuse
	// actions is the sample's exact optimal schedule — the canonical
	// search result for (w, goal, env). A warm retrain replays it
	// verbatim for samples whose draw is unchanged, skipping the search
	// entirely (see WarmTrainContext). Nil for samples decoded from v1 files,
	// which fall back to reuse-assisted re-search.
	actions []graph.Action
	// variates holds the unit variates the sample's weighted draw
	// consumed, one per query. A warm retrain with the same seed and
	// sample size rebins them under the drifted mix
	// (workload.WeightedFromVariates) instead of reconstructing and
	// reseeding a sampler per sample. Nil for uniform draws and v1 files.
	variates []float64
}

// Model is a trained workload-management strategy (§4.5): a decision tree
// over the §4.4 features whose leaves are scheduling actions. A model is
// bound to the goal and environment it was trained for.
//
// A Model is immutable after training and safe for concurrent use:
// ScheduleBatch, Adapt, and the read accessors may be called from many
// goroutines at once.
type Model struct {
	// Goal is the performance goal the model was trained for.
	Goal sla.Goal
	// Tree is the learned decision tree.
	Tree *dt.Tree
	// TrainingTime is the wall time spent generating the model.
	TrainingTime time.Duration
	// TrainingRows is the number of (features, decision) pairs trained on.
	TrainingRows int
	// TrainingConfig records the scale the model was trained at; online
	// scheduling re-trains augmented models at the same scale unless
	// overridden.
	TrainingConfig TrainConfig
	// TrainingCacheHits and TrainingCacheMisses aggregate the
	// transposition-cache lookups of the sample searches that built this
	// model (both zero when the cache was disabled or inapplicable).
	TrainingCacheHits, TrainingCacheMisses int
	// WarmSamples and ColdSamples split the training run's sample
	// workloads into warm replays (reused from a prior epoch by
	// WarmRetrain) and fresh exact solves. A cold Train reports all
	// samples cold.
	WarmSamples, ColdSamples int

	env     *schedule.Env
	prob    *graph.Problem
	samples []trainSample
	// searchCache is the training run's transposition cache (nil when
	// disabled or inapplicable): the solved suffix subproblems of the
	// sample searches. WarmRetrain seeds the next epoch's searches from
	// it, and persistence snapshots it so warm-started registries retrain
	// warm. Immutable after training, like the rest of the model.
	searchCache *search.TranspositionCache
	// trainingMix is the normalized template distribution the sample
	// workloads were drawn from: uniform unless the model was trained with
	// SampleWeights (drift-adapted models target the observed arrival
	// mix). The drift detector compares live arrival histograms against
	// it. Nil for directly constructed models (tests); TrainingMix()
	// falls back to uniform.
	trainingMix []float64

	// serveOnce builds serve, the precomputed serving tables (compiled
	// tree + fresh-VM cost matrix); Train/Adapt build them eagerly,
	// directly constructed models (tests) fall back to first use.
	serveOnce sync.Once
	serve     *servingTables
	// scratch pools per-call serving state for ScheduleBatch, so
	// concurrent batch scheduling allocates O(1) amortized per query.
	scratch sync.Pool // *servingScratch
}

// Env returns the environment the model is bound to.
func (m *Model) Env() *schedule.Env { return m.env }

// TrainingMix returns a copy of the normalized template distribution the
// model's sample workloads were drawn from — the arrival mix it was built to
// serve. Models trained without SampleWeights (and directly constructed
// ones) report the uniform distribution.
func (m *Model) TrainingMix() []float64 {
	if m.trainingMix != nil {
		return append([]float64(nil), m.trainingMix...)
	}
	return uniformMix(len(m.env.Templates))
}

// uniformMix returns the uniform distribution over k templates.
func uniformMix(k int) []float64 {
	mix := make([]float64, k)
	for i := range mix {
		mix[i] = 1 / float64(k)
	}
	return mix
}

// normalizedMix returns weights scaled to sum to 1, or the uniform mix for
// nil weights.
func normalizedMix(weights []float64, k int) []float64 {
	if weights == nil {
		return uniformMix(k)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	mix := make([]float64, len(weights))
	for i, w := range weights {
		mix[i] = w / total
	}
	return mix
}

// Train generates a decision model for the goal (§4): it samples N random
// workloads of m queries, solves each exactly on the scheduling graph,
// extracts the §4.4 features from every decision on every optimal path, and
// fits a decision tree. The N searches run on the configured worker pool.
func (a *Advisor) Train(goal sla.Goal) (*Model, error) {
	return a.TrainContext(context.Background(), goal)
}

// sampleSolution is one worker's output: the sample workload and its
// exactly solved search result, buffered per index so the fold into the
// training set happens in sample order regardless of completion order.
type sampleSolution struct {
	w        *workload.Workload
	res      *search.Result
	variates []float64
}

// TrainContext is Train with cancellation: ctx aborts the remaining sample
// searches and returns ctx.Err().
func (a *Advisor) TrainContext(ctx context.Context, goal sla.Goal) (*Model, error) {
	// The transposition cache is scoped to this call: suffix optima are
	// goal-specific, and a per-call cache keeps sequences of Train/Adapt
	// calls deterministic regardless of what ran before them. (A warm
	// retrain instead clones the prior epoch's cache — see WarmTrainContext —
	// which the canonical-search invariant makes equally deterministic.)
	var cache *search.TranspositionCache
	if !a.cfg.DisableSearchCache && goal.Monotonic() {
		cache = search.NewTranspositionCache()
	}
	return a.trainPipeline(ctx, goal, cache, nil)
}

// trainPipeline is the sample-generation / exact-search / dataset-fold /
// tree-fit pipeline shared by cold training and warm retraining. The N
// sample searches run on the worker pool; solved generations stream into
// the decision-tree dataset through solveSamplesFold's pipelined fold, so
// dataset building overlaps the remaining searches instead of waiting for
// all of them. ws, when non-nil, carries the prior epoch's retained
// searches (the warm path): a sample whose draw is unchanged replays its
// stored action path verbatim in O(path) instead of searching, falling
// back to a §5 reuse-assisted re-search when no path was retained (v1
// files) and to a cold solve when the replay rejects. Canonical search
// (see search's solver) makes the stored path exactly what today's search
// would return, and replay regenerates the same Path steps and cache
// records buildPath would — so the trained model is bit-identical whether
// samples replay warm or solve cold, at any Parallelism.
func (a *Advisor) trainPipeline(ctx context.Context, goal sla.Goal, cache *search.TranspositionCache, ws *warmSource) (*Model, error) {
	start := time.Now()
	prob := graph.NewProblem(a.env, goal)
	// The canonical-VM-ordering reduction fragments state merging more
	// than it prunes at training sample sizes (see the ablation
	// benchmarks in internal/search), so the training searches run
	// without it.
	prob.NoSymmetryBreaking = true
	searcher, err := search.New(prob)
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}

	solutions := make([]sampleSolution, a.cfg.NumSamples)
	warmed := make([]bool, a.cfg.NumSamples)
	priors := make([]*trainSample, a.cfg.NumSamples)
	numLabels := len(a.env.Templates) + len(a.env.VMTypes)
	ds := &dt.Dataset{FeatureNames: features.Names(len(a.env.Templates)), NumLabels: numLabels}
	fs := features.NewState(prob)
	var samples []trainSample
	cacheHits, cacheMisses, warm := 0, 0, 0
	fold := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			sol := solutions[i]
			addPathToDataset(ds, fs, sol.res.Path)
			cacheHits += sol.res.CacheHits
			cacheMisses += sol.res.CacheMisses
			if warmed[i] {
				warm++
			}
			if a.cfg.KeepTrainingData {
				ts := trainSample{w: sol.w, actions: sol.res.Actions, variates: sol.variates}
				if sol.res.Closed != nil {
					ts.reuse = search.ReuseFrom(sol.res)
				} else if p := priors[i]; p != nil {
					// Replayed sample: no search ran, so no Closed set was
					// built. The prior epoch's reuse is still exact for this
					// (workload, goal) and Closed sets are immutable, so the
					// next epoch inherits it unchanged.
					ts.reuse = p.reuse
				}
				samples = append(samples, ts)
			}
			solutions[i] = sampleSolution{} // folded; free the search result early
		}
		return nil
	}
	err = solveSamplesFold(ctx, a.cfg.Parallelism, a.cfg.NumSamples, cache,
		func(i int, cache *search.TranspositionCache, rec *search.PendingSuffixes) error {
			var prior *trainSample
			if ws != nil && i < len(ws.samples) {
				prior = &ws.samples[i]
			}
			var w *workload.Workload
			var variates []float64
			switch {
			case a.cfg.SampleWeights != nil && ws != nil && ws.useVariates &&
				prior != nil && len(prior.variates) == a.cfg.SampleSize:
				// Same seed and size: the prior epoch's variates ARE this
				// epoch's draws — rebin them under the drifted mix instead
				// of reconstructing (and expensively reseeding) a sampler.
				variates = prior.variates
				w = workload.WeightedFromVariates(a.env.Templates, variates, a.cfg.SampleWeights)
			case a.cfg.SampleWeights != nil:
				sampler := workload.NewSampler(a.env.Templates, deriveSeed(a.cfg.Seed, i))
				w, variates = sampler.WeightedVariates(a.cfg.SampleSize, a.cfg.SampleWeights)
			default:
				sampler := workload.NewSampler(a.env.Templates, deriveSeed(a.cfg.Seed, i))
				w = sampler.Uniform(a.cfg.SampleSize)
			}
			if prior != nil && (prior.reuse == nil || !sameQueries(w, prior.w)) {
				prior = nil
			}
			var res *search.Result
			if prior != nil && len(prior.actions) > 0 {
				// Unchanged draw with a retained path: replay it instead of
				// searching. buildPath validates the walk (goal reached,
				// cost matches) before recording anything, so a rejected
				// replay — a stale or corrupted prior — leaves the cache
				// untouched and the sample simply solves cold below.
				r, rErr := searcher.Replay(w, prior.actions, prior.reuse.OldCost, rec)
				if rErr == nil {
					res = r
				} else {
					prior = nil
				}
			}
			warmed[i] = prior != nil
			priors[i] = prior
			if res == nil {
				var reuse *search.Reuse
				if prior != nil {
					// Retained sample without a stored path (decoded from a
					// v1 file): re-search with the §5 adaptive-A* bound,
					// which collapses the search to a near-replay.
					reuse = prior.reuse
				}
				var err error
				res, err = searcher.Solve(w, search.Options{
					MaxExpansions: a.cfg.MaxExpansions,
					KeepClosed:    a.cfg.KeepTrainingData,
					Cache:         cache,
					Record:        rec,
					Reuse:         reuse,
				})
				if err != nil {
					return fmt.Errorf("core: training sample %d: %w", i, err)
				}
			}
			solutions[i] = sampleSolution{w: w, res: res, variates: variates}
			return nil
		}, fold)
	if err != nil {
		return nil, err
	}

	tree := dt.Train(ds, a.cfg.Tree)
	m := &Model{
		Goal:              goal,
		Tree:              tree,
		TrainingTime:      time.Since(start),
		TrainingRows:      ds.Len(),
		TrainingConfig:    a.cfg,
		TrainingCacheHits: cacheHits, TrainingCacheMisses: cacheMisses,
		WarmSamples: warm,
		ColdSamples: a.cfg.NumSamples - warm,
		env:         a.env,
		prob:        runtimeProblem(a.env, goal),
		samples:     samples,
		searchCache: cache,
		trainingMix: normalizedMix(a.cfg.SampleWeights, len(a.env.Templates)),
	}
	m.servingTables() // compile the serving form at train time
	return m, nil
}

// runtimeProblem returns the graph problem the batch scheduler navigates.
// The search's canonical-VM-ordering reduction is disabled at runtime: the
// scheduler follows the tree greedily rather than searching, and the
// ordering constraint could otherwise dead-end a state (an empty open VM
// whose remaining templates are all above the bound).
func runtimeProblem(env *schedule.Env, goal sla.Goal) *graph.Problem {
	prob := graph.NewProblem(env, goal)
	prob.NoSymmetryBreaking = true
	return prob
}

// addPathToDataset converts each decision on an optimal path into a
// (features, action-label) training instance, ingested as one batch per
// path (dt.Ingest is defined as Add row by row, so batching changes
// nothing about the dataset). The caller-owned feature state is reused
// across paths; each row still gets its own vector, which the dataset
// retains.
func addPathToDataset(ds *dt.Dataset, fs *features.State, path []search.Step) {
	k := fs.NumTemplates()
	x := make([][]float64, 0, len(path))
	y := make([]int, 0, len(path))
	for _, step := range path {
		fs.Reset(step.State)
		x = append(x, fs.AppendTo(make([]float64, 0, features.VectorLen(k)), step.State))
		y = append(y, step.Action.Label(k))
	}
	ds.Ingest(x, y)
}

// ActionName renders an action label for model dumps.
func (m *Model) ActionName(label int) string {
	a := graph.ActionFromLabel(label, len(m.env.Templates))
	if a.Kind == graph.Place {
		return fmt.Sprintf("assign-T%d", a.Template)
	}
	return fmt.Sprintf("new-VM-%s", m.env.VMTypes[a.VMType].Name)
}

// Dump renders the decision tree in the style of the paper's Figure 6.
func (m *Model) Dump() string { return m.Tree.Dump(m.ActionName) }
