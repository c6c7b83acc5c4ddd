package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// train is offline model generation at CLI scale, phase by phase:
//
//  1. a cold Advisor.Train for Max on a seeded template mix;
//  2. Model.Tighten(0.2) (§5, Fig. 16);
//  3. a warm core.DriftRetrain after a few-point mix nudge;
//  4. EncodeModel plus ModelStore.Commit, then DecodeModel;
//  5. with the Max phase's heap released, a cold Train for Average.
//
// The Max phases exercise the transposition cache, adaptive-A* reuse and
// warm replay; the Average phase bypasses all three. The workload times
// no serving call: µs timings from this heap-heavy process are not
// trusted (see heavyHeapMiB).
const (
	trainTemplates = 10
	trainVMTypes   = 2
	trainN, trainM = 500, 12
	avgN, avgM     = 100, 10
	// evalQueries sizes the held-out batch the Max model schedules for
	// cost_cents_per_query.
	evalQueries = 1000
)

// trainInputs is everything the seed decides.
type trainInputs struct {
	env         *schedule.Env
	maxGoal     sla.Goal
	avgGoal     sla.Goal
	mix, nudged []float64
	eval        *workload.Workload
	n, m        int // Max-phase training scale
	avgN, avgM  int
}

func newTrainInputs(cfg config) *trainInputs {
	env := schedule.NewEnv(workload.DefaultTemplates(trainTemplates), cloud.DefaultVMTypes(trainVMTypes))
	in := &trainInputs{
		env:     env,
		maxGoal: sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		avgGoal: sla.NewAverage(10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		n:       trainN, m: trainM, avgN: avgN, avgM: avgM,
	}
	if cfg.short {
		in.n, in.m, in.avgN, in.avgM = 40, 6, 20, 5
	}
	// The training mix is fixed, so every run trains the same models; the
	// seed draws the drift nudge and the held-out batch.
	in.mix = make([]float64, trainTemplates)
	total := 0.0
	for i := range in.mix {
		in.mix[i] = float64(trainTemplates + i)
		total += in.mix[i]
	}
	for i := range in.mix {
		in.mix[i] /= total
	}
	// The nudge moves one point of mass across three distinct boundaries
	// between neighbouring templates: the small motion a drift detector fires on.
	// Each move shifts one inverse-CDF boundary, so most samples' draws are
	// unchanged and replay warm.
	rng := rand.New(rand.NewSource(cfg.seed))
	in.nudged = append([]float64(nil), in.mix...)
	for _, b := range rng.Perm(trainTemplates - 1)[:3] {
		from, to := b, b+1
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		in.nudged[from] -= 0.01
		in.nudged[to] += 0.01
	}
	in.eval = workload.NewSampler(env.Templates, cfg.seed).Weighted(evalQueries, in.mix)
	return in
}

func (in *trainInputs) advisor(n, m int, mix []float64) (*core.Advisor, error) {
	tc := core.DefaultTrainConfig() // Seed 1, the CLI default
	tc.NumSamples, tc.SampleSize = n, m
	tc.SampleWeights = mix
	tc.Parallelism = runtime.NumCPU()
	return core.NewAdvisor(in.env, tc)
}

// modelHash is the model's content hash: goal, environment, mix and tree.
// Unlike the encoded bytes it excludes training wall time.
func modelHash(m *core.Model) (string, error) {
	data, err := core.EncodeModel(m)
	if err != nil {
		return "", err
	}
	info, err := core.InspectModel(data)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", info.Hash), nil
}

// trainRep is one pass through the five phases.
type trainRep struct {
	phase     [5]time.Duration // train, adapt, retrain, checkpoint (encode+commit), avg
	encode    time.Duration
	commit    time.Duration
	decode    time.Duration
	bytes     int
	hashes    [4]string // max, tightened, retrained, average
	warm      int
	hits      int
	misses    int
	evalCost  float64
	decodedOK bool
}

func runTrainRep(in *trainInputs, rep int, storeDir string, heap *heapWatch, tr *tracer) (*trainRep, error) {
	out := &trainRep{}
	root := tr.begin("train.rep", -1, int64(rep))
	defer tr.end(root)
	adv, err := in.advisor(in.n, in.m, in.mix)
	if err != nil {
		return nil, err
	}
	phase := func(i int, name string, f func() error) error {
		h := tr.begin(name, root, int64(rep))
		start := time.Now()
		err := f()
		out.phase[i] += time.Since(start)
		tr.end(h)
		return err
	}
	var maxModel, tight, retrained *core.Model
	if err := phase(0, "core.train_max", func() (err error) {
		maxModel, err = adv.Train(in.maxGoal)
		return err
	}); err != nil {
		return nil, fmt.Errorf("train Max: %w", err)
	}
	if err := phase(1, "core.tighten", func() (err error) {
		tight, err = maxModel.Tighten(0.2)
		return err
	}); err != nil {
		return nil, fmt.Errorf("tighten: %w", err)
	}
	epoch := &core.ModelEpoch{Model: maxModel, Epoch: 1, Mix: maxModel.TrainingMix()}
	if err := phase(2, "core.drift_retrain", func() (err error) {
		retrained, err = core.DriftRetrain(context.Background(), epoch, in.nudged)
		return err
	}); err != nil {
		return nil, fmt.Errorf("drift retrain: %w", err)
	}
	var data []byte
	if err := phase(3, "store.checkpoint", func() error {
		h := tr.begin("store.encode", root, int64(rep))
		start := time.Now()
		var err error
		data, err = core.EncodeModel(retrained)
		out.encode = time.Since(start)
		tr.end(h)
		if err != nil {
			return err
		}
		ms, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		h = tr.begin("store.commit", root, int64(rep))
		start = time.Now()
		err = ms.Commit(data, store.Lineage{Epoch: uint64(rep + 2), Reason: "drift"})
		out.commit = time.Since(start)
		tr.end(h)
		return err
	}); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	out.bytes = len(data)
	h := tr.begin("store.decode", root, int64(rep))
	start := time.Now()
	decoded, err := core.DecodeModel(data)
	out.decode = time.Since(start)
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	heap.mark()
	for i, m := range []*core.Model{maxModel, tight, retrained} {
		if out.hashes[i], err = modelHash(m); err != nil {
			return nil, err
		}
	}
	dh, err := modelHash(decoded)
	if err != nil {
		return nil, err
	}
	out.decodedOK = dh == out.hashes[2]
	out.warm = retrained.WarmSamples
	out.hits, out.misses = maxModel.TrainingCacheHits, maxModel.TrainingCacheMisses
	sched, err := maxModel.ScheduleBatch(in.eval)
	if err != nil {
		return nil, fmt.Errorf("schedule held-out batch: %w", err)
	}
	out.evalCost = sched.Cost(in.env, in.maxGoal) / float64(len(in.eval.Queries))

	// Release the Max phase's heap before the Average phase.
	maxModel, tight, retrained, decoded, epoch, data = nil, nil, nil, nil, nil, nil
	settle()
	avgAdv, err := in.advisor(in.avgN, in.avgM, nil)
	if err != nil {
		return nil, err
	}
	var avg *core.Model
	if err := phase(4, "core.train_avg", func() (err error) {
		avg, err = avgAdv.Train(in.avgGoal)
		return err
	}); err != nil {
		return nil, fmt.Errorf("train Average: %w", err)
	}
	heap.mark()
	if out.hashes[3], err = modelHash(avg); err != nil {
		return nil, err
	}
	return out, nil
}

func runTrain(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	setups, minReps := setupReps, 3
	if cfg.short {
		setups, minReps = 1, 2
	}
	// Set-up draws the inputs and runs a small warm-up training, so the
	// worker pool and runtime are warm before the first timed phase.
	newSetup := func() (*trainInputs, error) {
		in := newTrainInputs(cfg)
		adv, err := in.advisor(in.n/10, in.m, in.mix)
		if err != nil {
			return nil, err
		}
		if _, err := adv.Train(in.maxGoal); err != nil {
			return nil, fmt.Errorf("warm-up train: %w", err)
		}
		return in, nil
	}
	var in *trainInputs
	var setupTimes []float64
	for r := 0; r < setups; r++ {
		var err error
		if in, err = timeSetup(&setupTimes, newSetup); err != nil {
			return nil, err
		}
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(".bench_build", "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)

	// One untimed rep first: the first pass grows the heap from nothing
	// (page faults, GC pacing from a small heap) and ran up to twice as
	// slow as later ones in trial runs.
	if _, err := runTrainRep(in, -1, storeDir, startHeapWatch(), nil); err != nil {
		return nil, err
	}
	settle()
	heap := startHeapWatch()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var reps []*trainRep
	for len(reps) < minReps || time.Since(start) < budget {
		r, err := runTrainRep(in, len(reps), storeDir, heap, tr)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		settle()
	}
	finishHeap(rep, heap, slices.Max[[]float64])
	for r := 0; r < setups; r++ {
		if _, err := timeSetup(&setupTimes, newSetup); err != nil {
			return nil, err
		}
	}
	reportSetup(rep, setupTimes)

	// Determinism: every rep must rebuild the first rep's models exactly,
	// and the decoded checkpoint must serve the model that was encoded.
	trained, passing := 0, 0
	first := reps[0]
	for i, r := range reps {
		for k, h := range r.hashes {
			trained++
			if h == first.hashes[k] {
				passing++
			} else {
				rep.check(false, "rep %d model %d hash %s, rep 0 built %s", i, k, h, first.hashes[k])
			}
		}
		rep.check(r.decodedOK, "rep %d: decoded checkpoint hash differs from the encoded model's", i)
		rep.check(r.evalCost == first.evalCost, "rep %d: held-out cost %v, rep 0 %v", i, r.evalCost, first.evalCost)
	}

	med := func(f func(r *trainRep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	samples := float64(3*in.n + in.avgN)
	rep.setE2E("throughput_per_s", med(func(r *trainRep) float64 {
		return samples / (r.phase[0] + r.phase[1] + r.phase[2] + r.phase[4]).Seconds()
	}), "1/s")
	rep.setE2E("latency_ms", med(func(r *trainRep) float64 {
		var sum time.Duration
		for _, d := range r.phase {
			sum += d
		}
		return float64(sum) / float64(time.Millisecond)
	}), "ms")
	for _, n := range []string{"throughput_per_s", "latency_ms"} {
		rep.samples[n] = len(reps)
	}
	rep.setE2E("cost_cents_per_query", first.evalCost, "cents")
	rep.setE2E("success_ratio", float64(passing)/float64(trained), "ratio")
	rep.attempted = trained
	rep.failed = trained - passing

	for i, name := range []string{"train.train_s", "train.adapt_s", "train.retrain_s", "train.checkpoint_s", "train.avg_s"} {
		rep.setLayer(name, med(func(r *trainRep) float64 { return r.phase[i].Seconds() }), "s")
		rep.samples[name] = len(reps)
	}
	rep.setLayer("store.encode_ms", med(func(r *trainRep) float64 { return ms(r.encode) }), "ms")
	rep.setLayer("store.commit_ms", med(func(r *trainRep) float64 { return ms(r.commit) }), "ms")
	rep.setLayer("store.decode_ms", med(func(r *trainRep) float64 { return ms(r.decode) }), "ms")
	rep.setLayer("store.bytes", float64(first.bytes), "bytes")
	rep.setLayer("core.warm_replay_ratio", float64(first.warm)/float64(in.n), "ratio")
	if n := first.hits + first.misses; n > 0 {
		rep.setLayer("search.cache_hit_ratio", float64(first.hits)/float64(n), "ratio")
	}
	for k, name := range []string{"max", "tightened", "retrained", "average"} {
		rep.fingerprint["train.hash_"+name] = first.hashes[k]
	}
	rep.fingerprint["train.eval_cost"] = fmt.Sprintf("%.9g", first.evalCost)
	rep.fingerprint["train.warm_samples"] = fmt.Sprint(first.warm)

	if tr != nil {
		if err := trainStages(rep, in, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// trainStages times the training pipeline's layers by calling them
// directly, one goroutine, on benchmark-drawn samples of the training
// size: workload sampling, A* search (with a transposition cache for
// Max), feature folding into a dataset, and tree fitting; then adaptive
// re-search under the tightened goal, and the Average goal's searches.
func trainStages(rep *report, in *trainInputs, tr *tracer) error {
	root := tr.begin("train.stages", -1, int64(in.n))
	defer tr.end(root)
	span := func(name string, f func()) time.Duration {
		h := tr.begin(name, root, int64(in.n))
		start := time.Now()
		f()
		tr.end(h)
		return time.Since(start)
	}
	var ws []*workload.Workload
	sampleT := span("workload.sample", func() {
		for i := 0; i < in.n; i++ {
			ws = append(ws, workload.NewSampler(in.env.Templates, int64(i)).Weighted(in.m, in.mix))
		}
	})
	prob := graph.NewProblem(in.env, in.maxGoal)
	prob.NoSymmetryBreaking = true
	searcher, err := search.New(prob)
	if err != nil {
		return err
	}
	cache := search.NewTranspositionCache()
	results := make([]*search.Result, in.n)
	var solveErr error
	expanded := 0
	solveT := span("search.solve", func() {
		var rec search.PendingSuffixes
		for i, w := range ws {
			res, err := searcher.Solve(w, search.Options{KeepClosed: true, Cache: cache, Record: &rec})
			if err != nil {
				solveErr = err
				return
			}
			cache.Commit(&rec)
			results[i] = res
			expanded += res.Expanded
		}
	})
	if solveErr != nil {
		return fmt.Errorf("stage solve: %w", solveErr)
	}
	k := len(in.env.Templates)
	ds := &dt.Dataset{FeatureNames: features.Names(k), NumLabels: k + len(in.env.VMTypes)}
	foldT := span("features.fold", func() {
		fs := features.NewState(prob)
		for _, res := range results {
			for _, step := range res.Path {
				fs.Reset(step.State)
				ds.Add(fs.AppendTo(make([]float64, 0, features.VectorLen(k)), step.State), step.Action.Label(k))
			}
		}
	})
	var tree *dt.Tree
	fitT := span("dt.fit", func() { tree = dt.Train(ds, dt.DefaultConfig()) })
	rows := ds.Len()

	tight := graph.NewProblem(in.env, in.maxGoal.Tighten(0.2))
	tight.NoSymmetryBreaking = true
	tsearch, err := search.New(tight)
	if err != nil {
		return err
	}
	adaptExpanded := 0
	adaptT := span("search.adapt", func() {
		for i, w := range ws {
			res, err := tsearch.Solve(w, search.Options{Reuse: search.ReuseFrom(results[i])})
			if err != nil {
				solveErr = err
				return
			}
			adaptExpanded += res.Expanded
		}
	})
	if solveErr != nil {
		return fmt.Errorf("stage adapt: %w", solveErr)
	}
	results, ws, ds = nil, nil, nil
	settle()

	aprob := graph.NewProblem(in.env, in.avgGoal)
	aprob.NoSymmetryBreaking = true
	asearch, err := search.New(aprob)
	if err != nil {
		return err
	}
	avgExpanded := 0
	avgT := span("search.avg_solve", func() {
		for i := 0; i < in.avgN; i++ {
			w := workload.NewSampler(in.env.Templates, int64(i)).Uniform(in.avgM)
			res, err := asearch.Solve(w, search.Options{})
			if err != nil {
				solveErr = err
				return
			}
			avgExpanded += res.Expanded
		}
	})
	if solveErr != nil {
		return fmt.Errorf("stage Average solve: %w", solveErr)
	}

	rep.setLayer("workload.sample_ms", ms(sampleT), "ms")
	rep.setLayer("search.solve_ms", ms(solveT), "ms")
	rep.setLayer("search.expanded", float64(expanded), "count")
	rep.setLayer("features.fold_ms", ms(foldT), "ms")
	rep.setLayer("dt.fit_ms", ms(fitT), "ms")
	rep.setLayer("dt.rows", float64(rows), "count")
	rep.setLayer("dt.nodes", float64(tree.NumNodes()), "count")
	rep.setLayer("search.adapt_ms", ms(adaptT), "ms")
	rep.setLayer("search.adapt_expanded", float64(adaptExpanded), "count")
	rep.setLayer("search.avg_solve_ms", ms(avgT), "ms")
	rep.setLayer("search.avg_expanded", float64(avgExpanded), "count")
	sum := sampleT + solveT + foldT + fitT
	rep.setLayer("train.stage_sum_s", sum.Seconds(), "s")
	if t := rep.layer["train.train_s"].Value; t > 0 {
		rep.setLayer("train.stage_sum_ratio", sum.Seconds()/t, "ratio")
	}
	return nil
}
