package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// serve-online is the paper's §6.3 online scheduler under queueing: a
// gold tenant (Max goal, served by §6.3.1 shift builds) and a bronze
// tenant (Percentile goal, served by augmented-template retrains) share
// one engine. Poisson gaps shorter than query latencies make batches
// queue, so arrivals wait on model acquisition through the shared ω-map;
// drift detection runs at the daemon's window in Synchronous mode so the
// run is deterministic. Base models are small so one run sees hundreds of
// builds.
const (
	onlineTemplates = 5
	onlineVMTypes   = 2
	onlineDrift     = 48
	goldGap         = 45 * time.Second
	bronzeGap       = 225 * time.Second
	goldDeadline    = 15 * time.Minute // the CLI's Max goal
	bronzeDeadline  = 25 * time.Minute
	// onlineRate sizes a run: arrivals per measured second, near the
	// rate the workload sustains on a 2-vCPU box. The count is fixed by
	// -seconds, not by a timer, because build and retrain counts depend
	// on the whole arrival history.
	onlineRate = 1400
)

// onlineEpisodes is how many independent episodes a run is split into,
// each a fresh engine over the same base models with its own arrival
// draw. Build and retrain counts swing widely with one history's drift
// retrains and queueing; summing independent episodes keeps a run's
// totals close to their expectation.
const onlineEpisodes = 16

// onlineEvent is one arrival of the merged gold/bronze schedule.
type onlineEvent struct {
	at       time.Duration
	bronze   bool
	template int
	tag      int
}

// onlineEpisode is the arrivals one episode's engine serves.
type onlineEpisode struct {
	events []onlineEvent
	counts [2]int // arrivals per tenant: gold, bronze
}

// onlineSetup is what every episode shares: the base models and engine
// options. Each episode builds its own engine from them.
type onlineSetup struct {
	gold, bronze *core.Model
	opts         core.OnlineOptions
	episodes     []*onlineEpisode
}

// newEngine builds one episode's engine: the gold tenant on the default
// registry, the bronze tenant on a registry of its own.
func (s *onlineSetup) newEngine() (*core.OnlineScheduler, error) {
	engine := core.NewOnlineScheduler(s.gold, s.opts)
	if _, err := engine.AddRegistry("bronze", s.bronze); err != nil {
		return nil, err
	}
	return engine, nil
}

func newOnlineSetup(cfg config) (*onlineSetup, error) {
	env := schedule.NewEnv(workload.DefaultTemplates(onlineTemplates), cloud.DefaultVMTypes(onlineVMTypes))
	tc := core.DefaultTrainConfig()
	tc.NumSamples, tc.SampleSize = 100, 8 // Seed 1: the models are fixed, -seed draws the arrivals
	tc.Parallelism = runtime.NumCPU()
	adv, err := core.NewAdvisor(env, tc)
	if err != nil {
		return nil, err
	}
	gold, err := adv.Train(sla.NewMaxLatency(goldDeadline, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		return nil, fmt.Errorf("train gold model: %w", err)
	}
	bronze, err := adv.Train(sla.NewPercentile(90, bronzeDeadline, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		return nil, fmt.Errorf("train bronze model: %w", err)
	}
	opts := core.DefaultOnlineOptions()
	opts.Drift = core.DriftOptions{Window: onlineDrift, Synchronous: true}
	opts.Retrain = core.TrainConfig{NumSamples: 40, SampleSize: 6, Seed: tc.Seed, Parallelism: runtime.NumCPU()}

	perEpisode := int(cfg.seconds * onlineRate / onlineEpisodes)
	if cfg.short {
		perEpisode = 60
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	gaps := [2]time.Duration{goldGap, bronzeGap}
	episodes := make([]*onlineEpisode, onlineEpisodes)
	for e := range episodes {
		ep := &onlineEpisode{}
		ep.counts[0] = perEpisode * 5 / 6
		ep.counts[1] = perEpisode - ep.counts[0]
		var streams [2][]onlineEvent
		for t := 0; t < 2; t++ {
			at := time.Duration(0)
			for i := 0; i < ep.counts[t]; i++ {
				at += arrivalGap(rng, gaps[t])
				streams[t] = append(streams[t], onlineEvent{at: at, bronze: t == 1, template: rng.Intn(onlineTemplates), tag: i})
			}
		}
		// Merge in time order; gold first on ties.
		g, b := streams[0], streams[1]
		for len(g) > 0 || len(b) > 0 {
			if len(b) == 0 || (len(g) > 0 && g[0].at <= b[0].at) {
				ep.events, g = append(ep.events, g[0]), g[1:]
			} else {
				ep.events, b = append(ep.events, b[0]), b[1:]
			}
		}
		episodes[e] = ep
	}
	return &onlineSetup{gold: gold, bronze: bronze, opts: opts, episodes: episodes}, nil
}

// arrivalTick is the grid arrivals land on. Waits are then multiples of
// the tick, so batches that waited alike share an ω-map entry, as the
// paper's reuse intends for waits within the predictor's error, instead
// of every continuous wait keying a model of its own.
const arrivalTick = 15 * time.Second

// arrivalGap draws a geometric number of ticks with the given mean: the
// discrete-time analogue of an exponential gap (Poisson arrivals).
func arrivalGap(rng *rand.Rand, mean time.Duration) time.Duration {
	p := float64(arrivalTick) / float64(mean)
	k := 1
	for rng.Float64() >= p {
		k++
	}
	return time.Duration(k) * arrivalTick
}

// Submit classes: what happened inside one timed Submit.
const (
	plainEvent   = iota // neither of the below
	buildEvent          // an ω-map build
	retrainEvent        // a drift retrain (the tenant's epoch changed)
)

// episodeResult is one episode's outcome.
type episodeResult struct {
	times   []time.Duration
	classes []int
	results [2]*core.OnlineResult
	wall    time.Duration
	scale   core.ScaleStats
	swaps   int64
}

// runEpisode builds a fresh engine and submits the episode's events to it
// from one goroutine, timing every Submit: its tail is the wait an unlucky
// arrival pays for model acquisition. The heap mark sees this engine only.
func runEpisode(e int, setup *onlineSetup, heap *heapWatch, tr *tracer) (*episodeResult, error) {
	ep := setup.episodes[e]
	eng, err := setup.newEngine()
	if err != nil {
		return nil, err
	}
	regs := [2]*core.ModelRegistry{eng.Registry(), eng.RegistryNamed("bronze")}
	clocks := [2]*core.SimClock{{}, {}}
	gold := eng.NewStream(clocks[0])
	bronze, err := eng.NewStreamOn("bronze", clocks[1])
	if err != nil {
		return nil, err
	}
	streams := [2]*core.Stream{gold, bronze}
	for t, s := range streams {
		s.Reserve(ep.counts[t])
	}
	out := &episodeResult{times: make([]time.Duration, len(ep.events)), classes: make([]int, len(ep.events))}
	ctx := context.Background()
	batch := make([]workload.Query, 1)
	root := tr.begin("online.episode", -1, int64(e))
	defer tr.end(root)
	start := time.Now()
	for i, ev := range ep.events {
		t := 0
		if ev.bronze {
			t = 1
		}
		clocks[t].Advance(ev.at)
		batch[0] = workload.Query{TemplateID: ev.template, Tag: ev.tag}
		builds, epoch := eng.CacheStats(), regs[t].Current().Epoch
		h := tr.begin("core.submit", root, int64(i))
		t0 := time.Now()
		err := streams[t].Submit(ctx, batch...)
		out.times[i] = time.Since(t0)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("episode %d event %d: %w", e, i, err)
		}
		switch {
		case regs[t].Current().Epoch != epoch:
			out.classes[i] = retrainEvent
		case eng.CacheStats() != builds:
			out.classes[i] = buildEvent
		}
	}
	out.wall = time.Since(start)
	heap.mark()
	start = time.Now()
	for t, s := range streams {
		h := tr.begin("core.finish", root, int64(t))
		out.results[t] = s.Finish()
		tr.end(h)
		s.Close()
	}
	out.wall += time.Since(start)
	out.scale = eng.ScaleStats()
	for _, r := range regs {
		out.swaps += r.Stats().Swaps
	}
	return out, nil
}

func runOnline(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	reps := setupReps
	if cfg.short {
		reps = 1
	}
	newSetup := func() (*onlineSetup, error) { return newOnlineSetup(cfg) }
	var setup *onlineSetup
	var setupTimes []float64
	for r := 0; r < reps; r++ {
		setup = nil
		var err error
		if setup, err = timeSetup(&setupTimes, newSetup); err != nil {
			return nil, err
		}
	}
	settle()
	heap := startHeapWatch()
	var runs []*episodeResult
	for e := range setup.episodes {
		r, err := runEpisode(e, setup, heap, tr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	// The retained heap at an episode's end depends on how many ω-map
	// entries its drift history left; the median over episodes is steady
	// where the largest is not.
	finishHeap(rep, heap, median)
	for r := 0; r < reps; r++ {
		if _, err := timeSetup(&setupTimes, newSetup); err != nil {
			return nil, err
		}
	}
	reportSetup(rep, setupTimes)

	var (
		arrivals, completed, violations, vms    int
		shiftBuilds, augBuilds, hits, buildEvts int
		builds, swaps, retrainMS, warm, cold    int64
		omegaSize                               int
		costs                                   [2]float64
		wall, buildTime, allTime                time.Duration
		times, plainT, shiftT, augT             []time.Duration
	)
	deadlines := [2]time.Duration{goldDeadline, bronzeDeadline}
	for e, r := range runs {
		ep := setup.episodes[e]
		arrivals += len(ep.events)
		wall += r.wall
		times = append(times, r.times...)
		for t, res := range r.results {
			seen := make([]bool, ep.counts[t])
			for _, o := range res.Outcomes {
				ok := o.Tag >= 0 && o.Tag < len(seen) && !seen[o.Tag]
				rep.check(ok, "episode %d tenant %d: tag %d completed twice or out of range", e, t, o.Tag)
				if ok {
					seen[o.Tag] = true
					completed++
				}
				if o.End-o.Arrival > deadlines[t] {
					violations++
				}
			}
			rep.check(len(res.Outcomes) == ep.counts[t], "episode %d tenant %d: %d of %d completed", e, t, len(res.Outcomes), ep.counts[t])
			vms += res.VMsRented
			costs[t] += res.Cost
			hits += res.CacheHits
		}
		shiftBuilds += r.results[0].Adaptations
		augBuilds += r.results[1].Retrainings
		builds += r.scale.CacheBuilds
		swaps += r.swaps
		retrainMS += r.scale.TotalRetrainMS
		warm += r.scale.WarmSamples
		cold += r.scale.ColdSamples
		omegaSize = max(omegaSize, r.scale.CacheEntries)
		for i, d := range r.times {
			allTime += d
			switch r.classes[i] {
			case plainEvent:
				plainT = append(plainT, d)
			case buildEvent:
				buildEvts++
				buildTime += d
				if ep.events[i].bronze {
					augT = append(augT, d)
				} else {
					shiftT = append(shiftT, d)
				}
			}
		}
	}

	rep.setE2E("throughput_per_s", float64(arrivals)/wall.Seconds(), "1/s")
	rep.setE2E("latency_ms", durQuantile(times, 0.99, time.Millisecond), "ms")
	rep.samples["latency_ms"] = len(times)
	rep.setE2E("cost_cents_per_query", (costs[0]+costs[1])/float64(arrivals), "cents")
	rep.setE2E("success_ratio", float64(completed)/float64(arrivals), "ratio")
	rep.attempted = arrivals
	rep.failed = arrivals - completed

	rep.setLayer("core.sla_violation_pct", 100*float64(violations)/float64(arrivals), "%")
	rep.setLayer("core.build_events", float64(buildEvts), "count")
	rep.setLayer("core.build_share", float64(buildTime)/float64(allTime), "ratio")
	rep.setLayer("core.shift_builds", float64(shiftBuilds), "count")
	rep.setLayer("core.augmented_builds", float64(augBuilds), "count")
	rep.setLayer("core.omega_hits", float64(hits), "count")
	rep.setLayer("core.omega_hit_ratio", float64(hits)/float64(int64(hits)+builds), "ratio")
	rep.setLayer("core.shift_build_ms_p50", durQuantile(shiftT, 0.5, time.Millisecond), "ms")
	rep.samples["core.shift_build_ms_p50"] = len(shiftT)
	rep.setLayer("core.augmented_build_ms_p50", durQuantile(augT, 0.5, time.Millisecond), "ms")
	rep.samples["core.augmented_build_ms_p50"] = len(augT)
	rep.setLayer("core.nobuild_submit_ns", durQuantile(plainT, 0.5, time.Nanosecond), "ns")
	rep.samples["core.nobuild_submit_ns"] = len(plainT)
	rep.setLayer("core.omega_size", float64(omegaSize), "count")
	rep.setLayer("registry.drift_retrains", float64(swaps), "count")
	rep.setLayer("registry.retrain_ms_total", float64(retrainMS), "ms")
	if warm+cold > 0 {
		rep.setLayer("registry.warm_sample_ratio", float64(warm)/float64(warm+cold), "ratio")
	}
	rep.setLayer("cloud.vms_rented", float64(vms), "count")

	fp := rep.fingerprint
	fp["online.cost_gold"] = fmt.Sprintf("%.9g", costs[0])
	fp["online.cost_bronze"] = fmt.Sprintf("%.9g", costs[1])
	fp["online.violations"] = fmt.Sprint(violations)
	fp["online.omega_builds"] = fmt.Sprint(builds)
	fp["online.shift_builds"] = fmt.Sprint(shiftBuilds)
	fp["online.augmented_builds"] = fmt.Sprint(augBuilds)
	fp["online.omega_hits"] = fmt.Sprint(hits)
	fp["online.drift_retrains"] = fmt.Sprint(swaps)
	fp["online.vms"] = fmt.Sprint(vms)
	return rep, nil
}
