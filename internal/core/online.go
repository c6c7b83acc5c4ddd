package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/heuristics"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// OnlineOptions tunes online scheduling (§6.3) and the serving engine built
// around it.
type OnlineOptions struct {
	// Reuse enables the model-reuse optimization (§6.3.1): models built
	// for a given pattern of query waits (the ω-map) are cached and
	// reused when the same pattern recurs. The cache is shared by every
	// stream of the engine, with duplicate builds suppressed — when two
	// tenants need the same model at once, exactly one builds it.
	Reuse bool
	// Shift enables the linear-shifting optimization (§6.3.1): for
	// shiftable goals (Max, PerQuery), a batch whose queries have waited
	// is scheduled by adaptively shifting the base model's goal instead
	// of training a model for augmented templates.
	Shift bool
	// WaitResolution buckets query waits when keying cached models and
	// building augmented templates; the paper observes two batches can
	// share a model when their ω differ by less than the latency
	// predictor's error. Default 1s.
	WaitResolution time.Duration
	// Retrain configures the from-scratch training used when neither
	// optimization applies. A zero value (NumSamples == 0) re-trains at
	// the base model's own scale — the paper's unoptimized baseline.
	Retrain TrainConfig
	// Drift configures workload-drift detection and model hot-swapping
	// (§6's adaptive loop). Disabled by default; see DriftOptions.
	Drift DriftOptions
	// Shards is the number of engine shards for consistent-hash tenant
	// placement (RunTenants): worker-pool partitions with shard-local
	// run queues and stream scratch. Zero selects GOMAXPROCS. Streams
	// can be migrated between shards live (Rebalance) without dropping
	// or doubling in-flight arrivals.
	Shards int
	// Retry is the failure discipline applied to every registry the
	// engine hosts: retrain backoff + circuit breaker (measured in
	// drift-trigger attempts, so it stays deterministic under SimClock)
	// and bounded checkpoint retry. Zero fields take defaults; negative
	// fields disable. See RetryPolicy.
	Retry RetryPolicy
	// Degrade enables graceful degradation: an arrival whose model
	// acquisition or placement fails is scheduled by the first-fit
	// heuristic on the engine's fallback VM type instead of failing the
	// stream. Degraded mode is sticky per epoch — once a stream degrades
	// it stays on the heuristic until a new epoch installs (context
	// cancellation still aborts). Off by default: replay and analysis
	// callers usually want model-path errors surfaced, not absorbed.
	Degrade bool
	// MaxBacklog sheds load admission-control-style while degraded: when
	// an arrival event's batch (re-admitted backlog + new arrivals)
	// exceeds MaxBacklog, newly arrived queries beyond the bound are
	// dropped (never re-admitted work — a query admitted once completes
	// exactly once). 0 disables shedding. Only active in degraded mode.
	MaxBacklog int
	// Prices is an optional spot-style time-varying VM price schedule.
	// Every stream's simulator charges leases per the schedule (see
	// cloud.Sim.SetPrices), and the serving loop's dominated-placement
	// guard compares open-VM placement against fresh-VM rental at the
	// multiplier in effect at each arrival instant, so scheduling and
	// accounting see the same prices. Nil means flat base prices; a flat
	// all-1.0 schedule is bit-identical to nil.
	Prices *cloud.PriceSchedule
}

// DefaultOnlineOptions enables both optimizations and re-trains augmented
// models at the base model's scale when training from scratch is required.
// Drift detection stays off; enable it by setting Drift.Window.
func DefaultOnlineOptions() OnlineOptions {
	return OnlineOptions{
		Reuse:          true,
		Shift:          true,
		WaitResolution: time.Second,
	}
}

// OnlineResult reports the outcome of scheduling one arrival stream.
type OnlineResult struct {
	// Cost is the total monetary cost in cents: start-up fees,
	// processing fees, and the goal penalty over true query latencies
	// (completion − arrival).
	Cost float64
	// Penalty is the SLA penalty component of Cost.
	Penalty float64
	// Perf holds each query's true latency.
	Perf []sla.QueryPerf
	// VMsRented counts VMs provisioned over the stream.
	VMsRented int
	// SchedulingTime is the total advisor time across arrivals (model
	// acquisition + tree parsing) — the overhead Fig. 19 reports.
	SchedulingTime time.Duration
	// PerArrival holds the advisor time of each arrival event.
	PerArrival []time.Duration
	// Retrainings counts distinct augmented models this stream acquired
	// from scratch; Adaptations counts distinct models it acquired by
	// shifting; CacheHits counts re-acquisitions of a model the stream
	// had already used. The counters are stream-local — and therefore
	// deterministic for a fixed arrival sequence at any engine
	// concurrency — while the engine's shared ω-map dedups the actual
	// builds across streams underneath (see OnlineScheduler.CacheStats).
	Retrainings, Adaptations, CacheHits int
	// DriftTriggers counts drift retrains this stream started;
	// DriftTriggerArrivals records the arrival-event index of each (the
	// shift-recovery experiment reads detection latency off it).
	DriftTriggers        int
	DriftTriggerArrivals []int
	// DriftSuppressed counts drift triggers this stream's registry
	// swallowed (backoff window or open breaker); DriftFailures counts
	// synchronous retrains that failed while the stream kept serving its
	// current epoch.
	DriftSuppressed, DriftFailures int
	// DegradedArrivals counts arrival events scheduled by the first-fit
	// heuristic fallback; DegradedPlacements counts individual queries
	// rerouted to the fallback VM type after an unservable placement;
	// ShedArrivals counts newly arrived queries dropped by admission
	// control while degraded. FaultReadmissions counts queries re-admitted
	// to the batch after their VM failed (each re-admitted exactly once).
	DegradedArrivals, DegradedPlacements, ShedArrivals, FaultReadmissions int
	// DeadlineMisses counts arrival events whose per-event deadline
	// (Stream.SubmitDeadline) expired during model acquisition and were
	// served by the degraded path instead of waiting the deadline out.
	DeadlineMisses int
	// Outcomes records every completed query — tag, arrival, and
	// execution bounds — ordered by completion. Perf is its latency
	// projection; Outcomes is what throughput and recovery analyses
	// consume (per-tag exactly-once accounting across hot swaps).
	Outcomes []Outcome
	// FinalEpoch is the registry epoch serving when the stream finished
	// (0 = the base model was never swapped).
	FinalEpoch uint64
}

// Outcome is one completed query of an online stream.
type Outcome struct {
	// Tag and TemplateID identify the query.
	Tag, TemplateID int
	// Arrival is when the query was submitted; Start and End bound its
	// execution on the simulated VM. True latency is End − Arrival.
	Arrival, Start, End time.Duration
}

// augKey identifies a "new template" (§6.3): an original template plus a
// bucketed wait.
type augKey struct {
	template int
	wait     time.Duration
}

// OnlineScheduler is the multi-tenant online serving engine (§6.3,
// productionized): it owns the model lifecycle (one or more ModelRegistrys,
// each holding a hot-swappable serving epoch for one SLA goal / tenant
// tier), the shared striped ω-map of derived models, and consistent-hash
// tenant placement over engine shards. Each tenant stream — a Stream
// created by NewStream/NewStreamOn, or one tenant of a RunTenants (or Run)
// call — carries its own simulator, arrival bookkeeping, and scratch, and
// is bound to one registry at open time, so any number of streams proceed
// concurrently with no serialization beyond the rare shared model build.
//
// An OnlineScheduler is safe for concurrent use.
type OnlineScheduler struct {
	opts OnlineOptions
	env  *schedule.Env
	goal sla.Goal

	registry *ModelRegistry // the default registry (DefaultRegistry)
	cache    modelCache
	pool     sync.Pool // *Stream
	active   atomic.Int64

	// regMu guards the named-registry table; lookups off the arrival path
	// only (streams bind at open time).
	regMu   sync.RWMutex
	regs    map[string]*ModelRegistry
	regList []*ModelRegistry // by id, for stats

	// share dedups drift retrains across registries: when two registries
	// converge on the same (goal, training config, mix), the second
	// reuses the first's model instead of duplicating the training
	// searches.
	share retrainShare

	// shards and ring implement consistent-hash tenant placement; see
	// shard.go. ring is swapped atomically by Rebalance, exactly like a
	// registry epoch: tenant tasks load it once per arrival event.
	shards     []engineShard
	ring       atomic.Pointer[hashRing]
	migrations atomic.Int64

	// retrainCtx governs background drift retrains: they outlive the
	// triggering stream so other tenants benefit from the swap.
	retrainCtx context.Context

	// fallbackType is the lowest-indexed VM type that can run every
	// template — the degraded path's placement target. −1 when no single
	// type supports the full template set (degradation then cannot
	// reroute and model-path errors surface as before).
	fallbackType int

	// Failure-path counters aggregated across streams (per-stream copies
	// live in each OnlineResult).
	degradedArrivals, degradedPlacements, shedArrivals, deadlineMisses atomic.Int64

	// placeStarted, when non-nil, is invoked at the top of every place;
	// tests use it to pin that simulator placement runs outside the timed
	// advisor window (§6.3's overhead metric excludes execution).
	placeStarted func(res *OnlineResult)
}

// DefaultRegistry is the name of the registry every engine starts with —
// the one NewStream, Run, and a Tenant with an empty Registry bind to.
const DefaultRegistry = "default"

// NewOnlineScheduler returns a serving engine over the base model. The
// Shift optimization additionally requires the base model to retain
// training data (KeepTrainingData) and a shiftable goal.
func NewOnlineScheduler(base *Model, opts OnlineOptions) *OnlineScheduler {
	if opts.WaitResolution <= 0 {
		opts.WaitResolution = time.Second
	}
	if opts.Retrain.NumSamples == 0 {
		opts.Retrain = base.TrainingConfig
		opts.Retrain.KeepTrainingData = false
	}
	o := &OnlineScheduler{
		opts:       opts,
		env:        base.env,
		goal:       base.Goal,
		retrainCtx: context.Background(),
	}
	o.fallbackType = -1
	for ti := range o.env.VMTypes {
		supportsAll := true
		for tpl := range o.env.Templates {
			if _, ok := o.env.Latency(tpl, ti); !ok {
				supportsAll = false
				break
			}
		}
		if supportsAll {
			o.fallbackType = ti
			break
		}
	}
	o.cache.init(DefaultCacheShards)
	o.share.init()
	o.initShards(opts.Shards)
	o.registry = o.attachRegistry(DefaultRegistry, NewModelRegistry(base))
	return o
}

// attachRegistry wires a registry into the engine: assigns its ω-map
// stripe id, points its swap notification at the striped cache, wraps its
// retrain in the cross-registry share, and records it under name.
func (o *OnlineScheduler) attachRegistry(name string, r *ModelRegistry) *ModelRegistry {
	o.regMu.Lock()
	defer o.regMu.Unlock()
	if o.regs == nil {
		o.regs = map[string]*ModelRegistry{}
	}
	id := uint32(len(o.regList))
	r.id = id
	r.SetRetryPolicy(o.opts.Retry)
	// A hot swap retires every derived model of this registry's older
	// epochs: their cache keys can never be requested again.
	r.onSwap = func(e *ModelEpoch) { o.cache.evictBefore(id, e.Epoch) }
	inner := r.retrain
	r.retrain = func(ctx context.Context, cur *ModelEpoch, mix []float64) (*Model, error) {
		return o.share.retrain(ctx, cur, mix, inner)
	}
	o.regs[name] = r
	o.regList = append(o.regList, r)
	return r
}

// AddRegistry adds a named model registry to the engine — one per SLA goal
// or tenant tier — serving base as its epoch 0 with its own drift-retrain
// lifecycle and (optionally, via ModelRegistry.CheckpointTo) its own
// checkpoint store. Streams bind to a registry at open time (NewStreamOn,
// Tenant.Registry); the engine's ω-map and worker shards are shared
// across registries, and drift retrains that converge on the same (goal,
// mix) are built once and shared (see ScaleStats.SharedRetrains).
//
// The base model must be bound to an environment with the same template
// and VM-type counts as the engine's: streams of every registry place onto
// the same simulated fleet shapes. Call before serving begins.
func (o *OnlineScheduler) AddRegistry(name string, base *Model) (*ModelRegistry, error) {
	if name == "" {
		return nil, errors.New("core: AddRegistry requires a name")
	}
	if base == nil {
		return nil, errors.New("core: AddRegistry requires a base model")
	}
	if len(base.env.Templates) != len(o.env.Templates) || len(base.env.VMTypes) != len(o.env.VMTypes) {
		return nil, fmt.Errorf("core: registry %q: base model has %d templates x %d VM types, engine has %d x %d",
			name, len(base.env.Templates), len(base.env.VMTypes), len(o.env.Templates), len(o.env.VMTypes))
	}
	o.regMu.RLock()
	_, exists := o.regs[name]
	o.regMu.RUnlock()
	if exists {
		return nil, fmt.Errorf("core: registry %q already exists", name)
	}
	return o.attachRegistry(name, NewModelRegistry(base)), nil
}

// RegistryNamed returns the named registry, or nil if it does not exist.
func (o *OnlineScheduler) RegistryNamed(name string) *ModelRegistry {
	o.regMu.RLock()
	defer o.regMu.RUnlock()
	return o.regs[name]
}

// Registries returns the number of registries the engine hosts.
func (o *OnlineScheduler) Registries() int {
	o.regMu.RLock()
	defer o.regMu.RUnlock()
	return len(o.regList)
}

// RegistryNames returns the names of every registry the engine hosts,
// sorted. The serving daemon's drain walks this list to checkpoint each
// registry exactly once.
func (o *OnlineScheduler) RegistryNames() []string {
	o.regMu.RLock()
	names := make([]string, 0, len(o.regs))
	for name := range o.regs {
		names = append(names, name)
	}
	o.regMu.RUnlock()
	slices.Sort(names)
	return names
}

// NewOnlineSchedulerFromStore warm-starts a serving engine from a durable
// model store: the newest intact epoch is decoded and serves immediately —
// under its persisted epoch number and arrival mix, with zero training
// searches — exactly as it served before the restart. Attach the store
// back with Registry().CheckpointTo to keep checkpointing new epochs into
// it (the already-present epoch is not re-committed).
func NewOnlineSchedulerFromStore(ms *store.ModelStore, opts OnlineOptions) (*OnlineScheduler, error) {
	e, err := loadLatestEpoch(ms)
	if err != nil {
		return nil, err
	}
	o := NewOnlineScheduler(e.Model, opts)
	o.registry.installEpoch(e)
	return o, nil
}

// Templates returns the number of workload templates the engine's
// environment defines — the valid TemplateID range for arrivals.
func (o *OnlineScheduler) Templates() int { return len(o.env.Templates) }

// Registry returns the engine's default model lifecycle subsystem: the
// current serving epoch, hot-swap entry points, and retrain statistics.
// Named registries added with AddRegistry are reached via RegistryNamed.
func (o *OnlineScheduler) Registry() *ModelRegistry { return o.registry }

// ActiveStreams returns the number of streams currently open (acquired and
// neither finished nor cancelled).
func (o *OnlineScheduler) ActiveStreams() int64 { return o.active.Load() }

// CacheStats reports the shared ω-map's build counter: how many derived
// (shifted or augmented) models the engine actually trained, across all
// streams, registries, and epochs — aggregated over every cache stripe.
// Compare against the per-stream Adaptations and Retrainings counters to
// see cross-tenant deduplication at work.
func (o *OnlineScheduler) CacheStats() (builds int64) { return o.cache.builds.Load() }

// ScaleStats snapshots the engine's scale-out counters: sharding layout,
// live migrations, ω-map size and builds, and cross-registry retrain
// sharing.
type ScaleStats struct {
	// Shards is the engine's shard count; ActiveShards how many the
	// current placement ring spreads tenants over (Rebalance shrinks or
	// re-grows it).
	Shards, ActiveShards int
	// Migrations counts tenant streams handed between shards by a live
	// rebalance, each without dropping or doubling an arrival.
	Migrations int64
	// Registries is the number of model registries the engine hosts.
	Registries int
	// SharedRetrains counts drift retrains satisfied by another
	// registry's identical (goal, config, mix) build instead of a
	// duplicate training search.
	SharedRetrains int64
	// CacheBuilds and CacheEntries describe the striped ω-map: real
	// derived-model builds ever, and entries currently cached.
	CacheBuilds  int64
	CacheEntries int
	// DegradedArrivals, DegradedPlacements, and ShedArrivals aggregate
	// the failure-path counters across every stream the engine served.
	DegradedArrivals, DegradedPlacements, ShedArrivals int64
	// DeadlineMisses aggregates arrival events whose per-event deadline
	// expired during model acquisition (served degraded, not aborted).
	DeadlineMisses int64
	// TotalRetrainMS sums successful drift-retrain wall times across every
	// registry; LastRetrainMS is the slowest registry's most recent one.
	TotalRetrainMS, LastRetrainMS int64
	// WarmSamples/ColdSamples and RetrainCacheHits/Misses aggregate the
	// warm-retrain reuse counters (see RegistryStats) across every
	// registry.
	WarmSamples, ColdSamples             int64
	RetrainCacheHits, RetrainCacheMisses int64
	// Robustness aggregates every registry's retry-discipline counters;
	// its Breaker field reports the most degraded breaker position.
	Robustness RobustnessStats
}

// ScaleStats returns a consistent-enough snapshot for monitoring and tests.
func (o *OnlineScheduler) ScaleStats() ScaleStats {
	s := ScaleStats{
		Shards:         len(o.shards),
		Migrations:     o.migrations.Load(),
		Registries:     o.Registries(),
		SharedRetrains: o.share.shared.Load(),
		CacheBuilds:    o.cache.builds.Load(),
		CacheEntries:   o.cache.size(),
	}
	if r := o.ring.Load(); r != nil {
		s.ActiveShards = r.active
	}
	s.DegradedArrivals = o.degradedArrivals.Load()
	s.DegradedPlacements = o.degradedPlacements.Load()
	s.ShedArrivals = o.shedArrivals.Load()
	s.DeadlineMisses = o.deadlineMisses.Load()
	o.regMu.RLock()
	for _, r := range o.regList {
		rs := r.Stats()
		s.TotalRetrainMS += rs.TotalRetrainMS
		if rs.LastRetrainMS > s.LastRetrainMS {
			s.LastRetrainMS = rs.LastRetrainMS
		}
		s.WarmSamples += rs.WarmSamples
		s.ColdSamples += rs.ColdSamples
		s.RetrainCacheHits += rs.RetrainCacheHits
		s.RetrainCacheMisses += rs.RetrainCacheMisses
		s.Robustness.merge(rs.Robustness)
	}
	o.regMu.RUnlock()
	return s
}

// Run schedules the workload's queries at their recorded arrival times and
// simulates execution to completion: a one-tenant RunTenants on the
// default registry. Many Run calls may proceed concurrently; each gets its
// own stream.
func (o *OnlineScheduler) Run(w *workload.Workload) (*OnlineResult, error) {
	res, err := o.RunTenants(context.Background(), []Tenant{{Workload: w}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// NewStream opens an event-driven tenant stream against the engine's
// default registry: the caller submits arrivals as they happen
// (Stream.Submit timestamps each event with the clock) and closes with
// Stream.Finish. Use a SimClock the driver advances for virtual time, or a
// WallClock for live serving — the stream core is identical.
func (o *OnlineScheduler) NewStream(clock Clock) *Stream {
	return o.acquireStreamOn(o.registry, &o.pool, clock)
}

// NewStreamOn is NewStream bound to a named registry (one SLA goal /
// tenant tier): the stream serves from that registry's epochs and reports
// drift to it.
func (o *OnlineScheduler) NewStreamOn(registry string, clock Clock) (*Stream, error) {
	r := o.RegistryNamed(registry)
	if r == nil {
		return nil, fmt.Errorf("core: unknown registry %q", registry)
	}
	return o.acquireStreamOn(r, &o.pool, clock), nil
}

// tagState is the per-query bookkeeping of a stream, indexed by query tag.
// template is −1 for tags the stream has not seen.
type tagState struct {
	arrival  time.Duration
	template int32
}

// Stream is one tenant's arrival stream: per-stream simulator, per-query
// bookkeeping, drift detector, and scratch buffers. Streams of one engine
// share its registries and ω-map but nothing mutable, so they run
// concurrently without locks on the arrival path. Each stream is bound to
// one registry at open time — its SLA goal, serving epochs, and drift
// lifecycle come from that binding.
//
// A Stream is single-owner: one goroutine submits and finishes it (in
// sharded serving, ownership moves linearly between shard workers — never
// two at once). Query tags must be small non-negative integers
// (bookkeeping is indexed by tag); the samplers' dense 0..n−1 tags are
// ideal.
type Stream struct {
	eng   *OnlineScheduler
	reg   *ModelRegistry
	clock Clock
	sim   *cloud.Sim
	res   *OnlineResult
	drift *driftDetector
	tags  []tagState
	last  time.Duration // latest event time; Submit clamps to monotonic
	done  bool
	// driftEpoch is the registry epoch the drift detector last baselined
	// against. Any epoch install — a drift retrain, a manual swap, a
	// warm start from a checkpoint — changes the baseline mix, so the
	// detector's window (full of arrivals judged against the old mix)
	// must be rebaselined before it may trigger again; comparing a stale
	// window against a fresh mix produced spurious immediate retrains.
	driftEpoch uint64
	// degraded marks the stream as serving through the first-fit
	// heuristic fallback; degradedEpoch is the epoch it degraded under.
	// Degraded mode is sticky per epoch: the model path is retried only
	// when a new epoch installs, so a broken epoch cannot re-fail every
	// arrival.
	degraded      bool
	degradedEpoch uint64
	// eventDeadline, when non-zero, bounds the model acquisition of the
	// current arrival event (set per event by SubmitDeadline). It is a
	// budget, not a wall instant: each event gets its own window.
	eventDeadline time.Duration
	// priceMult is the spot price multiplier in effect at the current
	// arrival event (OnlineOptions.Prices.At of the event time; 1 under
	// flat prices). onArrival refreshes it once per event and the batch
	// scheduler's dominated-placement guard prices fees with it.
	priceMult float64

	// seenShifted/seenAug track which derived models this stream has
	// already acquired, making the CacheHits/Adaptations/Retrainings
	// counters stream-local and scheduling-independent.
	seenShifted map[shiftKey]struct{}
	seenAug     map[augModelKey]struct{}

	// Persistent scratch: the arrival loop re-batches, re-schedules, and
	// re-places on every event, and these buffers keep that machinery
	// allocation-free in steady state.
	batch    []int            // revoked + newly arrived tags
	queries  []workload.Query // batch rendered as workload queries
	wl       workload.Workload
	cands    [][]vmCandidate // per VM type, idle-soonest placement candidates
	candNext []int           // per VM type, cursor of the next unused candidate
	sched    *schedule.Schedule
	backing  []schedule.Placed
}

// vmCandidate is an active physical VM considered for an abstract VM slot.
type vmCandidate struct {
	vm   *cloud.SimVM
	free time.Duration
}

// acquireStreamOn draws a reset stream from the given scratch pool
// (engine-wide, or an engine shard's local pool) and binds it to reg for
// its whole life.
func (o *OnlineScheduler) acquireStreamOn(reg *ModelRegistry, pool *sync.Pool, clock Clock) *Stream {
	s, _ := pool.Get().(*Stream)
	if s == nil {
		s = &Stream{
			eng:         o,
			seenShifted: map[shiftKey]struct{}{},
			seenAug:     map[augModelKey]struct{}{},
		}
	}
	s.reg = reg
	s.clock = clock
	s.sim = cloud.NewSim()
	s.sim.SetPrices(o.opts.Prices)
	s.priceMult = 1
	s.res = &OnlineResult{}
	s.tags = s.tags[:0]
	s.last = 0
	s.done = false
	s.degraded = false
	s.degradedEpoch = 0
	s.eventDeadline = 0
	clear(s.seenShifted)
	clear(s.seenAug)
	if o.opts.Drift.enabled() {
		if s.drift == nil {
			s.drift = newDriftDetector(len(o.env.Templates), o.opts.Drift)
		} else {
			s.drift.reset()
		}
		s.driftEpoch = reg.Current().Epoch
	} else {
		s.drift = nil
	}
	o.active.Add(1)
	return s
}

// releaseStream returns a stream's scratch to a pool — the pool of
// whichever shard the stream last ran on, so scratch stays shard-local
// under sharded serving. The stream's result (if finished) stays valid —
// results are never pooled. A stream released before Finish counts as
// cancelled: its simulator, and with it every rented VM, is dropped.
func (o *OnlineScheduler) releaseStream(s *Stream, pool *sync.Pool) {
	if !s.done {
		o.active.Add(-1)
	}
	s.sim = nil
	s.res = nil
	s.clock = nil
	s.reg = nil
	pool.Put(s)
}

// Reserve preallocates the stream's bookkeeping for a run of n queries with
// tags in [0, n): with capacity in place, the steady-state arrival path
// performs zero allocations (pinned by TestOnlineArrivalSteadyStateAllocFree).
func (s *Stream) Reserve(n int) {
	if cap(s.tags) < n {
		tags := make([]tagState, len(s.tags), n)
		copy(tags, s.tags)
		s.tags = tags
	}
	if cap(s.res.PerArrival) < n {
		perArrival := make([]time.Duration, len(s.res.PerArrival), n)
		copy(perArrival, s.res.PerArrival)
		s.res.PerArrival = perArrival
	}
	if cap(s.batch) < n {
		s.batch = make([]int, 0, n)
	}
	if cap(s.queries) < n {
		s.queries = make([]workload.Query, 0, n)
	}
	if cap(s.backing) < n {
		s.backing = make([]schedule.Placed, 0, n)
	}
}

// ensureTag grows the tag table to cover tag, marking new slots unseen.
func (s *Stream) ensureTag(tag int) {
	for len(s.tags) <= tag {
		s.tags = append(s.tags, tagState{template: -1})
	}
}

// InjectFaults arms the stream's simulator with a deterministic fault plan
// (VM failures, stragglers — see cloud.NewFaultPlan). Call before the first
// Submit; fates are drawn per rented VM from the plan's seed, so the same
// arrivals under the same plan replay bit-identically.
func (s *Stream) InjectFaults(p *cloud.FaultPlan) { s.sim.SetFaults(p) }

// Submit delivers one arrival event — every query in arrived is stamped
// with the stream clock's current time and the unstarted backlog is
// re-scheduled (§6.3). ctx bounds any model acquisition the event needs.
// Submit is the clock-agnostic stream core: the workload replay drivers and
// live wall-clock serving both funnel through it.
func (s *Stream) Submit(ctx context.Context, arrived ...workload.Query) error {
	if s.done {
		return errors.New("core: Submit on a finished stream")
	}
	if len(arrived) == 0 {
		return nil
	}
	t := s.clock.Now()
	if t < s.last {
		t = s.last // wall clocks are monotonic; SimClock panics on rewind
	}
	s.last = t
	return s.onArrival(ctx, t, arrived)
}

// SubmitDeadline is Submit with a per-request placement deadline: if
// obtaining a model for this event (a shifted or augmented build) takes
// longer than d, the event is served by the degraded first-fit path
// instead of waiting the build out — the arrival is placed, late
// placement becomes the SLA penalty's problem, and the miss is counted
// (OnlineResult.DeadlineMisses). Requires OnlineOptions.Degrade and a
// viable fallback VM type; without them a missed deadline fails the
// stream exactly like any other model-path error.
//
// The deadline guards only model acquisition — the fresh-batch serving
// path never blocks, so a deadline adds nothing there (and costs
// nothing: the steady-state 0 allocs/arrival invariant holds because no
// context is derived on that path). d <= 0 means no deadline.
func (s *Stream) SubmitDeadline(ctx context.Context, d time.Duration, arrived ...workload.Query) error {
	s.eventDeadline = d
	err := s.Submit(ctx, arrived...)
	s.eventDeadline = 0
	return err
}

// Shed records n arrivals dropped by admission control before
// submission — the serving daemon's token bucket sheds on the socket,
// and the drop lands in the same counters the engine's internal
// MaxBacklog shedding uses (OnlineResult.ShedArrivals, engine-wide
// ScaleStats.ShedArrivals), so overload accounting is one ledger no
// matter which layer shed.
func (s *Stream) Shed(n int) {
	if n <= 0 || s.done {
		return
	}
	s.res.ShedArrivals += n
	s.eng.shedArrivals.Add(int64(n))
}

// Close returns the stream's scratch to the engine's pool. Call after
// Finish (the result stays valid — results are never pooled), or
// without Finish to cancel the stream and drop its simulated VMs. Use
// only for streams opened with NewStream/NewStreamOn; Run and the
// sharded drivers recycle their streams themselves.
func (s *Stream) Close() {
	s.eng.releaseStream(s, &s.eng.pool)
}

// Finish drains the stream's simulation and returns the final result: total
// cost, the goal's penalty over true latencies (completion − arrival), and
// the per-arrival advisor overhead. The stream cannot be used afterwards.
func (s *Stream) Finish() *OnlineResult {
	if s.done {
		return s.res
	}
	s.done = true
	s.eng.active.Add(-1)
	runs := s.sim.Finish()
	perf := make([]sla.QueryPerf, len(runs))
	outcomes := make([]Outcome, len(runs))
	for i, r := range runs {
		arrival := s.tags[r.Tag].arrival
		perf[i] = sla.QueryPerf{TemplateID: r.TemplateID, Latency: r.End - arrival}
		outcomes[i] = Outcome{Tag: r.Tag, TemplateID: r.TemplateID, Arrival: arrival, Start: r.Start, End: r.End}
	}
	res := s.res
	res.Perf = perf
	res.Outcomes = outcomes
	// The penalty is judged by the stream's own registry: each tier's
	// streams are scored against that tier's SLA goal.
	res.Penalty = s.reg.Current().Model.Goal.Penalty(perf)
	res.Cost = s.sim.ProvisioningCost() + res.Penalty
	res.FinalEpoch = s.reg.Current().Epoch
	return res
}

// onArrival handles one arrival event at time t (§6.3): observe the
// arrivals for drift, revoke unstarted queries, form the batch B_i, obtain
// a model for the waited queries, and re-schedule.
//
// Only model acquisition and tree parsing are timed — SchedulingTime and
// PerArrival are the advisor-overhead metric of Fig. 19, and mapping the
// schedule onto simulator VMs (place) stands in for the execution layer the
// paper does not charge to the advisor (§6.3). TestOnlineTimingExcludesPlacement
// pins placement outside the timed window.
func (s *Stream) onArrival(ctx context.Context, t time.Duration, arrived []workload.Query) error {
	k := len(s.eng.env.Templates)
	for _, q := range arrived {
		if q.Tag < 0 {
			return fmt.Errorf("core: online arrival with negative tag %d", q.Tag)
		}
		if q.TemplateID < 0 || q.TemplateID >= k {
			return fmt.Errorf("core: query tag %d references unknown template %d", q.Tag, q.TemplateID)
		}
	}
	// Load the serving epoch once per event: everything this arrival does
	// uses it, so a hot swap landing mid-event cannot split the batch
	// between two models. The spot price multiplier is likewise pinned at
	// the event instant (At is alloc-free; nil prices yield exactly 1).
	epoch := s.reg.Current()
	s.priceMult = s.eng.opts.Prices.At(t)
	if s.drift != nil {
		for _, q := range arrived {
			// Rebaseline on any epoch install, not just this stream's own
			// retrain-triggered swaps: a warm-started or cross-tenant
			// epoch changes the baseline mix, and judging the detector's
			// stale window against it would re-trigger drift immediately
			// (pinned by TestDriftRebaselinesOnAnyEpochInstall).
			if epoch.Epoch != s.driftEpoch {
				s.drift.reset()
				s.driftEpoch = epoch.Epoch
			}
			if emd, drifted := s.drift.observe(q.TemplateID, epoch.Mix); drifted {
				swapped, err := s.triggerDrift(ctx, emd)
				if err != nil {
					return err
				}
				// Every trigger attempt rebaselines the window — started,
				// suppressed, busy, or failed. A failed retrain that left
				// the window hot would re-fire on the very next arrival,
				// forever (the retrigger storm); cold-starting the window
				// makes the re-trigger cadence the detector's fill time,
				// on top of which the registry's backoff/breaker gate sits.
				s.drift.reset()
				if swapped {
					epoch = s.reg.Current()
				}
				s.driftEpoch = epoch.Epoch
			}
		}
	}
	for _, q := range arrived {
		s.ensureTag(q.Tag)
		s.tags[q.Tag] = tagState{arrival: t, template: int32(q.TemplateID)}
	}
	s.batch = s.batch[:0]
	for _, vm := range s.sim.VMs() {
		// A VM whose injected failure instant has passed surrenders its
		// killed in-flight run and unstarted queue for re-admission
		// (exactly once — CollectFailed is a no-op afterwards), then the
		// usual revocation sweep reclaims unstarted work from the living.
		n := len(s.batch)
		s.batch = vm.CollectFailed(t, s.batch)
		s.res.FaultReadmissions += len(s.batch) - n
		s.batch = vm.RevokeUnstartedInto(t, s.batch)
	}
	for _, q := range arrived {
		s.batch = append(s.batch, q.Tag)
	}
	// Admission control: while degraded, a batch beyond MaxBacklog sheds
	// its newest arrivals. Only queries arriving at this event are
	// sheddable — work admitted earlier (re-admitted or revoked) completes
	// exactly once, never silently vanishes mid-stream.
	if s.degraded && s.eng.opts.MaxBacklog > 0 {
		if over := len(s.batch) - s.eng.opts.MaxBacklog; over > 0 {
			if over > len(arrived) {
				over = len(arrived)
			}
			s.batch = s.batch[:len(s.batch)-over]
			s.res.ShedArrivals += over
			s.eng.shedArrivals.Add(int64(over))
		}
	}
	slices.Sort(s.batch)

	begin := time.Now()
	sched, err := s.scheduleEvent(ctx, epoch, t)
	elapsed := time.Since(begin)
	if err != nil {
		return err
	}
	s.res.SchedulingTime += elapsed
	s.res.PerArrival = append(s.res.PerArrival, elapsed)
	return s.place(t, sched)
}

// scheduleEvent obtains a schedule for the current batch: the model path
// when healthy, the first-fit heuristic fallback when degraded. A stream in
// degraded mode stays on the heuristic until a new epoch installs; a model
// path that errors under OnlineOptions.Degrade enters degraded mode instead
// of failing the stream (context cancellation still aborts — a cancelled
// stream must stop, not limp).
func (s *Stream) scheduleEvent(ctx context.Context, epoch *ModelEpoch, t time.Duration) (*schedule.Schedule, error) {
	if s.degraded {
		if epoch.Epoch == s.degradedEpoch {
			s.noteDegraded()
			return s.scheduleDegraded(epoch)
		}
		s.degraded = false // new epoch: give the model path another chance
	}
	sched, err := s.scheduleBatch(ctx, epoch, t, s.batch)
	if err == nil {
		return sched, nil
	}
	// The stream's own context going dead is the caller's stop signal:
	// abort, never limp. A context error with the stream context still
	// live is a per-event deadline (SubmitDeadline) expiring inside model
	// acquisition — an overload condition, handled exactly like any other
	// model-path failure: degrade if allowed.
	if !s.eng.opts.Degrade || s.eng.fallbackType < 0 || ctx.Err() != nil {
		return nil, err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.res.DeadlineMisses++
		s.eng.deadlineMisses.Add(1)
	}
	s.degraded, s.degradedEpoch = true, epoch.Epoch
	s.noteDegraded()
	return s.scheduleDegraded(epoch)
}

// noteDegraded records one arrival event served by the degraded path.
func (s *Stream) noteDegraded() {
	s.res.DegradedArrivals++
	s.eng.degradedArrivals.Add(1)
}

// scheduleDegraded schedules the batch with the first-fit heuristic on the
// engine's fallback VM type — no model, no training search, just the §4
// greedy baseline. Its placements are approximate but always servable, and
// the goal's penalty still judges the true latencies at Finish.
func (s *Stream) scheduleDegraded(epoch *ModelEpoch) (*schedule.Schedule, error) {
	ft := s.eng.fallbackType
	s.queries = s.queries[:0]
	for _, tag := range s.batch {
		s.queries = append(s.queries, workload.Query{TemplateID: int(s.tags[tag].template), Tag: tag})
	}
	s.wl = workload.Workload{Templates: s.eng.env.Templates, Queries: s.queries}
	goal := epoch.Model.Goal
	return heuristics.FirstFit(&s.wl, s.eng.env, goal, ft, heuristics.OrderFor(goal)), nil
}

// triggerDrift asks the registry to retrain toward the stream's observed
// mix; emd (the distance that crossed the threshold) rides into the new
// epoch's checkpoint lineage. In synchronous mode the swap has landed when
// it returns true; in background mode it returns false and the swap
// arrives at a later event.
func (s *Stream) triggerDrift(ctx context.Context, emd float64) (swapped bool, err error) {
	r := s.reg
	if s.eng.opts.Drift.Synchronous {
		err := r.retrainNow(ctx, s.drift.mix(), emd)
		switch {
		case err == nil:
			s.res.DriftTriggers++
			s.res.DriftTriggerArrivals = append(s.res.DriftTriggerArrivals, len(s.res.PerArrival))
			return true, nil
		case errors.Is(err, errRetrainInFlight):
			// Another stream's synchronous retrain is running; its swap
			// will serve us too.
			return false, nil
		case errors.Is(err, errRetrainSuppressed):
			// The registry's backoff window or breaker swallowed the
			// trigger; keep serving the current epoch.
			s.res.DriftSuppressed++
			return false, nil
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Cancellation is the caller's stop signal, not a model
			// failure: abort the stream.
			return false, err
		default:
			// The retrain failed. The current epoch keeps serving — a
			// broken retrain path must never take arrivals down with it.
			// The registry recorded the failure (Stats, backoff, breaker)
			// and this stream's window rebaselines on return.
			s.res.DriftFailures++
			return false, nil
		}
	}
	started, suppressed := r.triggerRetrain(s.eng.retrainCtx, s.drift.mix(), emd)
	switch {
	case started:
		s.res.DriftTriggers++
		s.res.DriftTriggerArrivals = append(s.res.DriftTriggerArrivals, len(s.res.PerArrival))
	case suppressed:
		s.res.DriftSuppressed++
	}
	return false, nil
}

// waitBucket floors a wait to the configured resolution.
func (s *Stream) waitBucket(w time.Duration) time.Duration {
	return w - w%s.eng.opts.WaitResolution
}

// scheduleBatch obtains a model appropriate for the batch's wait pattern
// and produces an abstract schedule whose Placed tags are real query tags.
func (s *Stream) scheduleBatch(ctx context.Context, epoch *ModelEpoch, t time.Duration, batch []int) (*schedule.Schedule, error) {
	maxWait := time.Duration(0)
	allFresh := true
	for _, tag := range batch {
		w := s.waitBucket(t - s.tags[tag].arrival)
		if w > 0 {
			allFresh = false
		}
		if w > maxWait {
			maxWait = w
		}
	}
	if !allFresh && s.eventDeadline > 0 {
		// The per-event deadline bounds only the slow path — model
		// acquisition for waited batches. The fresh path below never
		// derives a context, keeping it allocation-free.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.eventDeadline)
		defer cancel()
	}
	switch {
	case allFresh:
		return s.scheduleWith(epoch.Model, batch)
	case s.eng.opts.Shift && epoch.Model.Goal.Shiftable():
		m, err := s.shiftedModel(ctx, epoch, maxWait)
		if err != nil {
			return nil, err
		}
		return s.scheduleWith(m, batch)
	default:
		return s.scheduleAugmented(ctx, epoch, t, batch)
	}
}

// shiftedModel returns a model for the goal shifted by w, adapting the
// epoch's model (§5). With Reuse on, the engine-wide ω-map dedups builds
// across streams (exactly one stream adapts; the rest wait for the entry),
// while the stream-local counters record whether *this* stream had used the
// model before.
func (s *Stream) shiftedModel(ctx context.Context, epoch *ModelEpoch, w time.Duration) (*Model, error) {
	if !s.eng.opts.Reuse {
		m, err := epoch.Model.ShiftedModelContext(ctx, w)
		if err != nil {
			return nil, err
		}
		s.res.Adaptations++
		return m, nil
	}
	key := shiftKey{reg: s.reg.id, epoch: epoch.Epoch, wait: w}
	m, err := getOrBuild(&s.eng.cache, shiftedMap, key, key.hash(), ctx, func() (*Model, error) {
		return epoch.Model.ShiftedModelContext(ctx, w)
	})
	if err != nil {
		return nil, err
	}
	if _, ok := s.seenShifted[key]; ok {
		s.res.CacheHits++
	} else {
		s.seenShifted[key] = struct{}{}
		s.res.Adaptations++
	}
	return m, nil
}

// scheduleAugmented builds the "new template" specification of §6.3: each
// distinct (template, wait) pair among waited queries becomes an extra
// template whose latency is inflated by the wait, a model is trained for
// the augmented specification (or fetched from the ω-map when Reuse is on),
// and the batch is scheduled against it.
func (s *Stream) scheduleAugmented(ctx context.Context, epoch *ModelEpoch, t time.Duration, batch []int) (*schedule.Schedule, error) {
	base := epoch.Model.env.Templates
	augID := map[augKey]int{}
	templates := append([]workload.Template(nil), base...)
	queryTemplate := make([]int, len(batch)) // batch index -> (augmented) template ID
	var keyParts []string
	for i, tag := range batch {
		orig := int(s.tags[tag].template)
		w := s.waitBucket(t - s.tags[tag].arrival)
		if w == 0 {
			queryTemplate[i] = orig
			continue
		}
		k := augKey{template: orig, wait: w}
		id, ok := augID[k]
		if !ok {
			id = len(templates)
			augID[k] = id
			ot := base[orig]
			templates = append(templates, workload.Template{
				ID:          id,
				Name:        fmt.Sprintf("%s+%s", ot.Name, w),
				BaseLatency: ot.BaseLatency + w,
				HighRAM:     ot.HighRAM,
			})
			keyParts = append(keyParts, fmt.Sprintf("%d@%d", orig, w/s.eng.opts.WaitResolution))
		}
		queryTemplate[i] = id
	}

	sort.Strings(keyParts)
	build := func() (*Model, error) {
		env := &schedule.Env{Templates: templates, VMTypes: epoch.Model.env.VMTypes, Pred: epoch.Model.env.Pred}
		goal, err := augmentGoal(epoch.Model.Goal, base, augID)
		if err != nil {
			return nil, err
		}
		adv, err := NewAdvisor(env, s.eng.opts.Retrain)
		if err != nil {
			return nil, fmt.Errorf("core: online augmented model: %w", err)
		}
		return adv.TrainContext(ctx, goal)
	}
	var m *Model
	var err error
	if s.eng.opts.Reuse {
		key := augModelKey{reg: s.reg.id, epoch: epoch.Epoch, key: strings.Join(keyParts, ",")}
		m, err = getOrBuild(&s.eng.cache, augmentedMap, key, key.hash(), ctx, build)
		if err != nil {
			return nil, err
		}
		if _, ok := s.seenAug[key]; ok {
			s.res.CacheHits++
		} else {
			s.seenAug[key] = struct{}{}
			s.res.Retrainings++
		}
	} else {
		m, err = build()
		if err != nil {
			return nil, err
		}
		s.res.Retrainings++
	}

	s.queries = s.queries[:0]
	for i, tag := range batch {
		s.queries = append(s.queries, workload.Query{TemplateID: queryTemplate[i], Tag: tag})
	}
	s.wl = workload.Workload{Templates: m.env.Templates, Queries: s.queries}
	sched, backing, err := m.scheduleBatchInto(&s.wl, s.sched, s.backing, s.priceMult)
	if err != nil {
		return nil, err
	}
	s.sched, s.backing = sched, backing
	return sched, nil
}

// augmentGoal extends a goal to cover augmented templates. Workload-level
// goals (Max, Average, Percentile) apply unchanged — the inflated latency
// feeds straight into their penalty. PerQuery goals give each augmented
// template the deadline of the template it derives from: a query that has
// waited w and then takes (queue + execution) time q has true latency
// w + q, and comparing the inflated-latency completion to the original
// deadline computes exactly that.
func augmentGoal(g sla.Goal, base []workload.Template, augID map[augKey]int) (sla.Goal, error) {
	pq, ok := g.(sla.PerQuery)
	if !ok {
		return g, nil
	}
	// Order augmented IDs densely after the base templates.
	type entry struct {
		id   int
		orig int
		wait time.Duration
	}
	entries := make([]entry, 0, len(augID))
	for k, id := range augID {
		entries = append(entries, entry{id: id, orig: k.template, wait: k.wait})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	for _, e := range entries {
		if e.id != len(pq.Deadlines) {
			return nil, fmt.Errorf("core: augmented template IDs not dense: got %d, want %d", e.id, len(pq.Deadlines))
		}
		pq = pq.WithExtraTemplate(pq.Deadline(e.orig), base[e.orig].BaseLatency+e.wait)
	}
	return pq, nil
}

// scheduleWith runs the model's batch scheduler over real query tags using
// the original template of each query, reusing the stream's schedule
// skeleton.
func (s *Stream) scheduleWith(m *Model, batch []int) (*schedule.Schedule, error) {
	s.queries = s.queries[:0]
	for _, tag := range batch {
		s.queries = append(s.queries, workload.Query{TemplateID: int(s.tags[tag].template), Tag: tag})
	}
	s.wl = workload.Workload{Templates: m.env.Templates, Queries: s.queries}
	sched, backing, err := m.scheduleBatchInto(&s.wl, s.sched, s.backing, s.priceMult)
	if err != nil {
		return nil, err
	}
	s.sched, s.backing = sched, backing
	return sched, nil
}

// place maps the abstract VMs of a schedule onto physical simulator VMs:
// abstract VM j of type i goes to the free-soonest active physical VM of
// type i with no queued work, renting a new VM otherwise (DESIGN.md §2,
// "online scheduling interpretation"). Queries are enqueued with their true
// execution latency on the physical VM's type.
//
// It returns an error if a query's template cannot run on its assigned VM
// type: the batch scheduler only emits supported placements, so an
// unservable (template, VM type) pair here is a bug upstream — reported
// loudly instead of being absorbed as an absurd simulated latency.
func (s *Stream) place(t time.Duration, sched *schedule.Schedule) error {
	if h := s.eng.placeStarted; h != nil {
		h(s.res)
	}
	numTypes := len(s.eng.env.VMTypes)
	if cap(s.cands) < numTypes {
		s.cands = make([][]vmCandidate, numTypes)
		s.candNext = make([]int, numTypes)
	}
	s.cands = s.cands[:numTypes]
	s.candNext = s.candNext[:numTypes]
	for ti := range s.cands {
		s.cands[ti] = s.cands[ti][:0]
		s.candNext[ti] = 0
	}
	for _, vm := range s.sim.VMs() {
		if vm.Failed() {
			continue // a dead VM takes no new work
		}
		s.cands[vm.Type.ID] = append(s.cands[vm.Type.ID], vmCandidate{vm: vm, free: vm.NextFree(t)})
	}
	for ti := range s.cands {
		slices.SortFunc(s.cands[ti], func(a, b vmCandidate) int {
			return cmp.Compare(a.free, b.free)
		})
	}
	for _, avm := range sched.VMs {
		var target *cloud.SimVM
		// Consume candidates through a cursor, not by reslicing: an
		// advanced slice header would abandon the front of the pooled
		// backing array on every arrival and force periodic regrowth.
		if next := s.candNext[avm.TypeID]; next < len(s.cands[avm.TypeID]) {
			target = s.cands[avm.TypeID][next].vm
			s.candNext[avm.TypeID]++
		} else {
			target = s.sim.Rent(s.eng.env.VMTypes[avm.TypeID], t)
			s.res.VMsRented++
		}
		for _, q := range avm.Queue {
			orig := int(s.tags[q.Tag].template)
			lat, ok := s.eng.env.Latency(orig, target.Type.ID)
			if !ok {
				// Under Degrade, reroute the unservable query to the
				// fallback VM type instead of failing the stream: partial
				// placements of this event have already been enqueued, so
				// absorbing the error here is the only exactly-once option.
				if ft := s.eng.fallbackType; s.eng.opts.Degrade && ft >= 0 {
					if flat, fok := s.eng.env.Latency(orig, ft); fok {
						s.rerouteFallback(ft, t).Enqueue(q.Tag, orig, t, flat)
						s.res.DegradedPlacements++
						s.eng.degradedPlacements.Add(1)
						continue
					}
				}
				return fmt.Errorf("core: online placement: template %d (query tag %d) cannot run on VM type %d", orig, q.Tag, target.Type.ID)
			}
			target.Enqueue(q.Tag, orig, t, lat)
		}
	}
	return nil
}

// rerouteFallback returns an active VM of the fallback type for a rerouted
// query — the free-soonest unconsumed candidate if one exists, a fresh rent
// otherwise. A freshly rented VM joins the candidate list so later reroutes
// (and later abstract VMs of that type) share it instead of renting again.
func (s *Stream) rerouteFallback(ft int, t time.Duration) *cloud.SimVM {
	if next := s.candNext[ft]; next < len(s.cands[ft]) {
		return s.cands[ft][next].vm
	}
	vm := s.sim.Rent(s.eng.env.VMTypes[ft], t)
	s.res.VMsRented++
	s.cands[ft] = append(s.cands[ft], vmCandidate{vm: vm, free: vm.ReadyAt})
	return vm
}

// shiftKey identifies a shifted model in the engine's ω-map: derived models
// are keyed by the registry (reg) and epoch of their base, so models
// adapted from a superseded epoch — or from another registry's identically
// numbered epoch — are never served in the wrong place.
type shiftKey struct {
	reg   uint32
	epoch uint64
	wait  time.Duration
}

// augModelKey identifies an augmented-template model in the ω-map.
type augModelKey struct {
	reg   uint32
	epoch uint64
	key   string // sorted "template@waitBucket" pairs
}

// mix64 is the SplitMix64 finalizer: a cheap, high-quality 64-bit mixer the
// cache uses to spread keys over its stripes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds the key into a stripe selector. Allocation-free — it runs on
// every derived-model lookup.
func (k shiftKey) hash() uint64 {
	return mix64(uint64(k.reg)<<48 ^ k.epoch<<20 ^ uint64(k.wait))
}

// hash folds the augmented key — FNV-1a over the ω-pattern string, mixed
// with the registry and epoch.
func (k augModelKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.key); i++ {
		h ^= uint64(k.key[i])
		h *= prime64
	}
	return mix64(h ^ uint64(k.reg)<<48 ^ k.epoch<<20)
}

// modelEntry is one ω-map slot. The builder closes done when the model (or
// error) is in place; concurrent requesters wait on it — duplicate
// suppression across tenants.
type modelEntry struct {
	done chan struct{}
	m    *Model
	err  error
}

// cacheShard is one mutex stripe of the ω-map: its own lock, its own maps.
// Lookups, inserts, and eviction for a key touch only the key's shard, so
// unrelated derived-model traffic never serializes.
type cacheShard struct {
	mu        sync.Mutex
	shifted   map[shiftKey]*modelEntry
	augmented map[augModelKey]*modelEntry
}

// DefaultCacheShards is the ω-map stripe count of every engine: enough
// stripes that even 10k concurrent streams rarely collide on a lock, at a
// memory cost of a few empty maps.
const DefaultCacheShards = 64

// modelCache is the engine-wide ω-map (§6.3.1) shared by every stream,
// striped over power-of-two cacheShard stripes so derived-model lookups
// from many streams do not serialize on one lock. builds counts real model
// builds across all stripes (CacheStats aggregates nothing else — the
// stripes are an implementation detail of the lock, not of the contents).
type modelCache struct {
	shards []cacheShard
	mask   uint64
	builds atomic.Int64
}

// init sizes the stripe array, rounding shards up to a power of two.
// Engines always pass DefaultCacheShards; shards == 1 degenerates to a
// single-lock ω-map, which the contention benchmark and the determinism
// pins build in-package as a baseline.
func (c *modelCache) init(shards int) {
	n := 1
	for n < shards {
		n <<= 1
	}
	c.shards = make([]cacheShard, n)
	c.mask = uint64(n - 1)
	for i := range c.shards {
		c.shards[i].shifted = map[shiftKey]*modelEntry{}
		c.shards[i].augmented = map[augModelKey]*modelEntry{}
	}
}

// shard returns the stripe owning a key hash.
func (c *modelCache) shard(hash uint64) *cacheShard { return &c.shards[hash&c.mask] }

// size reports the total number of cached derived models across stripes.
func (c *modelCache) size() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.shifted) + len(s.augmented)
		s.mu.Unlock()
	}
	return n
}

// evictBefore drops every entry derived from reg's epochs older than epoch.
// Called on each hot swap: superseded derived models can never be served
// again (cache keys embed registry and epoch), and without eviction a
// long-running engine would pin every old base model — and its retained
// training data — for its whole lifetime. Eviction is per-stripe: each
// stripe is locked, scanned, and released independently, so a hot swap
// never stalls lookups on unrelated stripes (and other registries' entries
// are untouched). Streams still mid-event on the old epoch hold their
// entries directly, so eviction never invalidates an in-flight use.
func (c *modelCache) evictBefore(reg uint32, epoch uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.shifted {
			if k.reg == reg && k.epoch < epoch {
				delete(s.shifted, k)
			}
		}
		for k := range s.augmented {
			if k.reg == reg && k.epoch < epoch {
				delete(s.augmented, k)
			}
		}
		s.mu.Unlock()
	}
}

// shiftedMap and augmentedMap select a stripe's map for the generic
// getOrBuild; declared as named functions so the call sites pass a static
// function value — no closure allocation on the lookup path.
func shiftedMap(s *cacheShard) map[shiftKey]*modelEntry      { return s.shifted }
func augmentedMap(s *cacheShard) map[augModelKey]*modelEntry { return s.augmented }

// getOrBuild returns the cached model for key, building it at most once at
// a time across concurrent requesters. Only the key's stripe is locked —
// and only around the map probe, never across a build — so concurrent
// lookups of unrelated keys proceed in parallel. A failed build (including
// a cancelled one) is evicted, and waiting requesters do not adopt the
// failure — another tenant's cancelled context must not abort a healthy
// stream — they retry, becoming the builder themselves or waiting on a
// newer build. A builder always returns its own outcome, and a requester
// whose own ctx expires returns its ctx error without waiting out a build.
func getOrBuild[K comparable](c *modelCache, pick func(*cacheShard) map[K]*modelEntry, key K, hash uint64, ctx context.Context, build func() (*Model, error)) (*Model, error) {
	s := c.shard(hash)
	m := pick(s)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		e, ok := m[key]
		if !ok {
			e = &modelEntry{done: make(chan struct{})}
			m[key] = e
			s.mu.Unlock()
			c.builds.Add(1)
			e.m, e.err = build()
			if e.err != nil {
				s.mu.Lock()
				// Evict only our own entry: a pruned-and-replaced slot
				// belongs to a newer build.
				if cur, ok := m[key]; ok && cur == e {
					delete(m, key)
				}
				s.mu.Unlock()
			}
			close(e.done)
			return e.m, e.err
		}
		s.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				return e.m, nil
			}
			// The builder failed (perhaps its ctx was cancelled); retry.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
