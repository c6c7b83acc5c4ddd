package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// onlineBase trains a small shiftable-goal base model for the serving-engine
// tests.
func onlineBase(t testing.TB, numTemplates, numTypes int) *Model {
	t.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(numTemplates), cloud.DefaultVMTypes(numTypes))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 100
	cfg.SampleSize = 7
	cfg.Seed = 9
	m, err := MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tenantWorkloads builds k fixed-seed arrival streams of n queries each,
// with the given inter-arrival gap. Stream i is seeded by (seed, i), so the
// set is reproducible but the tenants differ.
func tenantWorkloads(templates []workload.Template, k, n int, gap time.Duration, seed int64) []*workload.Workload {
	ws := make([]*workload.Workload, k)
	for i := range ws {
		w := workload.NewSampler(templates, seed+int64(i)*101).Uniform(n)
		ws[i] = w.WithArrivals(workload.FixedDelayArrivals(n, gap))
	}
	return ws
}

// A cancelled context must abort an online run with ctx.Err() and release
// the stream — and with it every simulated VM the stream had rented
// (RunTenants parity with TrainContext/AdaptContext/RecommendContext).
func TestOnlineRunContextCancel(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	w := tenantWorkloads(base.Env().Templates, 1, 12, 20*time.Second, 5)[0]
	one := []Tenant{{Workload: w}}

	// Pre-cancelled: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.RunTenants(ctx, one); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: want context.Canceled, got %v", err)
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("cancelled stream not released: %d active", got)
	}

	// Cancelled mid-stream, from inside the third arrival's placement.
	ctx2, cancel2 := context.WithCancel(context.Background())
	calls := 0
	o.placeStarted = func(*OnlineResult) {
		calls++
		if calls == 3 {
			cancel2()
		}
	}
	res, err := o.RunTenants(ctx2, one)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("mid-stream cancel: want (nil, context.Canceled), got (%v, %v)", res, err)
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("mid-stream cancelled stream not released: %d active", got)
	}
	o.placeStarted = nil

	// The engine stays serviceable after a cancellation.
	if _, err := o.Run(w); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("finished stream still counted active: %d", got)
	}
	cancel2()
}

// onlineResultFingerprint renders the deterministic fields of a result —
// everything except wall-clock timings.
func onlineResultFingerprint(res *OnlineResult) string {
	return fmt.Sprintf("cost=%.9f penalty=%.9f vms=%d arrivals=%d retrain=%d adapt=%d hits=%d drift=%d epoch=%d perf=%v",
		res.Cost, res.Penalty, res.VMsRented, len(res.PerArrival),
		res.Retrainings, res.Adaptations, res.CacheHits, res.DriftTriggers, res.FinalEpoch, res.Perf)
}

// shiftedStream builds a stream whose template mix flips mid-run: rounds of
// round-robin over all templates (exactly the uniform mix), then a pure run
// of the last template. Deterministic — no sampler noise around the
// detector's trigger point.
func shiftedStream(templates []workload.Template, uniform, skewed int, gap time.Duration) *workload.Workload {
	k := len(templates)
	queries := make([]workload.Query, 0, uniform+skewed)
	for i := 0; i < uniform; i++ {
		queries = append(queries, workload.Query{TemplateID: i % k, Tag: i})
	}
	for i := 0; i < skewed; i++ {
		queries = append(queries, workload.Query{TemplateID: k - 1, Tag: uniform + i})
	}
	w := &workload.Workload{Templates: templates, Queries: queries}
	return w.WithArrivals(workload.FixedDelayArrivals(uniform+skewed, gap))
}

// An injected template-mix shift must cross the EMD threshold and trigger
// exactly one adaptation (threshold 1.2 leaves the post-swap residue EMD —
// the window still holds pre-shift arrivals when the trigger fires — under
// the trigger level, so the detector goes quiet after the swap), and the
// swapped model must target the observed mix.
func TestDriftDetectorTriggersExactlyOnce(t *testing.T) {
	base := onlineBase(t, 5, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 20, Threshold: 1.2, Synchronous: true}
	o := NewOnlineScheduler(base, opts)
	// 7m gaps keep each batch fresh: drift handling is isolated from the
	// wait-model machinery.
	w := shiftedStream(base.Env().Templates, 40, 60, 7*time.Minute)
	res, err := o.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftTriggers != 1 {
		t.Fatalf("want exactly 1 drift trigger, got %d", res.DriftTriggers)
	}
	stats := o.Registry().Stats()
	if stats.Triggers != 1 || stats.Swaps != 1 || stats.Epoch != 1 || stats.Failures != 0 {
		t.Fatalf("registry: want 1 trigger/1 swap/epoch 1, got %+v", stats)
	}
	if res.FinalEpoch != 1 {
		t.Fatalf("stream finished on epoch %d, want 1", res.FinalEpoch)
	}
	if len(res.Perf) != 100 {
		t.Fatalf("dropped arrivals across the hot swap: %d of 100 completed", len(res.Perf))
	}
	// The adapted model targets the observed mix: mass concentrated on the
	// shifted-to template.
	mix := o.Registry().Current().Mix
	if last := mix[len(mix)-1]; last < 0.5 {
		t.Fatalf("swapped model's mix puts %.2f on the shifted-to template; want the majority", last)
	}
	// The swapped model retains training data, so the Shift optimization
	// keeps working against the new base.
	w2 := tenantWorkloads(base.Env().Templates, 1, 8, 10*time.Second, 3)[0]
	res2, err := o.Run(w2)
	if err != nil {
		t.Fatalf("shifted scheduling against the swapped base: %v", err)
	}
	if res2.Adaptations == 0 {
		t.Fatal("post-swap stream never adapted; Shift broke across the hot swap")
	}
}

// A synchronous drift retrain failure must never take the stream down: the
// old epoch keeps serving, every arrival completes, and the failure is
// recorded in both the stream's and the registry's counters.
func TestDriftRetrainFailureKeepsServing(t *testing.T) {
	base := onlineBase(t, 4, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 16, Threshold: 0.8, Synchronous: true}
	o := NewOnlineScheduler(base, opts)
	boom := errors.New("retrain exploded")
	o.Registry().SetRetrain(func(context.Context, *ModelEpoch, []float64) (*Model, error) {
		return nil, boom
	})
	w := shiftedStream(base.Env().Templates, 32, 40, 7*time.Minute)
	res, err := o.Run(w)
	if err != nil {
		t.Fatalf("a failed retrain must not fail the stream, got %v", err)
	}
	if len(res.Perf) != 72 {
		t.Fatalf("%d of 72 arrivals completed across the failed retrain", len(res.Perf))
	}
	if res.DriftFailures == 0 {
		t.Fatal("the stream never recorded the retrain failure")
	}
	if res.FinalEpoch != 0 {
		t.Fatalf("stream finished on epoch %d; a failed retrain must keep epoch 0", res.FinalEpoch)
	}
	stats := o.Registry().Stats()
	if stats.Epoch != 0 || stats.Failures == 0 || !errors.Is(stats.LastErr, boom) {
		t.Fatalf("failed retrain must keep epoch 0 and record the failure, got %+v", stats)
	}
}

// A cancelled context during a synchronous drift retrain must still abort
// the stream — degradation absorbs model failures, never stop signals.
func TestDriftRetrainCancellationAbortsStream(t *testing.T) {
	base := onlineBase(t, 4, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 16, Threshold: 0.8, Synchronous: true}
	opts.Degrade = true // even with degradation on
	o := NewOnlineScheduler(base, opts)
	ctx, cancel := context.WithCancel(context.Background())
	o.Registry().SetRetrain(func(ctx context.Context, _ *ModelEpoch, _ []float64) (*Model, error) {
		cancel()
		return nil, ctx.Err()
	})
	w := shiftedStream(base.Env().Templates, 32, 40, 7*time.Minute)
	if _, err := o.RunTenants(ctx, []Tenant{{Workload: w}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled to abort the stream, got %v", err)
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("cancelled stream not released: %d active", got)
	}
}

// Background hot-swapping under concurrent multi-stream load must never
// drop or double-schedule an in-flight arrival: every stream completes
// exactly its own queries, with exactly its own template counts. Run under
// -race in CI, this also pins the epoch/atomic.Pointer protocol.
func TestHotSwapNoDroppedArrivals(t *testing.T) {
	base := onlineBase(t, 5, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 16, Threshold: 0.8} // background retrains
	o := NewOnlineScheduler(base, opts)
	const streams, uniform, skewed = 6, 24, 40
	ws := make([]*workload.Workload, streams)
	for i := range ws {
		ws[i] = shiftedStream(base.Env().Templates, uniform, skewed, 7*time.Minute)
	}
	results, err := o.RunTenants(context.Background(), asTenants(ws))
	if err != nil {
		t.Fatal(err)
	}
	o.Registry().Wait() // drain any in-flight background retrain
	for i, res := range results {
		if got, want := len(res.Perf), uniform+skewed; got != want {
			t.Fatalf("stream %d: %d of %d queries completed across hot swaps", i, got, want)
		}
		seen := make([]bool, uniform+skewed)
		for _, out := range res.Outcomes {
			if seen[out.Tag] {
				t.Fatalf("stream %d: query tag %d completed twice (double-scheduled across a hot swap)", i, out.Tag)
			}
			seen[out.Tag] = true
		}
		for tag, ok := range seen {
			if !ok {
				t.Fatalf("stream %d: query tag %d never completed (dropped across a hot swap)", i, tag)
			}
		}
	}
	stats := o.Registry().Stats()
	if stats.Failures > 0 {
		t.Fatalf("background retrain failed: %v", stats.LastErr)
	}
	if stats.Swaps == 0 {
		t.Error("mix shift across 6 streams never produced a hot swap")
	}
	t.Logf("registry: %d triggers, %d swaps, final epoch %d", stats.Triggers, stats.Swaps, stats.Epoch)
}

// A hot swap must evict derived models of superseded epochs from the
// shared ω-map: their keys can never be requested again, and keeping them
// would pin every old base model for the engine's lifetime.
func TestHotSwapEvictsSupersededDerivedModels(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	s := o.NewStream(&SimClock{})
	epoch := o.Registry().Current()
	if _, err := s.shiftedModel(context.Background(), epoch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if cached := o.cache.size(); cached != 1 {
		t.Fatalf("want 1 cached shifted model before the swap, got %d", cached)
	}
	o.Registry().Swap(base, nil)
	if cached := o.cache.size(); cached != 0 {
		t.Fatalf("superseded derived models survived the hot swap: %d entries", cached)
	}
}

// The registry must run at most one retrain at a time and swap epochs
// atomically.
func TestRegistrySingleFlight(t *testing.T) {
	base := onlineBase(t, 3, 1)
	r := NewModelRegistry(base)
	release := make(chan struct{})
	r.SetRetrain(func(context.Context, *ModelEpoch, []float64) (*Model, error) {
		<-release
		return base, nil
	})
	mix := base.TrainingMix()
	if started, _ := r.triggerRetrain(context.Background(), mix, 0); !started {
		t.Fatal("first trigger must start a retrain")
	}
	if started, _ := r.triggerRetrain(context.Background(), mix, 0); started {
		t.Fatal("second trigger must be rejected while one is in flight")
	}
	if err := r.retrainNow(context.Background(), mix, 0); !errors.Is(err, errRetrainInFlight) {
		t.Fatalf("synchronous retrain during an in-flight one: want errRetrainInFlight, got %v", err)
	}
	close(release)
	r.Wait()
	stats := r.Stats()
	if stats.Triggers != 1 || stats.Swaps != 1 || stats.Epoch != 1 {
		t.Fatalf("want 1 trigger/1 swap/epoch 1 after drain, got %+v", stats)
	}
}

// The clock-agnostic stream core must run against wall-clock time: live
// Submit calls timestamp events with real elapsed time and produce a
// complete, costed result.
func TestWallClockStream(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	s := o.NewStream(NewWallClock())
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := s.Submit(ctx, workload.Query{TemplateID: i % 3, Tag: i}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := o.ActiveStreams(); got != 1 {
		t.Fatalf("one open stream, gauge reads %d", got)
	}
	res := s.Finish()
	if len(res.Perf) != 5 || res.Cost <= 0 {
		t.Fatalf("wall-clock stream: %d completions, cost %.2f", len(res.Perf), res.Cost)
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("finished stream still counted: %d", got)
	}
	if err := s.Submit(ctx, workload.Query{TemplateID: 0, Tag: 9}); err == nil {
		t.Fatal("Submit after Finish must error")
	}
}

// The steady-state per-arrival path of the serving engine must be
// allocation-free: with bookkeeping capacity reserved and the base model
// serving (fresh batches), an arrival performs zero heap allocations —
// revocation, drift observation, tree parsing, schedule materialization,
// and placement all run in reused storage. The bound of <1 alloc/arrival
// tolerates a rare sync.Pool refill after a GC; any real per-arrival
// allocation costs ≥1 and fails.
func TestOnlineArrivalSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	base := onlineBase(t, 5, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 32} // drift observe is on the measured path
	o := NewOnlineScheduler(base, opts)
	clk := &SimClock{}
	s := o.NewStream(clk)
	s.Reserve(260)
	ctx := context.Background()
	k := len(base.Env().Templates)
	next := 0
	// 7m gaps: each query finishes before the next arrives, so batches
	// stay size 1 and the VM fleet stops growing — true steady state.
	submit := func() {
		clk.Advance(time.Duration(next) * 7 * time.Minute)
		if err := s.Submit(ctx, workload.Query{TemplateID: next % k, Tag: next}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 130 {
		submit()
	}
	allocs := testing.AllocsPerRun(60, submit)
	t.Logf("%.3f allocs per arrival in steady state", allocs)
	if allocs >= 1 {
		t.Errorf("steady-state arrival allocates (%.2f allocs/arrival); want 0 (stream scratch regression?)", allocs)
	}
	s.Finish()
}
