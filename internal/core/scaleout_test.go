package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisedb/internal/workload"
)

// The placement ring must spread tenants evenly and move only the departed
// shard's tenants on a rebalance: ring(7) is ring(8) minus shard 7's
// vnodes, so any tenant whose owner changed must have been on shard 7.
func TestHashRingPlacement(t *testing.T) {
	const shards, tenants = 8, 4096
	r8 := newHashRing(shards)
	ids := make([]TenantID, tenants)
	counts := make([]int, shards)
	for i := range ids {
		ids[i] = HashTenantID(fmt.Sprintf("tenant-%d", i))
		sh := r8.shardOf(ids[i])
		if sh < 0 || sh >= shards {
			t.Fatalf("tenant %d placed on shard %d of %d", i, sh, shards)
		}
		counts[sh]++
	}
	mean := tenants / shards
	for sh, c := range counts {
		if c < mean/2 || c > 2*mean {
			t.Errorf("shard %d owns %d tenants; want within [%d, %d] of the %d mean (counts %v)",
				sh, c, mean/2, 2*mean, mean, counts)
		}
	}

	r7 := newHashRing(7)
	moved := 0
	for i, id := range ids {
		a, b := r8.shardOf(id), r7.shardOf(id)
		if b >= 7 {
			t.Fatalf("tenant %d placed on drained shard %d", i, b)
		}
		if a != b {
			moved++
			if a != 7 {
				t.Fatalf("tenant %d moved %d -> %d although shard %d survived the rebalance", i, a, b, a)
			}
		}
	}
	if moved == 0 || moved > tenants/4 {
		t.Errorf("rebalance 8 -> 7 moved %d of %d tenants; want roughly 1/8", moved, tenants)
	}

	// Determinism: the ring is a pure function of the shard count.
	again := newHashRing(shards)
	for _, id := range ids {
		if r8.shardOf(id) != again.shardOf(id) {
			t.Fatal("identical ring parameters produced different placements")
		}
	}
}

// asTenants binds workloads to tenants with distinct hashed IDs, so the
// streams spread over the engine's shards.
func asTenants(ws []*workload.Workload) []Tenant {
	tenants := make([]Tenant, len(ws))
	for i, w := range ws {
		tenants[i] = Tenant{ID: HashTenantID(fmt.Sprintf("tenant-%03d", i)), Workload: w}
	}
	return tenants
}

// scaleTenants builds k tenants over fixed-seed workloads, binding every
// other tenant to the named second registry (if any).
func scaleTenants(templates []workload.Template, k, n int, gap time.Duration, seed int64, second string) []Tenant {
	tenants := asTenants(tenantWorkloads(templates, k, n, gap, seed))
	for i := 1; second != "" && i < k; i += 2 {
		tenants[i].Registry = second
	}
	return tenants
}

// Per-tenant results must be bit-identical for every shard count and every
// ω-map stripe count, with streams spread over two registries — the
// serving-side analogue of the training determinism pin. The 10s gaps put
// every stream on the shifted-model path, so the striped cache and the
// registry-scoped keys are both load-bearing here.
func TestRunTenantsDeterministicAcrossShardCounts(t *testing.T) {
	base := onlineBase(t, 5, 2)
	const streams, n = 12, 15
	configs := []struct{ shards, cacheShards int }{
		{1, 1}, // single worker, single-lock ω-map: the old engine
		{4, 4},
		{runtime.GOMAXPROCS(0), 0}, // default stripes
	}
	var fingerprints [][]string
	for _, cfg := range configs {
		opts := DefaultOnlineOptions()
		opts.Shards = cfg.shards
		o := NewOnlineScheduler(base, opts)
		if cfg.cacheShards > 0 {
			o.cache.init(cfg.cacheShards)
		}
		if _, err := o.AddRegistry("premium", base); err != nil {
			t.Fatal(err)
		}
		tenants := scaleTenants(base.Env().Templates, streams, n, 10*time.Second, 77, "premium")
		results, err := o.RunTenants(context.Background(), tenants)
		if err != nil {
			t.Fatalf("shards=%d cacheShards=%d: %v", cfg.shards, cfg.cacheShards, err)
		}
		if got := o.ActiveStreams(); got != 0 {
			t.Fatalf("shards=%d: %d streams still active after RunTenants", cfg.shards, got)
		}
		fps := make([]string, len(results))
		for i, res := range results {
			if res.Adaptations == 0 {
				t.Fatalf("shards=%d tenant %d: 10s gaps must put arrivals on the shifted-model path", cfg.shards, i)
			}
			fps[i] = onlineResultFingerprint(res)
		}
		fingerprints = append(fingerprints, fps)
	}
	for level := 1; level < len(fingerprints); level++ {
		for i := range fingerprints[0] {
			if fingerprints[level][i] != fingerprints[0][i] {
				t.Errorf("tenant %d differs between shard configs:\nbaseline: %s\nsharded:  %s",
					i, fingerprints[0][i], fingerprints[level][i])
			}
		}
	}
}

// A live rebalance mid-run must migrate tenants between shards without
// dropping or doubling an arrival — and without changing any tenant's
// result: migration hands the stream linearly between workers at an event
// boundary, so the outcome is bit-identical to an undisturbed run.
func TestRunTenantsRebalanceMigratesExactlyOnce(t *testing.T) {
	base := onlineBase(t, 5, 2)
	const streams, n = 48, 30
	opts := DefaultOnlineOptions()
	opts.Shards = 4

	// Reference run, no rebalance.
	ref := NewOnlineScheduler(base, opts)
	tenants := scaleTenants(base.Env().Templates, streams, n, 10*time.Second, 55, "")
	want, err := ref.RunTenants(context.Background(), tenants)
	if err != nil {
		t.Fatal(err)
	}

	o := NewOnlineScheduler(base, opts)
	var places atomic.Int64
	var shrink, regrow sync.Once
	o.placeStarted = func(*OnlineResult) {
		switch c := places.Add(1); {
		case c == 100:
			shrink.Do(func() {
				if err := o.Rebalance(2); err != nil {
					t.Error(err)
				}
			})
		case c == 400:
			regrow.Do(func() {
				if err := o.Rebalance(4); err != nil {
					t.Error(err)
				}
			})
		}
	}
	got, err := o.RunTenants(context.Background(), tenants)
	if err != nil {
		t.Fatal(err)
	}
	o.placeStarted = nil
	for i, res := range got {
		seen := make([]bool, n)
		for _, out := range res.Outcomes {
			if seen[out.Tag] {
				t.Fatalf("tenant %d: query tag %d completed twice across a migration", i, out.Tag)
			}
			seen[out.Tag] = true
		}
		for tag, ok := range seen {
			if !ok {
				t.Fatalf("tenant %d: query tag %d dropped across a migration", i, tag)
			}
		}
		if a, b := onlineResultFingerprint(res), onlineResultFingerprint(want[i]); a != b {
			t.Errorf("tenant %d result changed under rebalance:\nundisturbed: %s\nrebalanced:  %s", i, b, a)
		}
	}
	stats := o.ScaleStats()
	if stats.Migrations == 0 {
		t.Error("shrinking 4 shards to 2 mid-run migrated no tenants")
	}
	if stats.ActiveShards != 4 {
		t.Errorf("final ring spans %d shards, want 4", stats.ActiveShards)
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("%d streams still active after a rebalanced run", got)
	}
	t.Logf("%d migrations across shrink+regrow, results bit-identical", stats.Migrations)
}

// Many concurrent streams hammering the same hot ω-map keys across repeated
// hot swaps: per-stripe singleflight must dedup builds, eviction must not
// disturb in-flight acquisitions, and every stream must complete every
// arrival exactly once. Run under -race this is the striped-cache
// correctness hammer.
func TestShardedCacheHotKeyHammerAcrossSwap(t *testing.T) {
	base := onlineBase(t, 3, 1)
	const streams, n = 16, 40
	opts := DefaultOnlineOptions()
	opts.Shards = streams
	o := NewOnlineScheduler(base, opts)
	// One seed: every stream replays the identical arrival pattern, so all
	// of them want the same shifted-model keys at the same time. Tenant i
	// gets an ID the ring places on shard i, so all 16 run at once.
	ring := o.ring.Load()
	tenants := make([]Tenant, 0, streams)
	for id := TenantID(0); len(tenants) < streams; id++ {
		if ring.shardOf(id) == len(tenants) {
			w := workload.NewSampler(base.Env().Templates, 99).Uniform(n)
			w = w.WithArrivals(workload.FixedDelayArrivals(n, 10*time.Second))
			tenants = append(tenants, Tenant{ID: id, Workload: w})
		}
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				o.Registry().Swap(base, nil)
			}
		}
	}()
	results, err := o.RunTenants(context.Background(), tenants)
	close(stop)
	swapper.Wait()
	if err != nil {
		t.Fatal(err)
	}

	acquisitions := 0
	for i, res := range results {
		seen := make([]bool, n)
		for _, out := range res.Outcomes {
			if seen[out.Tag] {
				t.Fatalf("stream %d: tag %d completed twice across a swap", i, out.Tag)
			}
			seen[out.Tag] = true
		}
		if len(res.Outcomes) != n {
			t.Fatalf("stream %d completed %d of %d arrivals", i, len(res.Outcomes), n)
		}
		acquisitions += res.Adaptations + res.CacheHits
	}
	builds := o.CacheStats()
	if builds == 0 {
		t.Fatal("no derived models were built")
	}
	if int(builds) > acquisitions {
		t.Errorf("%d builds exceed %d acquisitions: singleflight dedup broken", builds, acquisitions)
	}
	t.Logf("%d streams, %d acquisitions, %d deduped builds across 5 hot swaps", streams, acquisitions, builds)
}

// Two registries converging on the same (goal, config, mix) must share one
// retrain: the second registry's drift trigger reuses the first's model
// instead of duplicating the training search.
func TestSharedRetrainAcrossRegistries(t *testing.T) {
	base := onlineBase(t, 5, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 20, Threshold: 1.2, Synchronous: true}
	o := NewOnlineScheduler(base, opts)
	premium, err := o.AddRegistry("premium", base)
	if err != nil {
		t.Fatal(err)
	}
	w := shiftedStream(base.Env().Templates, 40, 60, 7*time.Minute)
	if _, err := o.Run(w); err != nil {
		t.Fatal(err)
	}
	if _, err := o.RunTenants(context.Background(), []Tenant{{Registry: "premium", Workload: w}}); err != nil {
		t.Fatal(err)
	}
	defStats, preStats := o.Registry().Stats(), premium.Stats()
	if defStats.Swaps != 1 || preStats.Swaps != 1 {
		t.Fatalf("want one swap per registry, got default=%d premium=%d", defStats.Swaps, preStats.Swaps)
	}
	stats := o.ScaleStats()
	if stats.SharedRetrains != 1 {
		t.Fatalf("want 1 shared retrain, got %d", stats.SharedRetrains)
	}
	if stats.Registries != 2 {
		t.Fatalf("want 2 registries, got %d", stats.Registries)
	}
	if o.Registry().Current().Model != premium.Current().Model {
		t.Error("identical (goal, config, mix) retrains produced distinct models")
	}
	if o.Registry().Current() == premium.Current() {
		t.Error("registries must own their epochs even when sharing a model")
	}
}

// Registry and tenant validation must fail loudly, before any stream runs.
func TestRunTenantsValidation(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	w := tenantWorkloads(base.Env().Templates, 1, 4, time.Minute, 3)[0]

	if _, err := o.RunTenants(context.Background(), []Tenant{{ID: 1, Registry: "nope", Workload: w}}); err == nil {
		t.Error("unknown registry must fail")
	}
	if _, err := o.RunTenants(context.Background(), []Tenant{{ID: 1}}); err == nil {
		t.Error("nil workload must fail")
	}
	bad := &workload.Workload{Templates: w.Templates[:2], Queries: w.Queries}
	if _, err := o.RunTenants(context.Background(), []Tenant{{ID: 1, Workload: bad}}); err == nil {
		t.Error("template-count mismatch must fail")
	}
	if res, err := o.RunTenants(context.Background(), nil); err != nil || res != nil {
		t.Errorf("empty tenant set: want (nil, nil), got (%v, %v)", res, err)
	}
	if _, err := o.Run(nil); err == nil {
		t.Error("Run(nil) must fail")
	}

	if _, err := o.AddRegistry("", base); err == nil {
		t.Error("empty registry name must fail")
	}
	if _, err := o.AddRegistry("tier", nil); err == nil {
		t.Error("nil base model must fail")
	}
	if _, err := o.AddRegistry(DefaultRegistry, base); err == nil {
		t.Error("duplicate registry name must fail")
	}
	other := onlineBase(t, 4, 1)
	if _, err := o.AddRegistry("tier", other); err == nil {
		t.Error("template-count mismatch against the engine env must fail")
	}
	if o.RegistryNamed("never") != nil {
		t.Error("unknown registry lookup must return nil")
	}
}

// A cancelled context must abort RunTenants, reclaim every in-flight
// stream, and leave the engine serviceable.
func TestRunTenantsContextCancel(t *testing.T) {
	base := onlineBase(t, 3, 1)
	opts := DefaultOnlineOptions()
	opts.Shards = 2
	o := NewOnlineScheduler(base, opts)
	tenants := scaleTenants(base.Env().Templates, 8, 20, time.Minute, 9, "")

	ctx, cancel := context.WithCancel(context.Background())
	var places atomic.Int64
	o.placeStarted = func(*OnlineResult) {
		if places.Add(1) == 10 {
			cancel()
		}
	}
	if _, err := o.RunTenants(ctx, tenants); err == nil {
		t.Fatal("cancelled RunTenants must return an error")
	}
	o.placeStarted = nil
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("cancelled run leaked %d active streams", got)
	}
	if _, err := o.RunTenants(context.Background(), tenants); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	cancel()
}

// 1000 tenants through the sharded engine: a scaled-down smoke of the 10k
// serving mode (cmd/wisedb -streams drives the full size). Every arrival
// completes exactly once and scratch is reclaimed.
func TestRunTenantsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := onlineBase(t, 3, 1)
	const streams, n = 1000, 4
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	tenants := scaleTenants(base.Env().Templates, streams, n, 7*time.Minute, 123, "")
	results, err := o.RunTenants(context.Background(), tenants)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Outcomes) != n {
			t.Fatalf("tenant %d completed %d of %d arrivals", i, len(res.Outcomes), n)
		}
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("%d streams still active", got)
	}
}

// Sharded serving must scale tenant throughput with cores: the same 64
// tenants served by one shard vs. a shard per core. The full ≥8× bar needs
// a many-core runner; below 10 cores it scales down to cores/2, and below
// 4 cores only correctness is checked. The recorded scale-out numbers live
// in EXPERIMENTS.md.
func TestTenantThroughputScalesWithShards(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("%d cores: shard-scaling assertion needs >= 4", procs)
	}
	base := onlineBase(t, 5, 2)
	const streams, n = 64, 60
	tenants := scaleTenants(base.Env().Templates, streams, n, 7*time.Minute, 321, "")

	run := func(shards int) time.Duration {
		opts := DefaultOnlineOptions()
		opts.Shards = shards
		o := NewOnlineScheduler(base, opts)
		if _, err := o.RunTenants(context.Background(), tenants); err != nil {
			t.Fatal(err) // warm pools before measuring
		}
		start := time.Now()
		results, err := o.RunTenants(context.Background(), tenants)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if len(res.Perf) != n {
				t.Fatalf("tenant %d completed %d of %d queries", i, len(res.Perf), n)
			}
		}
		return elapsed
	}
	single := run(1)
	sharded := run(0) // one shard per core
	speedup := single.Seconds() / sharded.Seconds()
	t.Logf("%d tenants: 1 shard %s, %d shards %s, speedup %.1fx", streams, single, procs, sharded, speedup)

	var want float64
	if procs >= 10 {
		want = 8
	} else {
		want = float64(procs) / 2
	}
	if speedup < want {
		t.Errorf("%d-shard speedup %.2fx below %.1fx on %d cores", procs, speedup, want, procs)
	}
}
