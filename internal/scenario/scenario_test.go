package scenario

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// tierModels trains the three SLA tiers the scenario suite serves under —
// default (15m), gold (10m, tighter), bronze (25m, looser) — once per test
// binary. Training is deterministic, so every test sees identical trees.
var tierModels = sync.OnceValues(func() (map[string]*core.Model, error) {
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	cfg := core.DefaultTrainConfig()
	cfg.NumSamples = 100
	cfg.SampleSize = 7
	cfg.Seed = 9
	out := map[string]*core.Model{}
	for name, deadline := range map[string]time.Duration{
		"":       15 * time.Minute,
		"gold":   10 * time.Minute,
		"bronze": 25 * time.Minute,
	} {
		m, err := core.MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(deadline, env.Templates, sla.DefaultPenaltyRate))
		if err != nil {
			return nil, err
		}
		out[name] = m
	}
	return out, nil
})

func models(t testing.TB) map[string]*core.Model {
	t.Helper()
	m, err := tierModels()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newEngine builds a serving engine for a spec: the default tier as the
// base model, gold/bronze tiers as named registries, and the spec's price
// schedule armed engine-wide.
func newEngine(t testing.TB, spec *Spec, shards int) *core.OnlineScheduler {
	t.Helper()
	ms := models(t)
	opts := core.DefaultOnlineOptions()
	opts.Shards = shards
	opts.Prices = spec.Prices
	o := core.NewOnlineScheduler(ms[""], opts)
	for _, tier := range []string{"gold", "bronze"} {
		if _, err := o.AddRegistry(tier, ms[tier]); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// testCatalog is the catalog at the committed test scale: short traces with
// gaps wide enough that serving stays fast, tight enough that bursts queue.
func testCatalog() []Spec { return Catalog(11, 24, 5*time.Minute) }

// fingerprint renders the deterministic fields of a result — everything
// except wall-clock timings.
func fingerprint(res *core.OnlineResult) string {
	return fmt.Sprintf("cost=%.9f penalty=%.9f vms=%d arrivals=%d retrain=%d adapt=%d hits=%d drift=%d shed=%d degraded=%d epoch=%d perf=%v",
		res.Cost, res.Penalty, res.VMsRented, len(res.PerArrival),
		res.Retrainings, res.Adaptations, res.CacheHits, res.DriftTriggers,
		res.ShedArrivals, res.DegradedArrivals, res.FinalEpoch, res.Perf)
}

// Generated traces are pure functions of the Spec: regenerating yields the
// identical workloads (the committed-trace property CI replays depend on),
// arrivals come out sorted, and burst injection really produces the
// same-instant ties the engine must batch.
func TestCatalogGenerateDeterministic(t *testing.T) {
	templates := workload.DefaultTemplates(5)
	for _, spec := range testCatalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			a := spec.Generate(templates)
			b := spec.Generate(templates)
			if len(a) != len(spec.Tenants) {
				t.Fatalf("generated %d tenants, want %d", len(a), len(spec.Tenants))
			}
			ties := false
			for i := range a {
				if !reflect.DeepEqual(a[i].Workload, b[i].Workload) {
					t.Fatalf("tenant %s: regeneration changed the trace", spec.Tenants[i].Name)
				}
				qs := a[i].Workload.Queries
				if len(qs) != spec.Tenants[i].Queries {
					t.Fatalf("tenant %s: %d queries, want %d", spec.Tenants[i].Name, len(qs), spec.Tenants[i].Queries)
				}
				for j := 1; j < len(qs); j++ {
					if qs[j].Arrival < qs[j-1].Arrival {
						t.Fatalf("tenant %s: arrivals out of order at %d: %s after %s",
							spec.Tenants[i].Name, j, qs[j].Arrival, qs[j-1].Arrival)
					}
					if qs[j].Arrival == qs[j-1].Arrival {
						ties = true
					}
				}
			}
			if spec.Name == "flash-crowd" && !ties {
				t.Fatal("flash-crowd trace carries no same-instant ties; burst injection is broken")
			}
		})
	}
}

// Every catalog scenario must replay bit-identically at any engine
// concurrency: per-tenant results are compared across Shards ∈ {1, 4,
// GOMAXPROCS} — the acceptance pin for the whole harness, and under -race
// a concurrency bug probe per scenario.
func TestCatalogBitDeterminism(t *testing.T) {
	templates := workload.DefaultTemplates(5)
	gomax := runtime.GOMAXPROCS(0)
	for _, spec := range testCatalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tenants := spec.Generate(templates)
			var fingerprints [][]string
			record := func(label string, results []*core.OnlineResult, err error) {
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fps := make([]string, len(results))
				for i, res := range results {
					fps[i] = fingerprint(res)
				}
				fingerprints = append(fingerprints, fps)
			}
			for _, shards := range []int{1, 4, gomax} {
				o := newEngine(t, &spec, shards)
				results, err := o.RunTenants(context.Background(), tenants)
				record(fmt.Sprintf("shards=%d", shards), results, err)
			}
			for level := 1; level < len(fingerprints); level++ {
				for i := range fingerprints[0] {
					if fingerprints[level][i] != fingerprints[0][i] {
						t.Errorf("tenant %d differs between configs:\nbaseline: %s\nconfig %d: %s",
							i, fingerprints[0][i], level, fingerprints[level][i])
					}
				}
			}
		})
	}
}

// Every admitted arrival completes exactly once in every scenario: each
// generated tag appears in exactly one outcome, nothing is shed on the
// healthy path, and the per-tenant completion count equals the trace
// length. Under -race this is the exactly-once probe the ISSUE calls for.
func TestCatalogExactlyOnce(t *testing.T) {
	templates := workload.DefaultTemplates(5)
	for _, spec := range testCatalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tenants := spec.Generate(templates)
			o := newEngine(t, &spec, 4)
			results, err := o.RunTenants(context.Background(), tenants)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				n := spec.Tenants[i].Queries
				if res.ShedArrivals != 0 {
					t.Errorf("tenant %s shed %d arrivals on the healthy path", spec.Tenants[i].Name, res.ShedArrivals)
				}
				if len(res.Outcomes) != n {
					t.Fatalf("tenant %s completed %d of %d queries", spec.Tenants[i].Name, len(res.Outcomes), n)
				}
				seen := make([]bool, n)
				for _, out := range res.Outcomes {
					if out.Tag < 0 || out.Tag >= n {
						t.Fatalf("tenant %s: outcome for unknown tag %d", spec.Tenants[i].Name, out.Tag)
					}
					if seen[out.Tag] {
						t.Fatalf("tenant %s: tag %d completed twice", spec.Tenants[i].Name, out.Tag)
					}
					seen[out.Tag] = true
				}
			}
		})
	}
}

// The spot scenario's price schedule must actually reach lease accounting:
// the same trace served under spot prices and under flat prices reports
// different costs (the multiplier path is live), while penalties — pure
// latency, prices never alter execution timing — stay identical.
func TestSpotScenarioPricesLeases(t *testing.T) {
	templates := workload.DefaultTemplates(5)
	var spot Spec
	for _, spec := range testCatalog() {
		if spec.Name == "spot" {
			spot = spec
		}
	}
	if spot.Prices == nil {
		t.Fatal("spot scenario lost its price schedule")
	}
	tenants := spot.Generate(templates)
	priced, err := newEngine(t, &spot, 1).RunTenants(context.Background(), tenants)
	if err != nil {
		t.Fatal(err)
	}
	flat := spot
	flat.Prices = nil
	unpriced, err := newEngine(t, &flat, 1).RunTenants(context.Background(), tenants)
	if err != nil {
		t.Fatal(err)
	}
	if priced[0].Penalty != unpriced[0].Penalty {
		t.Errorf("prices changed the penalty: %g vs %g (schedules must price money, not time)",
			priced[0].Penalty, unpriced[0].Penalty)
	}
	if priced[0].Cost == unpriced[0].Cost {
		t.Errorf("spot and flat prices charged identically (%g¢); the schedule never reached lease accounting", priced[0].Cost)
	}
}

// The steady-state arrival path stays allocation-free under every
// scenario's serving-side machinery: the tenant's mix drives the drift
// observer, and the spec's spot schedule drives the per-event price lookup
// and the priced dominated-placement guard. Gaps are fixed at 7m so every
// batch takes the fresh path — the alloc invariant is a property of the
// per-arrival serving work, which is exactly what varies per scenario.
func TestScenarioArrivalAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	templates := workload.DefaultTemplates(5)
	k := len(templates)
	for _, spec := range testCatalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ms := models(t)
			opts := core.DefaultOnlineOptions()
			opts.Drift = core.DriftOptions{Window: 32} // drift observe is on the measured path
			opts.Prices = spec.Prices
			o := core.NewOnlineScheduler(ms[""], opts)
			clk := &core.SimClock{}
			s := o.NewStream(clk)
			s.Reserve(260)
			ctx := context.Background()
			mix := spec.Tenants[0].Mix
			var weights []float64
			next := 0
			submit := func() {
				at := time.Duration(next) * 7 * time.Minute
				clk.Advance(at)
				tpl := next % k
				if mix != nil {
					weights = mix.WeightsAt(k, at, weights)
					tpl = drawTemplate(weights, float64(next%7)/7)
				}
				if err := s.Submit(ctx, workload.Query{TemplateID: tpl, Tag: next}); err != nil {
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
				t.Errorf("steady-state arrival allocates (%.2f allocs/arrival) under scenario %s; want 0", allocs, spec.Name)
			}
			s.Finish()
		})
	}
}

// BenchmarkScenarioArrival measures per-arrival serving cost over scenario
// traces: the flash-crowd shape (out-of-order trace, same-instant batches)
// and the spot shape (price lookup + priced guard live on every event).
// WaitResolution is raised above the stream length so every wait buckets to
// zero — the benchmark isolates the arrival machinery from model
// acquisition, matching BenchmarkOnlineArrival's method.
func BenchmarkScenarioArrival(b *testing.B) {
	ms := models(b)
	base := ms[""]
	templates := base.Env().Templates
	for _, spec := range Catalog(11, 40, 5*time.Minute) {
		if spec.Name != "poisson" && spec.Name != "flash-crowd" && spec.Name != "spot" {
			continue
		}
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			w := spec.Generate(templates)[0].Workload
			opts := core.DefaultOnlineOptions()
			opts.WaitResolution = time.Hour
			opts.Prices = spec.Prices
			b.ReportAllocs()
			b.ResetTimer()
			var arrivals int
			for i := 0; i < b.N; i++ {
				o := core.NewOnlineScheduler(base, opts)
				res, err := o.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				arrivals += len(res.PerArrival)
			}
			b.StopTimer()
			if arrivals > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
			}
		})
	}
}
