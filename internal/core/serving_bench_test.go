package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// benchModel trains one small model for the serving benchmarks. Training
// scale is deliberately modest — the benchmarks measure serving, not
// training — and fully deterministic so before/after runs compare the same
// tree.
func benchModel(b *testing.B) *Model {
	b.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 60
	cfg.SampleSize = 7
	cfg.Seed = 7
	adv := MustNewAdvisor(env, cfg)
	m, err := adv.Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkScheduleBatch measures the model-serving hot path (§6.2, §7.4):
// one complete batch schedule per iteration, at the paper's "heavy traffic"
// sizes. Allocations per op are the serving-path regression signal — the
// pooled scratch should keep them O(1) amortized per query.
func BenchmarkScheduleBatch(b *testing.B) {
	m := benchModel(b)
	for _, n := range []int{10, 30, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := workload.NewSampler(m.Env().Templates, 11).Uniform(n)
			if _, err := m.ScheduleBatch(w); err != nil {
				b.Fatal(err) // warm the scratch pool before measuring
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ScheduleBatch(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlineArrival measures the per-arrival serving overhead of
// online scheduling (§6.3, Fig. 19's metric): a stream of arrivals each
// revoking and re-scheduling the unstarted backlog. WaitResolution is set
// above the stream length so every wait buckets to zero and each arrival
// serves from the base model — the benchmark isolates the arrival machinery
// (revocation, re-batching, tree parsing, placement) from model
// acquisition, which Fig. 16/19 benchmarks cover.
func BenchmarkOnlineArrival(b *testing.B) {
	m := benchModel(b)
	opts := DefaultOnlineOptions()
	opts.WaitResolution = time.Hour
	queries := workload.NewSampler(m.Env().Templates, 13).Uniform(40).Queries
	for i := range queries {
		queries[i].Arrival = time.Duration(i) * 5 * time.Second
	}
	w := &workload.Workload{Templates: m.Env().Templates, Queries: queries}
	b.ReportAllocs()
	b.ResetTimer()
	var arrivals int
	for i := 0; i < b.N; i++ {
		o := NewOnlineScheduler(m, opts)
		res, err := o.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		arrivals += len(res.PerArrival)
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
	}
}

// BenchmarkOnlineMultiStream measures the multi-tenant serving engine: K
// concurrent tenant streams over the engine's shards, fresh-batch
// arrivals (the steady-state path). arrivals/sec is the headline throughput
// metric CI persists in BENCH_serving.json; the streams=1 case is the
// single-tenant baseline the 16-stream acceptance bar compares against.
func BenchmarkOnlineMultiStream(b *testing.B) {
	m := benchModel(b)
	const n = 60
	for _, streams := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			ws := make([]*workload.Workload, streams)
			for i := range ws {
				w := workload.NewSampler(m.Env().Templates, int64(17+i)).Uniform(n)
				ws[i] = w.WithArrivals(workload.FixedDelayArrivals(n, 7*time.Minute))
			}
			tenants := asTenants(ws)
			o := NewOnlineScheduler(m, DefaultOnlineOptions())
			if _, err := o.RunTenants(context.Background(), tenants); err != nil {
				b.Fatal(err) // warm pools before measuring
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.RunTenants(context.Background(), tenants); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				perSec := float64(b.N*streams*n) / b.Elapsed().Seconds()
				b.ReportMetric(perSec, "arrivals/sec")
			}
		})
	}
}
