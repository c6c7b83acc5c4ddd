package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Sampler draws random workloads from a template set. WiSeDB trains on
// uniform direct samples of the templates (§4.2): uniform sampling produces
// both balanced and unbalanced mixes, which is what lets the learned model
// handle skewed runtime workloads (§7.5).
type Sampler struct {
	templates []Template
	rng       *rand.Rand
}

// NewSampler returns a sampler over the given template set seeded
// deterministically. The sampler is not safe for concurrent use.
func NewSampler(templates []Template, seed int64) *Sampler {
	if len(templates) == 0 {
		panic("workload: NewSampler requires at least one template")
	}
	return &Sampler{
		templates: templates,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Uniform draws a workload of m queries with template IDs sampled uniformly
// at random (uniform direct sampling, §4.2).
func (s *Sampler) Uniform(m int) *Workload {
	queries := make([]Query, m)
	for i := range queries {
		queries[i] = Query{TemplateID: s.rng.Intn(len(s.templates)), Tag: i}
	}
	return &Workload{Templates: s.templates, Queries: queries}
}

// Weighted draws a workload of m queries where template i is drawn with
// probability proportional to weights[i]. It is used to produce skewed
// runtime workloads (§7.5).
func (s *Sampler) Weighted(m int, weights []float64) *Workload {
	w, _ := s.WeightedVariates(m, weights)
	return w
}

// WeightedVariates is Weighted, additionally returning the unit variates
// consumed — one per query, in query order. The draw is a pure function of
// (variates, weights): WeightedFromVariates rebins the same variates under
// different weights without reconstructing the sampler, which is how a
// warm retrain re-draws every sample workload under a drifted mix without
// paying 500 rand-source seedings (see core's WarmTrainContext).
func (s *Sampler) WeightedVariates(m int, weights []float64) (*Workload, []float64) {
	if len(weights) != len(s.templates) {
		panic(fmt.Sprintf("workload: Weighted got %d weights for %d templates", len(weights), len(s.templates)))
	}
	variates := make([]float64, m)
	for i := range variates {
		variates[i] = s.rng.Float64()
	}
	return WeightedFromVariates(s.templates, variates, weights), variates
}

// WeightedFromVariates maps unit variates to a workload under weights with
// exactly the inverse-CDF walk Weighted uses: variate i drawn by one
// sampler produces the identical query Weighted would have drawn at
// position i under the same weights.
func WeightedFromVariates(templates []Template, variates, weights []float64) *Workload {
	if len(weights) != len(templates) {
		panic(fmt.Sprintf("workload: Weighted got %d weights for %d templates", len(weights), len(templates)))
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("workload: Weighted requires non-negative weights")
		}
		total += w
	}
	if total <= 0 {
		panic("workload: Weighted requires a positive weight sum")
	}
	queries := make([]Query, len(variates))
	for i, u := range variates {
		r := u * total
		id := len(weights) - 1
		for j, w := range weights {
			if r < w {
				id = j
				break
			}
			r -= w
		}
		queries[i] = Query{TemplateID: id, Tag: i}
	}
	return &Workload{Templates: templates, Queries: queries}
}

// SkewWeights returns a template weight vector that interpolates between the
// uniform distribution (skew=0) and a point mass on a single template
// (skew=1). Together with ChiSquareStatistic this reproduces the skewness
// axis of Figs. 20 and 21.
func SkewWeights(n int, skew float64, favorite int) []float64 {
	if skew < 0 || skew > 1 {
		panic("workload: skew must be in [0,1]")
	}
	if favorite < 0 || favorite >= n {
		panic("workload: favorite template out of range")
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = (1 - skew) / float64(n)
	}
	weights[favorite] += skew
	return weights
}

// WithArrivals returns a copy of w whose queries arrive at the given times.
// Queries are matched to arrival times by index; len(arrivals) must equal
// the workload size. The result is sorted by arrival time; queries arriving
// at the same instant keep their index order (the sort is stable), so the
// tag composition of each same-instant batch event is deterministic.
func (w *Workload) WithArrivals(arrivals []time.Duration) *Workload {
	if len(arrivals) != len(w.Queries) {
		panic(fmt.Sprintf("workload: WithArrivals got %d arrival times for %d queries", len(arrivals), len(w.Queries)))
	}
	queries := make([]Query, len(w.Queries))
	copy(queries, w.Queries)
	for i := range queries {
		queries[i].Arrival = arrivals[i]
	}
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].Arrival < queries[j].Arrival })
	return &Workload{Templates: w.Templates, Queries: queries}
}

// FixedDelayArrivals returns arrival times spaced delay apart: query i
// arrives at i*delay. Used by the online-scheduling experiment (Fig. 18).
func FixedDelayArrivals(n int, delay time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * delay
	}
	return out
}

// NormalArrivals returns arrival times whose inter-arrival gaps are drawn
// from a normal distribution with the given mean and standard deviation,
// truncated at zero (Fig. 19 uses mean 1/4s, stddev 1/8s).
func NormalArrivals(n int, mean, stddev time.Duration, rng *rand.Rand) []time.Duration {
	out := make([]time.Duration, n)
	t := time.Duration(0)
	for i := range out {
		gap := time.Duration(rng.NormFloat64()*float64(stddev) + float64(mean))
		if gap < 0 {
			gap = 0
		}
		if i > 0 {
			t += gap
		}
		out[i] = t
	}
	return out
}
