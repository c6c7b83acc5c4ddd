// Package search finds minimum-cost schedules: it runs A* over the
// scheduling graph (§4.3) with the admissible heuristic of Eq. 3 for
// monotonically increasing goals, an admissible penalty-corrected variant
// for non-monotonic goals, and the adaptive-A* heuristic reuse of §5 for
// re-solving a sample workload under a tightened goal (Lemma 5.1; applied
// to monotonic goals only — see Reuse for why it is unsound under
// refundable penalties).
//
// A* is complete and, with an admissible heuristic, exact — so this package
// also serves as the "Optimal" comparator of the paper's evaluation (§7.2).
//
// Non-monotonic goals (Average, Percentile) admit placement edges with
// negative weight: a short query can lower the mean or percentile penalty
// by more than it costs to process. The search therefore runs as
// best-first branch-and-bound: nodes are re-opened when a cheaper path is
// found, a goal's cost becomes an incumbent bound, and the search stops when
// the cheapest open f-value cannot beat the incumbent. For monotonic goals
// the heuristic is consistent and this degenerates to plain A*.
//
// Three engine-level optimizations keep the training-side searches fast
// (see DESIGN.md, "The search engine"): states and their slices are
// bump-allocated from a pooled graph.Arena, the open list is a monotone
// bucket queue over quantized f-costs (bucketFrontier), and solved suffix
// subproblems transfer between searches of one Problem through a
// TranspositionCache.
package search

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Step is one decision along an optimal path: the vertex the decision was
// made at and the edge that was taken. Feature extraction consumes these
// (§4.4: each decision maps to features of its origin vertex).
type Step struct {
	State  *graph.State
	Action graph.Action
}

// Result is the outcome of a search.
type Result struct {
	// Cost is the total cost (Eq. 1) of the best complete schedule found.
	Cost float64
	// Actions is the edge sequence from the start vertex to the goal.
	Actions []graph.Action
	// Path pairs each decision with the vertex it was made at. The states
	// are materialized by replaying Actions from the start vertex, so
	// their accumulators are exact even where the search shared a static
	// accumulator internally (see graph.ApplyArena).
	Path []Step
	// Expanded counts vertex expansions (search effort).
	Expanded int
	// Optimal is false only if the expansion limit interrupted the
	// search before optimality was proven.
	Optimal bool
	// CacheHits and CacheMisses count transposition-cache lookups made by
	// this search (zero when no cache was used).
	CacheHits, CacheMisses int
	// Closed records, per interned state signature, the best path cost
	// with which the state was reached. Adaptive modeling (§5) feeds this
	// into the heuristic of a re-search under a tightened goal.
	Closed *Closed
}

// Schedule materializes the schedule the result's action path builds.
func (r *Result) Schedule() *schedule.Schedule { return graph.BuildSchedule(r.Actions) }

// Reuse is the information adaptive A* (§5) carries from a completed search
// to a re-search of the same workload under a stricter goal: the old optimal
// cost and the interned per-signature path costs.
// h'(v) = max(h(v), OldCost − g_old(v)) never overestimates under the
// stricter goal (Lemma 5.1) — provided every edge cost weakly increases
// under the tightening, which holds for monotonic goals only. Non-monotonic
// goals (Average, Percentile) refund accumulated penalty on later
// placements, so a tightened goal can make an edge cheaper, g_old(v) can
// exceed g_new(v), and the reuse bound would overestimate and prune the
// true optimum. The search therefore applies Reuse only to monotonic goals
// and silently ignores it otherwise.
type Reuse struct {
	// OldCost is cost(R, g): the optimal cost under the old goal.
	OldCost float64
	// Closed holds g_old(v) per interned signature.
	Closed *Closed
}

// Options tunes a search.
type Options struct {
	// MaxExpansions bounds search effort; 0 means unlimited. If the
	// limit interrupts the search, the best goal found so far (if any)
	// is returned with Optimal=false.
	MaxExpansions int
	// Reuse, when non-nil, strengthens the heuristic with adaptive-A*
	// information from a previous search of the same workload under a
	// looser goal.
	Reuse *Reuse
	// KeepClosed records Closed in the result (needed when the result
	// will later seed a Reuse). It costs memory proportional to the
	// number of distinct states seen.
	KeepClosed bool
	// IncumbentCost seeds branch-and-bound with a known achievable cost
	// (e.g. from a heuristic schedule); 0 means none. Nodes that cannot
	// beat it are pruned immediately. If the search finds nothing
	// cheaper, it reports ErrSeedIsOptimal: the seed schedule was
	// already optimal (within eps).
	IncumbentCost float64
	// Cache, when non-nil, consults (and prunes through) the
	// cross-search transposition cache: a generated state whose
	// signature has a solved suffix stitches the stored completion
	// instead of expanding the subtree. Ignored for non-monotonic goals
	// (see TranspositionCache). The cache must have been populated only
	// from searches of the same Problem.
	Cache *TranspositionCache
	// Record, when non-nil and the goal is monotonic, receives one
	// solved-suffix record per state on the returned optimal path (only
	// when optimality was proven). Publish them with
	// TranspositionCache.Commit; worker pools commit at deterministic
	// barriers.
	Record *PendingSuffixes
}

// ErrSeedIsOptimal is returned when branch-and-bound proves no schedule
// beats the seeded incumbent cost.
var ErrSeedIsOptimal = errors.New("search: seeded incumbent is optimal")

// ErrNoSchedule is returned when no complete schedule exists (e.g. a
// template no VM type can run).
var ErrNoSchedule = errors.New("search: no complete schedule exists")

const eps = 1e-9

// node is an entry of the open list. States are identified by the dense id
// their signature interns to, not by the signature string itself.
type node struct {
	state  *graph.State
	id     uint32
	g      float64
	f      float64
	parent *node
	act    graph.Action
	// remaining caches state.RemainingQueries() at node creation: the
	// open-frontier tie-break reads it on every comparison, and
	// recomputing the sum over Unassigned there dominates frontier
	// maintenance in the training hot loop.
	remaining int32
	// depth is the action-path length from the start vertex; pathCmp uses
	// it to align parent chains when comparing paths lexicographically.
	depth int32
	// stitch, when non-zero, marks a pseudo-goal created by a canonical
	// transposition-cache hit: arena.stitches[stitch-1] holds the cached
	// suffix completing this node's prefix, and f holds the full
	// completion cost. Pseudo-goals are never expanded; popping one ends
	// a canonical search exactly like popping a real goal.
	stitch int32
}

// Searcher solves scheduling problems. It precomputes the per-template
// cheapest processing costs used by the Eq. 3 heuristic.
//
// A Searcher is safe for concurrent use: all precomputed tables are
// read-only after New, and each Solve call draws its mutable scratch state
// (signature buffer, intern table, state/node arenas, open frontier) from a
// pool so that concurrent searches — the training worker pool runs one per
// worker — never share buffers.
type Searcher struct {
	prob         *graph.Problem
	minCost      []float64
	minLat       []time.Duration
	latOrderDesc []int
	minStartup   float64   // cheapest VM start-up fee, used by every bound
	arenas       sync.Pool // *arena
}

// New returns a Searcher for the problem. It returns an error if some
// template cannot run on any VM type (no complete schedule could exist).
func New(prob *graph.Problem) (*Searcher, error) {
	minCost := make([]float64, len(prob.Env.Templates))
	minLat := make([]time.Duration, len(prob.Env.Templates))
	for i := range prob.Env.Templates {
		c, ok := prob.Env.CheapestLatencyCost(i)
		if !ok {
			return nil, fmt.Errorf("%w: template %d runs on no VM type", ErrNoSchedule, i)
		}
		minCost[i] = c
		minLat[i], _ = prob.Env.FastestLatency(i)
	}
	minStartup := math.Inf(1)
	for _, vt := range prob.Env.VMTypes {
		if vt.StartupCost < minStartup {
			minStartup = vt.StartupCost
		}
	}
	s := &Searcher{prob: prob, minCost: minCost, minLat: minLat, minStartup: minStartup}
	s.arenas.New = func() any { return newArena() }
	s.initLatOrder()
	return s, nil
}

// nodeChunkSize is the bump-allocation granularity of a search arena's node
// blocks.
const nodeChunkSize = 1024

// arena is the per-search scratch state: one worker owns one arena for the
// duration of a Solve, so searches allocate signature bytes, states, nodes,
// and frontier slots from reused memory instead of churning the allocator
// per expanded edge.
type arena struct {
	sigBuf []byte
	table  *InternTable
	best   []*node // dense state id -> best known node
	open   bucketFrontier
	states graph.Arena    // bump-allocated successor states
	actBuf []graph.Action // per-expansion action scratch
	// cmpA/cmpB are materialization scratch for canonical tie-breaking:
	// two full action prefixes compared lexicographically.
	cmpA, cmpB []graph.Action
	// stitches holds the cached suffixes behind pseudo-goal nodes
	// (node.stitch indexes it, 1-based).
	stitches [][]graph.Action
	bigs     []time.Duration
	dom      *dominanceIndex // lazily built; Percentile searches only
	chunks   [][]node
	chunk    int // index of the chunk newNode bump-allocates from
	used     int // nodes used within that chunk
}

func newArena() *arena {
	return &arena{table: NewInternTable()}
}

// reset readies the arena for a fresh search, retaining all capacity.
func (a *arena) reset() {
	a.sigBuf = a.sigBuf[:0]
	a.best = a.best[:0]
	a.stitches = a.stitches[:0]
	a.chunk, a.used = 0, 0
	a.states.Reset()
	a.table.Reset()
	if a.dom != nil {
		a.dom.reset()
	}
}

// release drops every reference the finished search left in the arena —
// node states, parent chains, best/open entries — so an idle pooled arena
// does not pin the search graph in memory until its next use.
func (a *arena) release() {
	for i := 0; i <= a.chunk && i < len(a.chunks); i++ {
		c := a.chunks[i]
		n := nodeChunkSize
		if i == a.chunk {
			n = a.used
		}
		for j := 0; j < n; j++ {
			c[j] = node{}
		}
	}
	for i := range a.best {
		a.best[i] = nil
	}
	a.best = a.best[:0]
	for i := range a.stitches {
		a.stitches[i] = nil
	}
	a.stitches = a.stitches[:0]
	a.open.release()
	a.states.Release()
	if a.dom != nil {
		a.dom.release()
	}
	a.chunk, a.used = 0, 0
}

// newNode bump-allocates a zeroed node.
func (a *arena) newNode() *node {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]node, nodeChunkSize))
	}
	n := &a.chunks[a.chunk][a.used]
	*n = node{}
	if a.used++; a.used == nodeChunkSize {
		a.chunk++
		a.used = 0
	}
	return n
}

// Problem returns the problem the searcher was built for.
func (s *Searcher) Problem() *graph.Problem { return s.prob }

// heuristic returns an admissible estimate of the cost-to-go from state st.
// For monotonic goals it is Eq. 3: the cheapest possible processing cost of
// every unassigned query. For non-monotonic goals the accumulated penalty
// may still be refunded by future placements, so the admissible form
// subtracts it (the final penalty is at least zero). Adaptive reuse takes
// the max with OldCost − g_old (Lemma 5.1). Scratch is drawn from ar.
func (s *Searcher) heuristic(ar *arena, st *graph.State, sig []byte, reuse *Reuse) float64 {
	h := 0.0
	remaining := 0
	var minFutureLat time.Duration
	for t, c := range st.Unassigned {
		h += float64(c) * s.minCost[t]
		remaining += c
		minFutureLat += time.Duration(c) * s.minLat[t]
	}
	if !s.prob.Goal.Monotonic() {
		// The accumulated penalty may be partially refunded by future
		// placements, but never below an admissible lower bound on
		// the final penalty.
		switch goal := s.prob.Goal.(type) {
		case sla.Average:
			if remaining > 0 {
				h += s.averageBound(st, goal, remaining) - st.Acc.Penalty()
			}
		case sla.Percentile:
			bound := sla.MinFinalPenalty(goal, st.Acc, remaining, minFutureLat)
			if remaining > 0 {
				if fees := s.percentileBound(ar, st, goal, remaining); fees > bound {
					bound = fees
				}
			}
			h += bound - st.Acc.Penalty()
		default:
			h += sla.MinFinalPenalty(s.prob.Goal, st.Acc, remaining, minFutureLat) - st.Acc.Penalty()
		}
	} else if remaining > 0 {
		h += s.packingBound(st, minFutureLat)
	}
	// Reuse is sound only for monotonic goals: non-monotonic penalties are
	// refundable, so a tightened goal can lower an edge's cost and
	// OldCost − g_old(v) would overestimate (see Reuse).
	if reuse != nil && s.prob.Goal.Monotonic() {
		if gOld, ok := reuse.Closed.Lookup(sig); ok {
			if adaptive := reuse.OldCost - gOld; adaptive > h {
				h = adaptive
			}
		}
	}
	return h
}

// packingBound lower-bounds the future start-up and penalty cost for
// monotonic goals by relaxing query granularity to divisible work. The open
// VM can absorb room−Wait more work penalty-free and each new VM absorbs
// `room`; work spilling past the absorbed room appears in the violation
// period of at least the last query of its VM, so for k additional VMs the
// future extra cost is at least
//
//	k × min-startup + rate × max(0, W − openRoom − k×room)
//
// where W is the minimum total future execution time. The bound takes the
// best k, which a completion is free to match but never beat.
func (s *Searcher) packingBound(st *graph.State, minFutureLat time.Duration) float64 {
	room, rate, ok := sla.FutureRoom(s.prob.Goal, st.Unassigned)
	if !ok || room <= 0 {
		return 0
	}
	openRoom := time.Duration(0)
	if st.OpenType != graph.NoVM && room > st.Wait {
		openRoom = room - st.Wait
	}
	kLow := 0.0
	spill := minFutureLat - openRoom
	if st.OpenType == graph.NoVM {
		// No VM is rented yet: at least one start-up fee is certain.
		spill = minFutureLat
		kLow = 1
	}
	if spill <= 0 && kLow == 0 {
		return 0
	}
	// The cost is convex in k, so the best k is kLow or one of the two
	// integers around the penalty-free crossover point.
	kCross := float64(spill) / float64(room)
	best := math.Inf(1)
	for _, k := range [3]float64{kLow, math.Floor(kCross), math.Ceil(kCross)} {
		if k < kLow {
			continue
		}
		cost := k * s.minStartup
		if residual := spill - time.Duration(k*float64(room)); residual > 0 {
			cost += rate * residual.Seconds()
		}
		if cost < best {
			best = cost
		}
	}
	return best
}

// solver holds the mutable state of one Solve call.
type solver struct {
	s     *Searcher
	ar    *arena
	table *InternTable
	reuse *Reuse

	cache     *TranspositionCache
	hits      int
	misses    int
	incumbent *node
	// stitched is the cached suffix completing the incumbent; nil when
	// the incumbent is a goal node reached by expansion.
	stitched      []graph.Action
	incumbentCost float64
	seeded        bool
	// canonical marks a search whose result must be a pure function of
	// (problem, workload) — invariant to transposition-cache contents,
	// adaptive-reuse heuristic strength, and worker parallelism. It holds
	// for every monotonic, unseeded search and is what lets a warm
	// retrain (cache and Closed sets carried over from a prior epoch)
	// reproduce a cold retrain bit-for-bit.
	//
	// The canonical schedule is the lexicographically least action
	// sequence (under actionCmp) among complete schedules whose total
	// cost lies in the minimal eps-quantization band. The search finds it
	// without enumerating the band: the open list pops in
	// (eps-banded f, lex path) order, transposition-cache hits become
	// pseudo-goal frontier nodes (carrying prefix + cached suffix at the
	// full completion cost) instead of incumbent adoptions, and the first
	// goal or pseudo-goal popped is the canonical schedule. The argument:
	// any prefix of the canonical schedule S has f within the band of S's
	// cost under every admissible heuristic, so it pops before any
	// lex-greater goal in that band; a cached suffix is itself the
	// canonical completion of its state (recorded from canonical paths,
	// merged lex-least in Commit), so a pseudo-goal either realizes S or
	// diverges from it in its visible prefix and pops after. Band-edge
	// float noise (~1e-13 across summation orders, vs the 1e-9 band) is
	// the only residual nondeterminism and is the same noise class the
	// eps tolerance already accepts everywhere else.
	//
	// Dedupe keeps the lex-least among eps-tied paths per state and
	// re-opens on replacement; since a lex-smaller prefix maps every
	// completion to a lex-smaller completion at the same cost, the
	// canonical schedule's prefixes are never evicted.
	canonical bool
}

// tieLess reports whether the candidate path (parent, act) is
// lexicographically smaller than open node b's path. Both paths reach the
// same state, so they are eps-tied in cost; the canonical search keeps the
// lex-least.
func (sv *solver) tieLess(parent *node, act graph.Action, b *node) bool {
	ar := sv.ar
	ar.cmpA = appendPathActions(ar.cmpA[:0], parent, act)
	ar.cmpB = appendPathActions(ar.cmpB[:0], b.parent, b.act)
	return lexCmpActions(ar.cmpA, ar.cmpB) < 0
}

// appendPathActions appends the root-to-edge action sequence of the path
// that ends with edge (parent, act); parent == nil denotes the start vertex
// (no edge at all, an empty path).
func appendPathActions(buf []graph.Action, parent *node, act graph.Action) []graph.Action {
	if parent == nil {
		return buf
	}
	start := len(buf)
	buf = append(buf, act)
	for n := parent; n.parent != nil; n = n.parent {
		buf = append(buf, n.act)
	}
	reverseActions(buf[start:])
	return buf
}

// lexCmpActions compares two action sequences lexicographically under
// actionCmp; a proper prefix orders first.
func lexCmpActions(a, b []graph.Action) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := actionCmp(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// consider processes one arrival at a state: interns its signature,
// deduplicates against the best-known node, applies dominance pruning,
// stitches a cached suffix, or pushes an open node. parent is nil for the
// start vertex.
func (sv *solver) consider(st *graph.State, parent *node, act graph.Action, g float64, remaining int32) {
	ar := sv.ar
	ar.sigBuf = sv.s.prob.AppendSignature(ar.sigBuf[:0], st)
	id, fresh := sv.table.Intern(ar.sigBuf)
	if fresh {
		ar.best = append(ar.best, nil)
	}
	if b := ar.best[id]; b != nil {
		if sv.canonical {
			// Keep the cheapest path; among eps-tied paths keep the
			// lexicographically least, re-opening the state so its
			// subtree re-derives with the smaller prefix (the cascade
			// terminates: the kept prefix strictly lex-decreases).
			if b.g < g-eps {
				return
			}
			if g >= b.g-eps && !sv.tieLess(parent, act, b) {
				return
			}
		} else if b.g <= g+eps {
			return
		}
	}
	if ar.dom != nil {
		if ar.dom.dominated(st, g) {
			return
		}
		ar.dom.insert(st, g)
	}
	depth := int32(0)
	if parent != nil {
		depth = parent.depth + 1
	}
	if sv.cache != nil {
		if e, ok := sv.cache.lookup(ar.sigBuf); ok {
			sv.hits++
			cn := ar.newNode()
			*cn = node{state: st, id: id, g: g, f: g + e.cost, parent: parent, act: act, remaining: remaining, depth: depth}
			if sv.canonical {
				// Push a pseudo-goal at the full completion cost
				// instead of adopting an incumbent: the pop order
				// decides canonically among all completions.
				ar.stitches = append(ar.stitches, e.actions)
				cn.stitch = int32(len(ar.stitches))
				ar.best[id] = cn
				ar.open.push(cn)
				return
			}
			ar.best[id] = cn
			// Strict improvement (beyond eps) keeps seeded-incumbent
			// semantics: a stitched completion merely matching the seed
			// must still report ErrSeedIsOptimal.
			if total := g + e.cost; total < sv.incumbentCost-eps {
				sv.incumbent, sv.incumbentCost, sv.stitched = cn, total, e.actions
			}
			return
		}
		sv.misses++
	}
	f := g + sv.s.heuristic(ar, st, ar.sigBuf, sv.reuse)
	if f >= sv.incumbentCost-eps {
		return // bound: cannot beat the incumbent
	}
	cn := ar.newNode()
	*cn = node{state: st, id: id, g: g, f: f, parent: parent, act: act, remaining: remaining, depth: depth}
	ar.best[id] = cn
	ar.open.push(cn)
}

// Solve finds a minimum-cost complete schedule for the workload. It is safe
// to call concurrently from multiple goroutines on one Searcher.
func (s *Searcher) Solve(w *workload.Workload, opts Options) (*Result, error) {
	if len(w.Templates) != len(s.prob.Env.Templates) {
		return nil, fmt.Errorf("search: workload has %d templates, problem expects %d", len(w.Templates), len(s.prob.Env.Templates))
	}
	ar := s.arenas.Get().(*arena)
	defer func() {
		ar.release()
		s.arenas.Put(ar)
	}()
	ar.reset()
	table := ar.table
	if _, isPct := s.prob.Goal.(sla.Percentile); isPct {
		if ar.dom == nil {
			ar.dom = newDominanceIndex()
		}
	} else {
		ar.dom = nil
	}
	monotonic := s.prob.Goal.Monotonic()
	sv := solver{s: s, ar: ar, table: table, reuse: opts.Reuse, incumbentCost: math.Inf(1)}
	if opts.Cache != nil && monotonic {
		// Sound for monotonic goals only; see TranspositionCache.
		sv.cache = opts.Cache
	}
	if opts.IncumbentCost > 0 {
		sv.incumbentCost = opts.IncumbentCost + eps
		sv.seeded = true
	}
	// Every monotonic, unseeded search is canonical (see solver.canonical):
	// its result is invariant to cache contents and heuristic strength.
	// Seeded searches keep the legacy incumbent-bound semantics so
	// ErrSeedIsOptimal still means "nothing strictly beats the seed".
	sv.canonical = monotonic && !sv.seeded
	// f-costs are in cents; a quantum of a fraction of the cheapest
	// start-up fee separates the packing plateaus the bounds create while
	// keeping the bucket count moderate.
	quantum := s.minStartup / 8
	if !(quantum > 1e-4) {
		quantum = 1e-4
	}
	ar.open.init(0, quantum, sv.canonical)

	start := s.prob.Start(w)
	sv.consider(start, nil, graph.Action{}, 0, int32(start.RemainingQueries()))

	expanded := 0
	optimal := true
	for {
		n := ar.open.pop()
		if n == nil {
			break
		}
		if sv.canonical {
			if ar.best[n.id] != n {
				continue // superseded by a cheaper or lex-smaller path
			}
			if n.stitch != 0 || n.state.IsGoal() {
				// First goal or pseudo-goal popped: by the canonical
				// pop order this is the lex-least schedule in the
				// minimal cost band, regardless of what the cache or
				// the heuristic contributed.
				sv.incumbent, sv.incumbentCost = n, n.f
				if n.stitch != 0 {
					sv.stitched = ar.stitches[n.stitch-1]
				}
				break
			}
		} else {
			if b := ar.best[n.id]; b != nil && b.g < n.g-eps {
				continue // stale entry superseded by a cheaper path
			}
			if n.f >= sv.incumbentCost-eps && (sv.incumbent != nil || sv.seeded) {
				// Nothing in the open list can beat the incumbent:
				// every other open node has f >= n.f, and f never
				// overestimates the cost of completions.
				break
			}
			if n.state.IsGoal() {
				if n.g < sv.incumbentCost {
					sv.incumbent, sv.incumbentCost, sv.stitched = n, n.g, nil
				}
				continue
			}
		}
		expanded++
		if opts.MaxExpansions > 0 && expanded > opts.MaxExpansions {
			optimal = false
			break
		}
		ar.actBuf = s.prob.AppendActions(ar.actBuf[:0], n.state)
		for _, a := range ar.actBuf {
			var cost float64
			switch a.Kind {
			case graph.Startup:
				cost = s.prob.StartupCost(a.VMType)
			case graph.Place:
				c, ok := s.prob.PlacementCost(n.state, a.Template)
				if !ok {
					continue
				}
				cost = c
			}
			child := s.prob.ApplyArena(&ar.states, n.state, a)
			remaining := n.remaining
			if a.Kind == graph.Place {
				remaining-- // a placement assigns exactly one query
			}
			sv.consider(child, n, a, n.g+cost, remaining)
		}
	}
	if sv.cache != nil {
		sv.cache.addCounters(sv.hits, sv.misses)
	}

	if sv.incumbent == nil {
		if !optimal {
			return nil, fmt.Errorf("search: expansion limit %d hit before any schedule was found", opts.MaxExpansions)
		}
		if sv.seeded {
			return nil, ErrSeedIsOptimal
		}
		return nil, ErrNoSchedule
	}

	// Assemble the action path: the parent chain up to the incumbent,
	// then the stitched cache suffix (if any).
	var actions []graph.Action
	for n := sv.incumbent; n.parent != nil; n = n.parent {
		actions = append(actions, n.act)
	}
	reverseActions(actions)
	actions = append(actions, sv.stitched...)

	res := &Result{
		Cost:        sv.incumbentCost,
		Actions:     actions,
		Expanded:    expanded,
		Optimal:     optimal,
		CacheHits:   sv.hits,
		CacheMisses: sv.misses,
	}
	if err := s.buildPath(res, w, opts); err != nil {
		return nil, err
	}
	if opts.KeepClosed {
		g := make([]float64, len(ar.best))
		for id, n := range ar.best {
			if n != nil {
				g[id] = n.g
			} else {
				g[id] = math.Inf(1)
			}
		}
		// The arena table is reused by the next search; the escaping
		// Closed gets its own immutable snapshot.
		res.Closed = &Closed{Table: table.Snapshot(), G: g}
	}
	return res, nil
}

// buildPath replays the result's actions from the start vertex with
// graph.Apply, materializing the Path steps with exact accumulators (the
// search's internal states may share a static accumulator and be stitched
// from cached suffixes). When opts.Record is set, the goal is monotonic,
// and optimality was proven, it also records every path state's solved
// suffix for later Commit into a transposition cache. The replayed edge
// costs double-check the stitched path; a mismatch against the search cost
// reports an error instead of a silently wrong schedule.
func (s *Searcher) buildPath(res *Result, w *workload.Workload, opts Options) error {
	record := opts.Record != nil && s.prob.Goal.Monotonic() && res.Optimal
	var recActions []graph.Action
	if record {
		// Records alias one private copy, never the caller-visible
		// Actions slice.
		recActions = append(make([]graph.Action, 0, len(res.Actions)), res.Actions...)
	}
	res.Path = make([]Step, 0, len(res.Actions))
	st := s.prob.Start(w)
	g := 0.0
	var edgeCosts []float64
	var sigs [][]byte
	if record {
		edgeCosts = make([]float64, len(res.Actions))
		sigs = make([][]byte, len(res.Actions))
	}
	for i, a := range res.Actions {
		res.Path = append(res.Path, Step{State: st, Action: a})
		if record {
			sigs[i] = s.prob.AppendSignature(nil, st)
		}
		var cost float64
		switch a.Kind {
		case graph.Startup:
			cost = s.prob.StartupCost(a.VMType)
		case graph.Place:
			c, ok := s.prob.PlacementCost(st, a.Template)
			if !ok {
				return fmt.Errorf("search: internal error: invalid placement of template %d while replaying the optimal path", a.Template)
			}
			cost = c
		}
		if record {
			edgeCosts[i] = cost
		}
		g += cost
		st = s.prob.Apply(st, a)
	}
	if !st.IsGoal() {
		return errors.New("search: internal error: replayed path does not reach a goal vertex")
	}
	if math.Abs(g-res.Cost) > 1e-6 {
		return fmt.Errorf("search: internal error: replayed path costs %.9f, search reported %.9f", g, res.Cost)
	}
	if record {
		// Suffix costs accumulate backward (cost_i = edge_i + cost_{i+1})
		// rather than as res.Cost − forward-prefix: the backward sum over a
		// given action suffix is the same float bit pattern no matter which
		// sample or epoch recorded it, so transposition caches built warm
		// and cold hold identical entries for shared signatures.
		suffix := 0.0
		for i := len(res.Actions) - 1; i >= 0; i-- {
			suffix += edgeCosts[i]
			opts.Record.add(sigs[i], suffix, recActions[i:])
		}
	}
	return nil
}

// Replay reconstructs the Result a previous search of w produced from its
// recorded action sequence, without searching: the actions are replayed
// from the start vertex exactly as buildPath replays a fresh search's
// incumbent, materializing the same Path steps and — via rec — the same
// transposition-cache suffix records (cache entries only ever come from
// returned optimal paths, so a replay regenerates precisely what the
// search would have recorded). cost is the original search's cost, cross-
// checked against the replayed edge sum; a mismatch (the actions were
// recorded under a different goal or environment) is an error, never a
// silently wrong schedule.
//
// Soundness rests on the canonical-search invariant: for monotonic goals,
// an unseeded search of the same (workload, goal, environment) returns the
// lexicographically least optimal schedule regardless of cache or reuse
// state — so the stored actions ARE today's search result, and warm
// retraining replays unchanged samples in O(path) instead of re-searching
// (see core's WarmTrainContext). The returned result carries no Closed set;
// callers that need reuse information forward the original search's.
func (s *Searcher) Replay(w *workload.Workload, actions []graph.Action, cost float64, rec *PendingSuffixes) (*Result, error) {
	if !s.prob.Goal.Monotonic() {
		return nil, errors.New("search: Replay requires a monotonic goal (non-monotonic searches are not canonical)")
	}
	res := &Result{
		Cost:    cost,
		Actions: append([]graph.Action(nil), actions...),
		Optimal: true,
	}
	if err := s.buildPath(res, w, Options{Record: rec}); err != nil {
		return nil, err
	}
	return res, nil
}

// ReuseFrom packages a completed search into the adaptive-A* reuse
// information for a re-search under a stricter goal (§5). The result must
// have been produced with KeepClosed set.
func ReuseFrom(r *Result) *Reuse {
	if r.Closed == nil {
		panic("search: ReuseFrom requires a result produced with KeepClosed")
	}
	return &Reuse{OldCost: r.Cost, Closed: r.Closed}
}

func reverseActions(a []graph.Action) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}
