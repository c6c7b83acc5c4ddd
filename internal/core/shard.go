// Consistent-hash tenant placement: the scale-out layer of the serving
// engine. Tenants are placed onto engine shards — worker-pool partitions
// with shard-local run queues and stream scratch — by consistent hashing on
// tenant ID, so placement is stable, spreads evenly, and moves only a
// 1/shards fraction of tenants when the shard set changes. The placement
// ring is immutable and published through an atomic pointer, exactly the
// model-epoch hot-swap pattern: workers load it once per arrival event, a
// Rebalance takes effect at event boundaries, and a migrating tenant's
// stream state is handed linearly from the old owner to the new one through
// a run queue — never two owners at once, never a dropped or doubled
// arrival.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wisedb/internal/cloud"
	"wisedb/internal/workload"
)

// TenantID identifies a tenant for consistent-hash placement. IDs may be
// arbitrary 64-bit values (database keys, counters); HashTenantID derives
// one from a name.
type TenantID uint64

// HashTenantID derives a TenantID from a tenant name: FNV-1a finalized by
// SplitMix64, so even short sequential names spread uniformly on the ring.
func HashTenantID(name string) TenantID {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return TenantID(mix64(h))
}

// Tenant is one tenant stream for sharded serving (RunTenants): an identity
// that drives placement, a registry binding (the tenant's SLA tier), and
// the arrival stream to replay.
type Tenant struct {
	// ID places the tenant on the ring and names it in error text;
	// nothing else reads it. Tenants of one RunTenants call may share an
	// ID — they then share a shard, and each keeps its own stream.
	ID TenantID
	// Registry names the model registry the tenant's stream binds to; ""
	// binds to DefaultRegistry.
	Registry string
	// Workload is the tenant's arrival stream.
	Workload *workload.Workload
	// Faults, when non-nil, arms the tenant's simulator with a
	// deterministic fault plan (VM failures, stragglers) before serving
	// begins. Faults are per-tenant: each tenant's draws are keyed by its
	// own simulator's rent sequence, so results stay bit-deterministic at
	// any shard count or rebalance timing.
	Faults *cloud.FaultPlan
}

// ringVnodes is the number of virtual nodes per shard on the placement
// ring — enough that tenant load spreads within a few percent of even
// while keeping ring construction and lookup cheap.
const ringVnodes = 64

// hashRing is an immutable consistent-hash ring over the first `active`
// engine shards. shardOf is a binary search over the sorted vnode
// positions; the parallel hashes/shards slices keep the search cache-dense.
type hashRing struct {
	hashes []uint64 // sorted vnode positions
	shards []int    // shards[i] owns the arc ending at hashes[i]
	active int
}

// newHashRing builds the ring for the first active shards. Construction is
// deterministic, so every engine (and every Rebalance back to the same
// count) produces the identical placement.
func newHashRing(active int) *hashRing {
	type point struct {
		hash  uint64
		shard int
	}
	points := make([]point, 0, active*ringVnodes)
	for s := 0; s < active; s++ {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, point{hash: mix64(uint64(s)<<20 | uint64(v)), shard: s})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	r := &hashRing{
		hashes: make([]uint64, len(points)),
		shards: make([]int, len(points)),
		active: active,
	}
	for i, p := range points {
		r.hashes[i] = p.hash
		r.shards[i] = p.shard
	}
	return r
}

// shardOf returns the shard owning a tenant: the first vnode clockwise of
// the tenant's hash, wrapping at the top of the ring.
func (r *hashRing) shardOf(id TenantID) int {
	h := mix64(uint64(id))
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.shards[i]
}

// engineShard is one worker-pool partition of the sharded serving layer.
// Its scratch pool is shard-local: a tenant's stream scratch is recycled by
// the worker that used it, staying warm in that worker's cache instead of
// bouncing through one engine-wide pool at 10k streams.
type engineShard struct {
	pool sync.Pool // *Stream
}

// initShards sizes the shard set and publishes the initial placement ring.
// n <= 0 selects GOMAXPROCS — one shard per core, the worker-pool shape
// under which near-linear scaling is measured.
func (o *OnlineScheduler) initShards(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	o.shards = make([]engineShard, n)
	o.ring.Store(newHashRing(n))
}

// Rebalance republishes the placement ring over the first active shards
// (1 <= active <= the engine's shard count). It is safe during serving:
// workers observe the new ring at their next arrival event and hand every
// tenant that moved to its new owner, exactly once (see ScaleStats'
// Migrations counter). Shrinking drains tenants off the trailing shards;
// re-growing spreads them back — consistent hashing moves only the tenants
// whose arcs changed hands.
func (o *OnlineScheduler) Rebalance(active int) error {
	if active < 1 || active > len(o.shards) {
		return fmt.Errorf("core: Rebalance(%d): engine has %d shards", active, len(o.shards))
	}
	o.ring.Store(newHashRing(active))
	return nil
}

// tenantSlot is one tenant's serving state as it moves between shard
// workers: the stream, its clock, and the arrival cursor. Ownership is
// linear — exactly one worker holds a slot at any instant, and a migration
// hands the slot to the new owner through that shard's run queue (a
// happens-before edge). The stream is therefore always single-owner,
// in-flight arrivals are never split or replayed across a migration, and
// per-tenant results are bit-identical whatever the shard count or
// rebalance timing.
type tenantSlot struct {
	idx    int // position in RunTenants' input/result slices
	id     TenantID
	reg    *ModelRegistry
	w      *workload.Workload
	faults *cloud.FaultPlan
	sh     int // shard last driving this slot

	// Lazily initialized by the first owning worker, so 10k tenants'
	// arrival queues are built in parallel across shards, not serially at
	// submit time.
	clk *SimClock
	q   *arrivalQueue
	s   *Stream
}

// tenantRun is the shared state of one RunTenants invocation: per-shard run
// queues — buffered to the tenant count, so a hand-off can never block on a
// busy receiver — plus result slots and completion/failure plumbing.
// Concurrent RunTenants calls each get their own tenantRun; they share only
// the engine's ring, shards, and caches.
type tenantRun struct {
	queues  []chan *tenantSlot
	results []*OnlineResult
	pending atomic.Int64
	done    chan struct{}
	cancel  context.CancelFunc
	errOnce sync.Once
	err     error
}

// fail records the first error and cancels the run.
func (r *tenantRun) fail(err error) {
	r.errOnce.Do(func() {
		r.err = err
		r.cancel()
	})
}

// finish records one tenant's result and closes done when it was the last.
func (r *tenantRun) finish(idx int, res *OnlineResult) {
	r.results[idx] = res
	if r.pending.Add(-1) == 0 {
		close(r.done)
	}
}

// RunTenants serves many tenant streams over the engine's shards: each
// tenant is placed by consistent hashing on its ID, bound to its registry
// (its SLA tier), and driven to completion by the owning shard's worker —
// with live migration between shards when Rebalance republishes the ring
// mid-run. Results are positional and bit-deterministic for any shard
// count, rebalance timing, or concurrent engine load: a stream's schedule
// depends only on its own arrivals and the deterministically built models.
// The first stream error cancels the run; a cancelled ctx aborts every
// stream, releases its simulated VMs, and returns ctx.Err().
//
// RunTenants is the engine's one replay driver: Run is a one-tenant call,
// and placement, scratch locality, and worker count are organized for
// 10k+ concurrent tenants.
func (o *OnlineScheduler) RunTenants(ctx context.Context, tenants []Tenant) ([]*OnlineResult, error) {
	if len(tenants) == 0 {
		return nil, nil
	}
	slots := make([]tenantSlot, len(tenants))
	for i, t := range tenants {
		name := t.Registry
		if name == "" {
			name = DefaultRegistry
		}
		reg := o.RegistryNamed(name)
		if reg == nil {
			return nil, fmt.Errorf("core: tenant %d (id %016x): unknown registry %q", i, uint64(t.ID), name)
		}
		if t.Workload == nil {
			return nil, fmt.Errorf("core: tenant %d (id %016x): nil workload", i, uint64(t.ID))
		}
		if len(t.Workload.Templates) != len(o.env.Templates) {
			return nil, fmt.Errorf("core: tenant %d (id %016x): workload has %d templates, engine expects %d",
				i, uint64(t.ID), len(t.Workload.Templates), len(o.env.Templates))
		}
		slots[i] = tenantSlot{idx: i, id: t.ID, reg: reg, w: t.Workload, faults: t.Faults}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &tenantRun{
		queues:  make([]chan *tenantSlot, len(o.shards)),
		results: make([]*OnlineResult, len(tenants)),
		done:    make(chan struct{}),
		cancel:  cancel,
	}
	run.pending.Store(int64(len(tenants)))
	for i := range run.queues {
		run.queues[i] = make(chan *tenantSlot, len(tenants))
	}
	ring := o.ring.Load()
	for i := range slots {
		run.queues[ring.shardOf(slots[i].id)] <- &slots[i]
	}
	// One long-lived worker per shard, each draining its own run queue.
	// Workers return nil; run.err and ctx carry the outcome.
	_ = forEach(ctx, len(o.shards), len(o.shards), func(sh int) error {
		for {
			select {
			case <-run.done:
				return nil
			case <-ctx.Done():
				return nil
			case slot := <-run.queues[sh]:
				o.driveSlot(ctx, run, slot, sh)
			}
		}
	})
	// Cancellation can leave slots parked in queues or mid-stream. The
	// workers have exited, so the slots are exclusively ours: return their
	// scratch so ActiveStreams stays truthful.
	for i := range slots {
		if s := slots[i].s; s != nil && run.results[slots[i].idx] == nil {
			o.releaseStream(s, &o.shards[slots[i].sh].pool)
		}
	}
	if run.err != nil {
		return nil, run.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return run.results, nil
}

// driveSlot advances one tenant stream on shard sh until the stream
// completes, migrates away, or the run fails. The placement ring is
// re-loaded once per arrival event — the same load-once discipline as the
// serving epoch — so a Rebalance takes effect exactly at an event boundary:
// the holding worker forwards the slot to its new owner and never touches
// it again.
func (o *OnlineScheduler) driveSlot(ctx context.Context, run *tenantRun, slot *tenantSlot, sh int) {
	if slot.s == nil {
		slot.clk = &SimClock{}
		slot.q = newArrivalQueue(slot.w.Queries)
		slot.s = o.acquireStreamOn(slot.reg, &o.shards[sh].pool, slot.clk)
		if slot.faults != nil {
			slot.s.InjectFaults(slot.faults)
		}
		slot.s.Reserve(len(slot.w.Queries))
	}
	slot.sh = sh
	for {
		if ctx.Err() != nil {
			return // RunTenants reclaims the slot's stream after workers exit
		}
		if owner := o.ring.Load().shardOf(slot.id); owner != sh {
			o.migrations.Add(1)
			run.queues[owner] <- slot // buffered to tenant count: never blocks
			return
		}
		t, batch, ok := slot.q.next()
		if !ok {
			res := slot.s.Finish()
			o.releaseStream(slot.s, &o.shards[sh].pool)
			slot.s = nil
			run.finish(slot.idx, res)
			return
		}
		slot.clk.Advance(t)
		if err := slot.s.Submit(ctx, batch...); err != nil {
			run.fail(fmt.Errorf("core: tenant %d (id %016x): %w", slot.idx, uint64(slot.id), err))
			return
		}
	}
}
