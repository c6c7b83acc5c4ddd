package cloud

import (
	"fmt"
	"sort"
	"time"
)

// Sim is a deterministic, event-driven execution simulator for rented VMs.
// Each VM processes its queue sequentially and in isolation (§7.1). The
// simulator supports the operations online scheduling needs (§6.3): renting
// VMs mid-stream, enqueueing queries, and revoking queries that have not
// started yet when a new arrival triggers re-scheduling.
//
// Sim is not safe for concurrent use.
type Sim struct {
	vms    []*SimVM
	faults *FaultPlan
	prices *PriceSchedule
	rents  int
}

// NewSim returns an empty simulator.
func NewSim() *Sim { return &Sim{} }

// Run records one executed query: when it started and finished on its VM.
type Run struct {
	// Tag identifies the query instance within its workload.
	Tag int
	// TemplateID is the query's template.
	TemplateID int
	// Start and End are the execution bounds in simulation time.
	Start, End time.Duration
}

// queued is a query waiting in a VM's processing queue.
type queued struct {
	tag        int
	templateID int
	at         time.Duration // when the query joined the queue
	latency    time.Duration
}

// SimVM is a rented virtual machine inside a Sim.
type SimVM struct {
	// Type is the VM's type.
	Type VMType
	// RentedAt is when the VM was provisioned.
	RentedAt time.Duration
	// ReadyAt is when the VM starts accepting queries
	// (RentedAt + Type.StartupDelay).
	ReadyAt time.Duration
	runs    []Run
	queue   []queued

	// Fault-injection state (see faults.go). failAt is the scheduled
	// failure instant (0 = never), failed flips when CollectFailed observes
	// it pass, slow stretches enqueued latencies (0 = healthy).
	failAt time.Duration
	failed bool
	slow   float64
}

// Rent provisions a new VM of type vt at simulation time at and returns it.
// If the simulator carries a fault plan, the VM's fate is drawn here, keyed
// by its rent index, so identical rent sequences see identical faults.
func (s *Sim) Rent(vt VMType, at time.Duration) *SimVM {
	vm := &SimVM{Type: vt, RentedAt: at, ReadyAt: at + vt.StartupDelay}
	if failAfter, slow := s.faults.draw(s.rents); failAfter > 0 || slow > 0 {
		if failAfter > 0 {
			vm.failAt = at + failAfter
		}
		vm.slow = slow
	}
	s.rents++
	s.vms = append(s.vms, vm)
	return vm
}

// VMs returns the rented VMs in rental order.
func (s *Sim) VMs() []*SimVM { return s.vms }

// Enqueue appends a query to the VM's processing queue at simulation time
// at, with the given true execution latency. The query cannot start before
// at: an idle VM picks it up at the enqueue instant, not retroactively at
// its last idle moment. Enqueue times must be non-decreasing per VM (the
// online engine's event times are monotonic).
func (vm *SimVM) Enqueue(tag, templateID int, at, latency time.Duration) {
	if latency <= 0 {
		panic(fmt.Sprintf("cloud: Enqueue with non-positive latency %s for tag %d", latency, tag))
	}
	if n := len(vm.queue); n > 0 && at < vm.queue[n-1].at {
		panic(fmt.Sprintf("cloud: Enqueue at %s after an enqueue at %s (tag %d)", at, vm.queue[n-1].at, tag))
	}
	if vm.failed {
		panic(fmt.Sprintf("cloud: Enqueue on failed VM (tag %d)", tag))
	}
	if vm.slow > 1 {
		latency = time.Duration(float64(latency) * vm.slow)
	}
	vm.queue = append(vm.queue, queued{tag: tag, templateID: templateID, at: at, latency: latency})
}

// materialize converts queued queries whose start time is strictly before t
// into runs. A query whose start time is exactly t has not started and
// remains revocable.
func (vm *SimVM) materialize(t time.Duration) {
	for len(vm.queue) > 0 {
		start := vm.ReadyAt
		if n := len(vm.runs); n > 0 && vm.runs[n-1].End > start {
			start = vm.runs[n-1].End
		}
		if at := vm.queue[0].at; at > start {
			// The VM idled until the query arrived; execution cannot be
			// backdated to before submission.
			start = at
		}
		if start >= t {
			return
		}
		q := vm.queue[0]
		// Pop by shifting down, not by advancing the slice header: an
		// advanced header abandons the front of the backing array, and the
		// next Enqueue would regrow it — one allocation per arrival in the
		// online steady state. Queues are short (the unstarted backlog).
		copy(vm.queue, vm.queue[1:])
		vm.queue = vm.queue[:len(vm.queue)-1]
		vm.runs = append(vm.runs, Run{Tag: q.tag, TemplateID: q.templateID, Start: start, End: start + q.latency})
	}
}

// BusyUntil returns the time at which the VM becomes free, given work
// started strictly before t plus any still-queued queries. A VM with an
// empty queue returns max(ReadyAt, last run end).
func (vm *SimVM) BusyUntil(t time.Duration) time.Duration {
	vm.materialize(t)
	busy := vm.ReadyAt
	if n := len(vm.runs); n > 0 && vm.runs[n-1].End > busy {
		busy = vm.runs[n-1].End
	}
	for _, q := range vm.queue {
		if q.at > busy {
			busy = q.at
		}
		busy += q.latency
	}
	return busy
}

// NextFree returns when the VM finishes the queries that have started
// strictly before t, ignoring revocable queued work.
func (vm *SimVM) NextFree(t time.Duration) time.Duration {
	vm.materialize(t)
	free := vm.ReadyAt
	if n := len(vm.runs); n > 0 && vm.runs[n-1].End > free {
		free = vm.runs[n-1].End
	}
	return free
}

// RevokeUnstartedInto removes the queries that have not started executing
// by time t and appends their tags to buf. Online scheduling calls this on
// each arrival to rebuild the batch of schedulable queries (§6.3); the
// caller-owned buffer keeps that sweep across every VM allocation-free in
// steady state. The VM's queue storage is retained for reuse.
func (vm *SimVM) RevokeUnstartedInto(t time.Duration, buf []int) []int {
	vm.materialize(t)
	for _, q := range vm.queue {
		buf = append(buf, q.tag)
	}
	vm.queue = vm.queue[:0]
	return buf
}

// Finish drains all remaining queued work and returns every run across all
// VMs, ordered by completion time.
func (s *Sim) Finish() []Run {
	var all []Run
	for _, vm := range s.vms {
		vm.materialize(1<<62 - 1)
		all = append(all, vm.runs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].End != all[j].End {
			return all[i].End < all[j].End
		}
		return all[i].Tag < all[j].Tag
	})
	return all
}

// ProvisioningCost returns the Eq. 1 cost of the simulation excluding
// penalties: each VM's start-up fee plus its processing fees (f_r × executed
// latency). Call after Finish (or at any point for the cost so far).
//
// Under a time-varying price schedule (SetPrices), each VM is charged per
// the schedule in effect across its whole lease: the start-up fee at the
// rent instant's multiplier, and every run's processing fee integrated
// against the multiplier path over the run's actual execution window — a
// lease spanning a price step pays each segment at that segment's price,
// never a rate snapshotted at rent time. Still-queued (unmaterialized) work
// is estimated at its enqueue instant's multiplier; call after Finish for
// exact accounting.
func (s *Sim) ProvisioningCost() float64 {
	total := 0.0
	for _, vm := range s.vms {
		if s.prices == nil {
			total += vm.Type.StartupCost
			for _, r := range vm.runs {
				total += vm.Type.RunningCost(r.End - r.Start)
			}
			for _, q := range vm.queue {
				total += vm.Type.RunningCost(q.latency)
			}
			continue
		}
		total += s.prices.StartupFee(vm.Type, vm.RentedAt)
		for _, r := range vm.runs {
			total += s.prices.RunCost(vm.Type, r.Start, r.End)
		}
		for _, q := range vm.queue {
			total += s.prices.At(q.at) * vm.Type.RunningCost(q.latency)
		}
	}
	return total
}
