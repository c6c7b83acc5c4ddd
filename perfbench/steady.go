package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/schedule"
	"wisedb/internal/server"
	"wisedb/internal/sla"
	"wisedb/internal/wire"
	"wisedb/internal/workload"
)

// serve-steady drives the `wisedb serve` daemon path at its CLI defaults:
// an in-process server on loopback, one connection at a time, each a
// tenant stream pipelined through a window like `wisedb load`. Virtual
// gaps (7 min) exceed every query's latency, so each arrival takes the
// fresh-batch path; templates cycle round-robin, so the drift detector
// observes every arrival and never fires. The same arrivals are then
// replayed through Stream.Submit with no wire.
const (
	steadyTemplates = 10
	steadyVMTypes   = 2
	steadyGap       = 7 * time.Minute
	steadyWindow    = 64
	steadyDrift     = 48
	// steadyStream is each tenant's arrival count. Tenants come in cycles
	// of steadyTemplates, tenant j starting the round-robin at offset
	// j mod steadyTemplates, and a pass always ends on a cycle boundary,
	// so the cost per query does not depend on how many cycles fit.
	steadyStream = 2000
	// steadyWireShare is the part of the measured seconds given to the
	// wire phase; the in-process replay of the same arrivals, roughly
	// twice as fast, takes most of the rest.
	steadyWireShare = 0.6
	// steadySetupReps replaces setupReps here: one set-up trains the
	// N=500 base model, about 1.4 s on a 2-vCPU box.
	steadySetupReps = 3
	// traceEvery samples one arrival in traceEvery for per-call spans,
	// which keeps a traced run's spans within maxSpans.
	traceEvery = 64
)

// steadySetup is one set-up: base model, engine and a started server.
type steadySetup struct {
	base   *core.Model
	engine *core.OnlineScheduler
	srv    *server.Server
	order  []int // the seed's round-robin template order
}

func newSteadySetup(cfg config) (*steadySetup, error) {
	env := schedule.NewEnv(workload.DefaultTemplates(steadyTemplates), cloud.DefaultVMTypes(steadyVMTypes))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	tc := core.DefaultTrainConfig() // Seed 1, the CLI default
	tc.Parallelism = runtime.NumCPU()
	if cfg.short {
		tc.NumSamples, tc.SampleSize = 40, 6
	}
	adv, err := core.NewAdvisor(env, tc)
	if err != nil {
		return nil, err
	}
	base, err := adv.Train(goal)
	if err != nil {
		return nil, fmt.Errorf("train base model: %w", err)
	}
	opts := core.DefaultOnlineOptions()
	opts.Drift = core.DriftOptions{Window: steadyDrift}
	engine := core.NewOnlineScheduler(base, opts)
	srv, err := server.New(server.Config{Engine: engine, Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(steadyTemplates)
	return &steadySetup{base: base, engine: engine, srv: srv, order: order}, nil
}

func (s *steadySetup) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// template returns the template of tenant j's i-th arrival.
func (s *steadySetup) template(j, i int) int { return s.order[(i+j)%steadyTemplates] }

func runSteady(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	reps := steadySetupReps
	if cfg.short {
		reps = 1
	}
	newSetup := func() (*steadySetup, error) { return newSteadySetup(cfg) }
	var setup *steadySetup
	var setupTimes []float64
	for r := 0; r < reps; r++ {
		if setup != nil {
			if err := setup.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if setup, err = timeSetup(&setupTimes, newSetup); err != nil {
			return nil, err
		}
	}
	settle()
	heap := startHeapWatch()

	wireBudget := time.Duration(cfg.seconds * steadyWireShare * float64(time.Second))
	streamLen := steadyStream
	if cfg.short {
		streamLen = 200
	}
	costs := make([]float64, steadyTemplates) // per rotation, from the first cycle
	// Rates and ack percentiles are taken per cycle of tenants, and the
	// run reports their medians: a burst of interference moves a cycle or
	// two, not the result.
	acks := make([]time.Duration, 0, steadyTemplates*streamLen)
	var cycleRates, cycleP50, cycleP99 []float64
	tenants := 0
	wireStart := time.Now()
	cycleStart := wireStart
	for {
		if tenants%steadyTemplates == 0 && tenants > 0 {
			now := time.Now()
			cycleRates = append(cycleRates, float64(steadyTemplates*streamLen)/now.Sub(cycleStart).Seconds())
			cycleP50 = append(cycleP50, durQuantile(acks, 0.5, time.Microsecond))
			cycleP99 = append(cycleP99, durQuantile(acks, 0.99, time.Millisecond))
			acks = acks[:0]
			cycleStart = time.Now()
			if now.Sub(wireStart) >= wireBudget {
				break
			}
		}
		res, err := driveTenant(setup, tenants, streamLen, &acks, tr)
		if err != nil {
			return nil, err
		}
		rot := tenants % steadyTemplates
		if tenants < steadyTemplates {
			costs[rot] = res.Cost
		}
		rep.check(res.Completed == uint32(streamLen) && res.Shed == 0,
			"tenant %d: server completed %d and shed %d of %d", tenants, res.Completed, res.Shed, streamLen)
		rep.check(res.Cost == costs[rot], "tenant %d: cost %v differs from its rotation's first %v", tenants, res.Cost, costs[rot])
		tenants++
	}
	wireTime := time.Since(wireStart)
	heap.mark()
	arrivals := tenants * streamLen
	st := setup.srv.Stats()
	rep.check(st.Admitted == int64(arrivals) && st.Completed == int64(arrivals) && st.Shed == 0,
		"server admitted %d, completed %d, shed %d of %d arrivals", st.Admitted, st.Completed, st.Shed, arrivals)

	// In-process replay of the same arrivals: the engine without the wire.
	replayStart := time.Now()
	vms, triggers := 0, 0
	clock := &core.SimClock{}
	batch := make([]workload.Query, 1)
	seen := make([]bool, streamLen)
	ctx := context.Background()
	for j := 0; j < tenants; j++ {
		root := tr.begin("core.stream", -1, int64(j))
		*clock = core.SimClock{}
		stream := setup.engine.NewStream(clock)
		stream.Reserve(streamLen)
		for i := 0; i < streamLen; i++ {
			clock.Advance(time.Duration(i) * steadyGap)
			batch[0] = workload.Query{TemplateID: setup.template(j, i), Tag: i}
			h := int32(-1)
			if i%traceEvery == 0 {
				h = tr.begin("core.submit", root, int64(i))
			}
			if err := stream.Submit(ctx, batch...); err != nil {
				return nil, fmt.Errorf("replay tenant %d arrival %d: %w", j, i, err)
			}
			tr.end(h)
		}
		if j == tenants-1 {
			heap.mark()
		}
		h := tr.begin("core.finish", root, int64(j))
		res := stream.Finish()
		tr.end(h)
		tr.end(root)
		clear(seen)
		for _, o := range res.Outcomes {
			rep.check(o.Tag >= 0 && o.Tag < streamLen && !seen[o.Tag], "replay tenant %d: tag %d completed twice or out of range", j, o.Tag)
			if o.Tag >= 0 && o.Tag < streamLen {
				seen[o.Tag] = true
			}
		}
		rep.check(len(res.Outcomes) == streamLen, "replay tenant %d: %d of %d completed", j, len(res.Outcomes), streamLen)
		rep.check(res.Cost == costs[j%steadyTemplates], "replay tenant %d: in-process cost %v, wire cost %v", j, res.Cost, costs[j%steadyTemplates])
		vms += res.VMsRented
		triggers += res.DriftTriggers
		stream.Close()
	}
	replayTime := time.Since(replayStart)
	finishHeap(rep, heap, slices.Max[[]float64])
	rep.check(triggers == 0, "drift detector fired %d times on a round-robin mix", triggers)

	wireRate := float64(arrivals) / wireTime.Seconds()
	engineRate := float64(arrivals) / replayTime.Seconds()
	var total float64
	for _, c := range costs {
		total += c
	}
	rep.setE2E("throughput_per_s", median(cycleRates), "1/s")
	rep.samples["throughput_per_s"] = len(cycleRates)
	rep.setE2E("latency_ms", median(cycleP99), "ms")
	rep.samples["latency_ms"] = len(cycleP99)
	rep.setE2E("cost_cents_per_query", total/float64(steadyTemplates*streamLen), "cents")
	rep.setE2E("success_ratio", float64(st.Completed)/float64(arrivals), "ratio")
	rep.attempted = arrivals
	rep.failed = arrivals - int(st.Completed)

	rep.setLayer("core.engine_arrivals_per_s", engineRate, "1/s")
	rep.setLayer("wire.arrivals_per_s", wireRate, "1/s")
	rep.setLayer("wire.ack_p50_us", median(cycleP50), "us")
	rep.samples["wire.ack_p50_us"] = len(cycleP50)
	rep.setLayer("wire.tax_ns_per_arrival", 1e9/wireRate-1e9/engineRate, "ns")
	rep.setLayer("core.drift_triggers", float64(triggers), "count")
	rep.setLayer("cloud.vms_rented", float64(vms)/float64(tenants), "count")
	rep.setLayer("server.frames", float64(st.Frames), "count")
	rep.setLayer("server.admitted", float64(st.Admitted), "count")
	rep.setLayer("server.shed", float64(st.Shed), "count")

	for rot, c := range costs {
		rep.fingerprint[fmt.Sprintf("steady.cost%d", rot)] = fmt.Sprintf("%.9g", c)
	}
	rep.fingerprint["steady.drift_triggers"] = fmt.Sprint(triggers)

	if tr != nil {
		steadyLayers(rep, setup, streamLen, tr)
	}
	if err := setup.close(); err != nil {
		return nil, err
	}
	for r := 0; r < reps; r++ {
		s, err := timeSetup(&setupTimes, newSetup)
		if err != nil {
			return nil, err
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	reportSetup(rep, setupTimes)
	return rep, nil
}

// driveTenant runs one tenant over the wire: dial, a pipelined window of
// Submit frames (Send-to-Ack times appended to acks), then Finish.
func driveTenant(s *steadySetup, j, n int, acks *[]time.Duration, tr *tracer) (server.Result, error) {
	root := tr.begin("steady.tenant", -1, int64(j))
	defer tr.end(root)
	h := tr.begin("server.dial", root, int64(j))
	c, err := server.Dial(s.srv.Addr().String(), server.Options{
		Clock:  wire.ClockVirtual,
		Tenant: fmt.Sprintf("steady-%06d", j),
		Retry:  core.DefaultRetryPolicy(),
		Seed:   uint64(j),
	})
	tr.end(h)
	if err != nil {
		return server.Result{}, err
	}
	defer c.Close()
	// sent is a FIFO ring of in-flight Send instants: acks come back in
	// submit order over the one connection.
	sent := make([]time.Time, steadyWindow+1)
	head, tail, acked := 0, 0, 0
	readAck := func() error {
		h := int32(-1)
		if acked%traceEvery == 0 {
			h = tr.begin("wire.read_ack", root, int64(acked))
		}
		_, _, _, err := c.ReadAck()
		tr.end(h)
		if err != nil {
			return err
		}
		*acks = append(*acks, time.Since(sent[head]))
		head = (head + 1) % len(sent)
		acked++
		return nil
	}
	q := make([]wire.Query, 1)
	for i := 0; i < n; i++ {
		q[0] = wire.Query{Template: uint32(s.template(j, i)), Tag: uint32(i)}
		sent[tail] = time.Now()
		tail = (tail + 1) % len(sent)
		h := int32(-1)
		if i%traceEvery == 0 {
			h = tr.begin("wire.send", root, int64(i))
		}
		err := c.Send(q, time.Duration(i)*steadyGap, 0)
		tr.end(h)
		if err != nil {
			return server.Result{}, err
		}
		if c.Pending() >= steadyWindow {
			h := tr.begin("wire.flush", root, int64(i))
			err := c.Flush()
			tr.end(h)
			if err != nil {
				return server.Result{}, err
			}
			for c.Pending() > steadyWindow/2 {
				if err := readAck(); err != nil {
					return server.Result{}, err
				}
			}
		}
	}
	if err := c.Flush(); err != nil {
		return server.Result{}, err
	}
	for c.Pending() > 0 {
		if err := readAck(); err != nil {
			return server.Result{}, err
		}
	}
	h = tr.begin("server.finish", root, int64(j))
	res, err := c.Finish()
	tr.end(h)
	return res, err
}

// steadyLayers times the layers the traced pass calls directly: the wire
// codec on the run's own frames and a 1-query ScheduleBatch; and reads
// the per-call spans of the replay.
func steadyLayers(rep *report, s *steadySetup, n int, tr *tracer) {
	const rounds = 50
	frames := make([][]byte, n)
	var buf []byte
	q := make([]wire.Query, 1)
	h := tr.begin("wire.encode", -1, int64(rounds*n))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			q[0] = wire.Query{Template: uint32(s.template(r, i)), Tag: uint32(i)}
			buf, _ = wire.AppendSubmit(buf[:0], uint32(i+1), (time.Duration(i) * steadyGap).Microseconds(), 0, q)
			if r == 0 {
				frames[i] = append([]byte(nil), buf...)
			}
		}
	}
	encode := time.Since(start)
	tr.end(h)
	var f wire.Frame
	decodeErrs := 0
	h = tr.begin("wire.decode", -1, int64(rounds*n))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, fr := range frames {
			if wire.Decode(fr[4:], &f) != nil {
				decodeErrs++
			}
		}
	}
	decode := time.Since(start)
	tr.end(h)
	rep.check(decodeErrs == 0, "wire: %d of the run's own frames failed to decode", decodeErrs)
	ack := wire.AppendAck(nil, 1, 1, 0, false)
	rep.setLayer("wire.encode_ns", float64(encode.Nanoseconds())/float64(rounds*n), "ns")
	rep.setLayer("wire.decode_ns", float64(decode.Nanoseconds())/float64(rounds*n), "ns")
	rep.setLayer("wire.bytes_per_arrival", float64(len(frames[0])+len(ack)), "bytes")

	const batches = 20000
	w := &workload.Workload{Templates: s.base.Env().Templates, Queries: make([]workload.Query, 1)}
	h = tr.begin("core.schedule_batch", -1, batches)
	start = time.Now()
	for i := 0; i < batches; i++ {
		w.Queries[0] = workload.Query{TemplateID: s.order[i%steadyTemplates]}
		if _, err := s.base.ScheduleBatch(w); err != nil {
			rep.check(false, "ScheduleBatch: %v", err)
			break
		}
	}
	rep.setLayer("core.schedule_batch_ns", float64(time.Since(start).Nanoseconds())/batches, "ns")
	tr.end(h)

	submits := tr.durations("core.submit")
	rep.setLayer("core.submit_ns", durQuantile(submits, 0.5, time.Nanosecond), "ns")
	rep.samples["core.submit_ns"] = len(submits)
	finishes := tr.durations("core.finish")
	rep.setLayer("core.finish_ns_per_query", durQuantile(finishes, 0.5, time.Nanosecond)/float64(n), "ns")
	rep.samples["core.finish_ns_per_query"] = len(finishes)
}
