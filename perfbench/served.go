package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paydemand/internal/client"
	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/server"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/workload"
)

// Request kinds of the served loop, indexing requestKinds.
const (
	kindRegister = iota
	kindPoll
	kindPollUnchanged
	kindPlan
	kindSubmit
	kindAdvance
	numKinds
)

// servedSpec sizes a served workload: back-to-back paper-default
// campaigns of workers and tasks, driven by conns client connections.
type servedSpec struct {
	workers int
	tasks   int
	pool    int // scenarios generated, cycled through by the campaigns
	warmup  int // untimed campaigns before timing starts
	conns   int
}

func servedSpecFor(smoke bool) servedSpec {
	s := servedSpec{workers: 100, tasks: 20, pool: 128, warmup: 2, conns: min(2, runtime.NumCPU())}
	if smoke {
		s.workers, s.tasks, s.pool, s.warmup = 10, 5, 2, 1
	}
	return s
}

// campaignKind says what a served campaign is run for.
type campaignKind int

const (
	warmupCampaign campaignKind = iota // untimed, before timing starts
	timedCampaign
	heapCampaign // untimed; measures the live heap at its end
)

func runServedTLV(opts options) (*outcome, error) { return runServed(opts, client.CodecTLV, "tlv") }

func runServedJSON(opts options) (*outcome, error) { return runServed(opts, client.CodecJSON, "json") }

// Paper defaults of a served worker and campaign.
const (
	workerSpeed      = sim.DefaultUserSpeed
	workerTimeBudget = sim.DefaultUserTimeBudget
	workerCost       = sim.DefaultCostPerMeter
	campaignBudget   = sim.DefaultBudget
)

// reqHeader carries "conn seq span kind" from a traced client request to
// the timing middleware.
const reqHeader = "X-Perfbench-Req"

// rig is the served workloads' fixture: a loopback listener serving the
// current campaign's platform, and one client per connection.
type rig struct {
	srv       *http.Server
	done      chan struct{}
	sw        *switchHandler
	conns     []*conn
	scenarios []workload.Scenario
	// planMu serializes each worker's plan and submit against the other
	// connections' pairs, so a planned task is never filled by another
	// worker before the upload; polls overlap freely.
	planMu sync.Mutex
}

// switchHandler serves the current campaign's platform, and in traced
// campaigns times each tagged request's handler.
type switchHandler struct {
	p       atomic.Pointer[server.Platform]
	tracing atomic.Bool
	tr      *tracer
	conns   []*conn
}

func (h *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := h.p.Load()
	if p == nil {
		http.Error(w, "no campaign", http.StatusServiceUnavailable)
		return
	}
	tag := r.Header.Get(reqHeader)
	if tag == "" || !h.tracing.Load() {
		p.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	p.ServeHTTP(w, r)
	end := h.tr.now()
	var c, kind int
	var seq int64
	var parent int32
	if _, err := fmt.Sscan(tag, &c, &seq, &parent, &kind); err != nil || c < 0 || c >= len(h.conns) {
		return
	}
	h.tr.record(spanHandler+kind, parent, start, end)
	h.conns[c].slot.put(seq, end-start)
}

// handlerSlot passes one request's handler time from the middleware to
// the connection's loop.
type handlerSlot struct {
	mu  sync.Mutex
	seq int64
	dur int64
}

func (s *handlerSlot) put(seq, dur int64) {
	s.mu.Lock()
	s.seq, s.dur = seq, dur
	s.mu.Unlock()
}

// wait returns the handler time of request seq, 0 if it does not arrive
// within a second (a request that failed before reaching the handler).
func (s *handlerSlot) wait(seq int64) int64 {
	deadline := time.Now().Add(time.Second)
	for {
		s.mu.Lock()
		got, dur := s.seq, s.dur
		s.mu.Unlock()
		if got == seq {
			return dur
		}
		if time.Now().After(deadline) {
			return 0
		}
		runtime.Gosched()
	}
}

// conn is one client connection and the state of the loop driving it.
type conn struct {
	idx   int
	cl    *client.Client
	tport *http.Transport
	slot  handlerSlot
	// tag is the request tag the tagging transport adds; only this
	// connection's loop goroutine sets it, before each call.
	tag string
	seq int64

	stats connStats
}

// connStats are one connection's counters and samples; the run reads
// them only after the connection's goroutine has finished its half.
type connStats struct {
	attempted, failed int64
	fullPolls, stale  int64
	accepted          int
	turns             []float64 // this campaign's turn times
	request           [numKinds]*reservoir
	handler           [numKinds]*reservoir
	overhead          [numKinds]*reservoir
	// In-round busy time of the traced campaigns: handler time and
	// request time minus handler time, and the codec operations done.
	roundHandler, roundClient time.Duration
	polls, plans, submits     int64
}

// taggingTransport adds the connection's request tag in traced
// campaigns.
type taggingTransport struct {
	base *http.Transport
	c    *conn
}

func (t *taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.c.tag == "" {
		return t.base.RoundTrip(r)
	}
	r2 := r.Clone(r.Context())
	r2.Header.Set(reqHeader, t.c.tag)
	return t.base.RoundTrip(r2)
}

// newRig starts the listener and the client connections and generates
// the campaign scenarios: the served workloads' set-up.
func newRig(opts options, spec servedSpec, codec client.Codec, tr *tracer) (*rig, error) {
	rng := stats.NewRNG(opts.seed)
	r := &rig{done: make(chan struct{})}
	for i := 0; i < spec.pool; i++ {
		sc, err := workload.Generate(stats.NewRNG(rng.Int63()),
			workload.Config{NumUsers: spec.workers, NumTasks: spec.tasks})
		if err != nil {
			return nil, err
		}
		r.scenarios = append(r.scenarios, sc)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	var clients []*http.Client
	for i := 0; i < spec.conns; i++ {
		c := &conn{idx: i}
		c.tport = &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		}
		httpc := &http.Client{Timeout: 10 * time.Second, Transport: &taggingTransport{base: c.tport, c: c}}
		c.cl = client.New(base, httpc, client.WithCodec(codec))
		r.conns = append(r.conns, c)
		clients = append(clients, httpc)
	}
	r.sw = &switchHandler{tr: tr, conns: r.conns}
	r.srv = &http.Server{Handler: r.sw, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	// Dial every connection now, so set-up covers connection
	// establishment.
	for _, httpc := range clients {
		resp, err := httpc.Get(base + wire.PathHealth)
		if err != nil {
			r.close()
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return r, nil
}

// close stops the server, waits for it to exit and drops the idle
// connections.
func (r *rig) close() {
	_ = r.srv.Close()
	<-r.done
	for _, c := range r.conns {
		c.tport.CloseIdleConnections()
	}
}

// servedWorker is one fleet member: its platform ID, location and the
// round message it polls into, recycled across its polls.
type servedWorker struct {
	id  int
	loc geo.Point
	msg wire.RoundInfo
}

// servedRun carries a served workload's run state.
type servedRun struct {
	opts  options
	spec  servedSpec
	rig   *rig
	tr    *tracer
	out   *outcome
	quiet *slog.Logger
	// staleKnown is set for the JSON codec, whose full polls read the
	// stale Unchanged=true of the known client.RoundInto defect.
	staleKnown bool
	// Per timed campaign: round and turn percentiles (see blockQuantiles).
	roundQ, turnQ *blockQuantiles
	// Per timed campaign: campaigns and rounds per second of its wall
	// time, construction and registration included.
	campaignRates, roundRates []float64
	roundCount                int
	// heap samples the collections of the timed campaigns; heapProbe is
	// the live heap at the end of a heap campaign.
	heap      *heapSampler
	heapProbe float64
	// Traced accounting: in-round wall time of the traced and untraced
	// campaigns, and the mechanism time spent inside rounds.
	tracedRoundDur, plainRoundDur time.Duration
	tracedRounds, plainRounds     int
	roundRewards                  time.Duration
	capture                       campaignCapture
}

// op counts one request: a transport or HTTP error, or a failed output
// check (ok false), fails it.
func (c *conn) op(err error, ok bool, log io.Writer, what string) bool {
	c.stats.attempted++
	if err != nil || !ok {
		c.stats.failed++
		if err != nil && c.stats.failed <= 5 {
			fmt.Fprintf(log, "conn %d: %s: %v\n", c.idx, what, err)
		}
		return false
	}
	return true
}

// call issues one request through fn, timing it from the client side and,
// in traced campaigns, tagging it for the middleware and recording its
// span and handler time.
func (s *servedRun) call(c *conn, kind int, parent int32, inRound bool, fn func() error) error {
	traced := s.tr != nil && s.rig.sw.tracing.Load()
	var start int64
	var id int32 = -1
	if traced {
		start = s.tr.now()
		id = s.tr.open(spanRequest+kind, parent, start)
		c.seq++
		c.tag = strconv.Itoa(c.idx) + " " + strconv.FormatInt(c.seq, 10) + " " +
			strconv.Itoa(int(id)) + " " + strconv.Itoa(kind)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if s.tr != nil && !traced {
		// The untraced half of a traced run only times rounds.
		return err
	}
	c.stats.request[kind].add(ms(d))
	if !traced {
		return err
	}
	c.tag = ""
	s.tr.close(id, s.tr.now())
	h := time.Duration(c.slot.wait(c.seq))
	c.stats.handler[kind].add(ms(h))
	c.stats.overhead[kind].add(ms(d - h))
	if inRound {
		c.stats.roundHandler += h
		c.stats.roundClient += d - h
		switch kind {
		case kindPoll:
			c.stats.polls++
		case kindPlan:
			c.stats.plans++
		case kindSubmit:
			c.stats.submits++
		}
	}
	return err
}

// turn runs one worker's round: full poll, plan, submit when the plan is
// non-empty, and a short-circuit poll, checking every response.
func (s *servedRun) turn(c *conn, w *servedWorker, round int, parent int32, capture bool) {
	ctx := context.Background()
	log := s.opts.log
	turnStart := time.Now()
	var turnSpan int32 = -1
	if s.tr != nil && s.rig.sw.tracing.Load() {
		turnSpan = s.tr.open(spanTurn, parent, s.tr.now())
		defer func() { s.tr.close(turnSpan, s.tr.now()) }()
	}

	// 1. Full poll into the worker's recycled message, naming the previous
	// round as known: the platform must answer with the full round.
	// With the JSON codec, a full poll reads a stale Unchanged=true: the
	// known client.RoundInto defect (see README.md). It is counted and
	// reported as stale, not failed; on TLV it fails the poll.
	err := s.call(c, kindPoll, turnSpan, true, func() error { return c.cl.RoundInto(ctx, round-1, &w.msg) })
	c.stats.fullPolls++
	stale := err == nil && w.msg.Unchanged
	if stale {
		c.stats.stale++
	}
	if !c.op(err, w.msg.Round == round && (!stale || s.staleKnown) && !w.msg.Done, log, "full poll") && err != nil {
		return
	}
	if capture && s.capture.round == nil {
		m := w.msg
		m.Tasks = append([]wire.TaskInfo(nil), w.msg.Tasks...)
		s.capture.round = &m
	}

	// 2-3. Plan, and upload the plan's measurements. The wait for the
	// benchmark's own lock is not part of the worker's turn.
	lockStart := time.Now()
	s.rig.planMu.Lock()
	lockWait := time.Since(lockStart)
	var plan wire.PlanResponse
	err = s.call(c, kindPlan, turnSpan, true, func() error {
		var err error
		plan, err = c.cl.Plan(ctx, wire.PlanRequest{
			UserID: w.id, Location: w.loc, Speed: workerSpeed,
			TimeBudget: workerTimeBudget, CostPerMeter: workerCost,
		})
		return err
	})
	end, published := planEnd(plan.Order, w.msg.Tasks)
	if !c.op(err, plan.Round == round && published, log, "plan") {
		s.rig.planMu.Unlock()
		return
	}
	if len(plan.Order) > 0 {
		req := wire.SubmitRequest{UserID: w.id, Round: round, Location: end}
		for _, id := range plan.Order {
			req.Measurements = append(req.Measurements, wire.Measurement{TaskID: id, Value: reading(id)})
		}
		var resp wire.SubmitResponse
		err = s.call(c, kindSubmit, turnSpan, true, func() error {
			var err error
			resp, err = c.cl.Submit(ctx, req)
			return err
		})
		accepted := 0
		for _, r := range resp.Results {
			if r.Accepted {
				accepted++
			}
		}
		c.stats.accepted += accepted
		if c.op(err, len(resp.Results) == len(req.Measurements) && accepted == len(req.Measurements), log, "submit") {
			w.loc = end
		}
		if capture && s.capture.plan == nil {
			p := plan
			s.capture.plan, s.capture.submit = &p, &req
		}
	}
	s.rig.planMu.Unlock()

	// 4. Short-circuit poll: the round is known and still current.
	err = s.call(c, kindPollUnchanged, turnSpan, true, func() error { return c.cl.RoundInto(ctx, round, &w.msg) })
	c.op(err, w.msg.Round == round && w.msg.Unchanged, log, "short poll")
	c.stats.turns = append(c.stats.turns, ms(time.Since(turnStart)-lockWait))
}

// planEnd checks that every planned task was published in the polled
// round and returns the location of the last one.
func planEnd(order []task.ID, published []wire.TaskInfo) (geo.Point, bool) {
	var end geo.Point
	for _, id := range order {
		found := false
		for _, t := range published {
			if t.ID == id {
				end, found = t.Location, true
				break
			}
		}
		if !found {
			return end, false
		}
	}
	return end, true
}

// campaign serves one paper-default campaign from construction to done:
// a fresh platform, the fleet registered over both connections, then
// rounds of worker turns and an advance, and a final status check.
func (s *servedRun) campaign(n int, kind campaignKind, traced bool) error {
	ctx := context.Background()
	sc := s.rig.scenarios[n%len(s.rig.scenarios)]
	s.rig.sw.tracing.Store(traced)
	timed := kind == timedCampaign
	start := time.Now()

	totalRequired := 0
	for _, t := range sc.Tasks {
		totalRequired += t.Required
	}
	mech, err := buildMechanism(sim.MechanismOnDemand, campaignBudget, totalRequired, sim.Config{})
	if err != nil {
		return err
	}
	cfg := server.Config{
		Tasks: sc.Tasks, Mechanism: mech, Area: sc.Area,
		NeighborRadius: sim.DefaultNeighborRadius, Logger: s.quiet,
	}
	if traced {
		cfg.Mechanism = &timedMechanism{Mechanism: mech, tr: s.tr}
		cfg.Planner = func() selection.Algorithm { return &timedAlgorithm{inner: &selection.Auto{}, tr: s.tr} }
	}
	p, err := server.New(cfg)
	if err != nil {
		return err
	}
	s.rig.sw.p.Store(p)

	// Each connection registers and drives its share of the fleet.
	fleet := make([][]*servedWorker, len(s.rig.conns))
	s.parallel(func(c *conn) {
		lo := c.idx * len(sc.UserLocations) / len(s.rig.conns)
		hi := (c.idx + 1) * len(sc.UserLocations) / len(s.rig.conns)
		for _, loc := range sc.UserLocations[lo:hi] {
			var id int
			err := s.call(c, kindRegister, -1, false, func() error {
				var err error
				id, err = c.cl.Register(ctx, loc)
				return err
			})
			if c.op(err, id > 0, s.opts.log, "register") {
				fleet[c.idx] = append(fleet[c.idx], &servedWorker{id: id, loc: loc})
			}
		}
	})
	if err := p.Reprice(); err != nil {
		return err
	}

	rounds := 0
	for round := 1; ; round++ {
		var rewards0 time.Duration
		var roundSpan int32 = -1
		if traced {
			s.tr.mu.Lock()
			rewards0 = s.tr.lay.rewardsDur
			s.tr.mu.Unlock()
			roundSpan = s.tr.open(spanRound, -1, s.tr.now())
		}
		roundStart := time.Now()
		s.parallel(func(c *conn) {
			for _, w := range fleet[c.idx] {
				s.turn(c, w, round, roundSpan, c.idx == 0)
			}
		})
		c0 := s.rig.conns[0]
		var adv wire.AdvanceResponse
		err := s.call(c0, kindAdvance, roundSpan, true, func() error {
			var err error
			adv, err = c0.cl.Advance(ctx)
			return err
		})
		c0.op(err, adv.Round == round+1, s.opts.log, "advance")
		d := time.Since(roundStart)
		rounds++
		if traced {
			s.tr.close(roundSpan, s.tr.now())
			s.tr.mu.Lock()
			s.roundRewards += s.tr.lay.rewardsDur - rewards0
			s.tr.mu.Unlock()
		}
		if timed {
			s.roundQ.add(ms(d))
			s.heap.sample()
		}
		if s.tr != nil && timed {
			if traced {
				s.tracedRoundDur += d
				s.tracedRounds++
			} else {
				s.plainRoundDur += d
				s.plainRounds++
			}
		}
		if err != nil || adv.Done || round > 1000 {
			break
		}
	}

	status, err := s.rig.conns[0].cl.Status(ctx)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	accepted := 0
	for _, c := range s.rig.conns {
		accepted += c.stats.accepted
		c.stats.accepted = 0
	}
	if !status.Done || status.TotalMeasurements != accepted || status.TotalRewardPaid > campaignBudget {
		s.out.correct = false
		fmt.Fprintf(s.opts.log, "campaign %d: status done=%v measurements=%d (accepted %d) paid=%v\n",
			n, status.Done, status.TotalMeasurements, accepted, status.TotalRewardPaid)
	}
	wall := time.Since(start).Seconds()
	if kind == heapCampaign {
		// The platform is still referenced, with its solvers' grow-only
		// scratch at its largest.
		s.heapProbe = liveHeapMB()
	}
	// Only one campaign's platform is ever live.
	s.rig.sw.p.Store(nil)
	for _, c := range s.rig.conns {
		if timed {
			for _, v := range c.stats.turns {
				s.turnQ.add(v)
			}
		}
		c.stats.turns = c.stats.turns[:0]
	}
	if timed {
		s.roundQ.endBlock()
		s.turnQ.endBlock()
		s.campaignRates = append(s.campaignRates, 1/wall)
		s.roundRates = append(s.roundRates, float64(rounds)/wall)
		s.roundCount += rounds
	}
	return nil
}

// parallel runs fn once per connection, the first on the calling
// goroutine, and returns when all have finished.
func (s *servedRun) parallel(fn func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range s.rig.conns[1:] {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	fn(s.rig.conns[0])
	wg.Wait()
}

// runServed runs a served workload: back-to-back campaigns for the
// measured time, then the end-to-end or per-layer metrics.
func runServed(opts options, codec client.Codec, codecName string) (*outcome, error) {
	// Client and server share one P. With a P per CPU, every request hands
	// off between CPUs, and on a virtual machine those wake-ups swung the
	// figures by 25-40% with the host's load; on one P they stay within
	// about 10%. The two connections still interleave.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := servedSpecFor(opts.smoke)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	setup := &setupTimer{smoke: opts.smoke}
	build := func() (*rig, error) { return newRig(opts, spec, codec, tr) }
	closeRig := func(r *rig) { r.close() }
	rig, err := timeSetup(setup, build, closeRig)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	// Request times are sampled for the diagnostics of every run; handler
	// and client-overhead times only in traced runs.
	for i, c := range rig.conns {
		seed := opts.seed + int64(i)
		for k := range c.stats.request {
			c.stats.request[k] = newReservoir(reservoirSize, seed+int64(k))
			if opts.trace {
				c.stats.handler[k] = newReservoir(reservoirSize, seed+int64(k))
				c.stats.overhead[k] = newReservoir(reservoirSize, seed+int64(k))
			}
		}
	}
	s := &servedRun{
		opts: opts, spec: spec, rig: rig, tr: tr, staleKnown: codec == client.CodecJSON,
		out:    &outcome{correct: true, gomaxprocs: runtime.GOMAXPROCS(0)},
		quiet:  slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})),
		roundQ: newBlockQuantiles(0.5, 0.9),
		turnQ:  newBlockQuantiles(0.5, 0.95, 0.99),
	}
	n := 0
	for ; n < spec.warmup; n++ {
		if err := s.campaign(n, warmupCampaign, opts.trace); err != nil {
			return nil, err
		}
	}
	// Layer totals and samples restart after the warm-up.
	if tr != nil {
		tr.mu.Lock()
		tr.lay = layers{}
		tr.mu.Unlock()
	}
	s.roundRewards = 0
	for _, c := range rig.conns {
		c.stats.roundHandler, c.stats.roundClient = 0, 0
		c.stats.polls, c.stats.plans, c.stats.submits = 0, 0, 0
		for k := range c.stats.request {
			c.stats.request[k].reset()
			if opts.trace {
				c.stats.handler[k].reset()
				c.stats.overhead[k].reset()
			}
		}
	}
	s.heap = newHeapSampler()
	deadline := time.Now().Add(opts.duration)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		// A traced run alternates traced and untraced campaigns on the same
		// scenario; their round times give the tracing overhead.
		traced := opts.trace && i%2 == 0
		scenario := n
		if opts.trace {
			scenario = spec.warmup + i/2
		}
		if err := s.campaign(scenario, timedCampaign, traced); err != nil {
			return nil, err
		}
		n++
	}
	polls := s.count()
	fmt.Fprintf(opts.log, "%s: %d timed campaigns, %d rounds; %d of %d full polls returned a stale Unchanged=true\n",
		opts.workload, len(s.campaignRates), s.roundCount, s.out.stale, polls)
	for _, k := range []int{kindPoll, kindPollUnchanged, kindPlan, kindSubmit, kindAdvance} {
		q := s.merged(func(c *conn) *reservoir { return c.stats.request[k] }).quantiles(0.5, 0.95, 0.99)
		fmt.Fprintf(opts.log, "  %-15s p50 %.4f ms  p95 %.4f ms  p99 %.4f ms (diagnostic)\n", requestKinds[k], q[0], q[1], q[2])
	}
	if opts.trace {
		return s.out, s.layerMetrics(codecName, polls)
	}
	// Memory: the mean live heap the collections of the timed campaigns
	// found (see runCampaign), less the benchmark's own share (its
	// scenarios, samples and connections, with no platform in place). If
	// no collection ran (a smoke run), an untimed campaign forces one at
	// its end instead.
	base := liveHeapMB()
	heaps := s.heap.mb
	// The second set-up window (see setupTimer).
	last, err := timeSetup(setup, build, closeRig)
	if err != nil {
		return nil, err
	}
	last.close()
	if len(heaps) == 0 {
		if err := s.campaign(0, heapCampaign, false); err != nil {
			return nil, err
		}
		heaps = []float64{s.heapProbe}
		s.count()
	}

	logHeap(opts, heaps, base)
	cq := quantiles(s.campaignRates, 0.25, 0.5, 0.75)
	fmt.Fprintf(opts.log, "%s: campaign rates p25 %.4g p50 %.4g p75 %.4g campaigns/s\n", opts.workload, cq[0], cq[1], cq[2])
	q := s.roundQ.medians()
	tq := s.turnQ.medians()
	fmt.Fprintf(opts.log, "%s: median per-campaign p99 of turns %.4f ms (diagnostic)\n", opts.workload, tq[2])
	s.out.metrics = map[string]float64{
		"setup_s":      setup.seconds(),
		"live_heap_mb": mean(heaps) - base,
		"trials_per_s": median(s.campaignRates),
		"rounds_per_s": median(s.roundRates),
		"round_ms_p50": q[0],
		"round_ms_p90": q[1],
		"turn_ms_p50":  tq[0],
		"turn_ms_p95":  tq[1],
	}
	return s.out, nil
}

// count totals the connections' attempted, failed and stale operations
// into the outcome and returns the number of full polls.
func (s *servedRun) count() (fullPolls int64) {
	s.out.attempted, s.out.failed, s.out.stale = 0, 0, 0
	for _, c := range s.rig.conns {
		s.out.attempted += c.stats.attempted
		s.out.failed += c.stats.failed
		s.out.stale += c.stats.stale
		fullPolls += c.stats.fullPolls
	}
	return fullPolls
}

// merged concatenates one reservoir of every connection.
func (s *servedRun) merged(pick func(c *conn) *reservoir) *reservoir {
	r := &reservoir{}
	for _, c := range s.rig.conns {
		r.samples = append(r.samples, pick(c).samples...)
	}
	return r
}

// layerMetrics computes the per-layer metrics of a traced served run and
// writes its span log.
func (s *servedRun) layerMetrics(codec string, fullPolls int64) error {
	m := zeroLayerMetrics()
	s.tr.mu.Lock()
	l := s.tr.lay
	s.tr.mu.Unlock()
	l.selectionMetrics(m, float64(s.tracedRounds))
	m["incentive.rewards_ms"] = perCallMS(l.rewardsDur, l.rewardsCalls)
	for k, name := range requestKinds {
		m["server.handler_ms_p50."+name] = s.merged(func(c *conn) *reservoir { return c.stats.handler[k] }).quantiles(0.5)[0]
		m["client.overhead_ms_p50."+name] = s.merged(func(c *conn) *reservoir { return c.stats.overhead[k] }).quantiles(0.5)[0]
	}
	for _, k := range []int{kindPoll, kindPlan, kindSubmit} {
		q := s.merged(func(c *conn) *reservoir { return c.stats.request[k] }).quantiles(0.5, 0.95)
		m["client.request_ms_p50."+requestKinds[k]] = q[0]
		m["client.request_ms_p95."+requestKinds[k]] = q[1]
	}
	m["client.stale_poll_frac"] = ratio(float64(s.out.stale), float64(fullPolls))
	costs, err := measureWire(m, s.capture.round, s.capture.plan, s.capture.submit)
	if err != nil {
		return err
	}
	// Shares of the traced rounds' connection time (wall time times
	// connections): codec work is estimated from the captured messages'
	// measured cost times the operations done, and taken out of the side
	// that does it.
	var handler, clientSide time.Duration
	var polls, plans, submits int64
	for _, c := range s.rig.conns {
		handler += c.stats.roundHandler
		clientSide += c.stats.roundClient
		polls += c.stats.polls
		plans += c.stats.plans
		submits += c.stats.submits
	}
	cc := costs[codec]
	wireServer := time.Duration(polls)*cc["round_info"].encode +
		time.Duration(plans)*cc["plan_response"].encode + time.Duration(submits)*cc["submit_request"].decode
	wireClient := time.Duration(polls)*cc["round_info"].decode +
		time.Duration(plans)*cc["plan_response"].decode + time.Duration(submits)*cc["submit_request"].encode
	total := float64(s.tracedRoundDur) * float64(len(s.rig.conns))
	sel := l.selectTotal()
	m["selection.share"] = ratio(float64(sel), total)
	m["incentive.share"] = ratio(float64(s.roundRewards), total)
	m["server.share"] = ratio(float64(handler-sel-s.roundRewards-wireServer), total)
	m["client.share"] = ratio(float64(clientSide-wireClient), total)
	m["wire.share"] = ratio(float64(wireServer+wireClient), total)
	m["trace_overhead_frac"] = ratio(ms(s.tracedRoundDur)*float64(s.plainRounds), ms(s.plainRoundDur)*float64(s.tracedRounds)) - 1
	s.out.metrics = m
	return s.tr.write(s.opts.traceDir, fmt.Sprintf("%s-seed%d.json", s.opts.workload, s.opts.seed), provenance(s.opts, s.out.gomaxprocs))
}
