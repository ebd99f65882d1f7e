package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"paydemand/internal/agent"
	"paydemand/internal/demand"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/mobility"
	"paydemand/internal/selection"
	"paydemand/internal/shard"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// orDefault returns v, or d when v is zero (the simulator's convention
// for unset configuration fields).
func orDefault[T comparable](v, d T) T {
	var zero T
	if v == zero {
		return d
	}
	return v
}

// buildMechanism builds the campaign mechanisms the workloads use with
// the simulator's scheme parameters.
func buildMechanism(kind sim.MechanismKind, budget float64, totalRequired int, cfg sim.Config) (incentive.Mechanism, error) {
	scheme, err := incentive.SchemeFromBudget(budget, totalRequired,
		orDefault(cfg.RewardLambda, sim.DefaultRewardLambda),
		demand.LevelMapper{N: orDefault(cfg.DemandLevels, sim.DefaultDemandLevels)})
	if err != nil {
		return nil, err
	}
	switch kind {
	case sim.MechanismOnDemand:
		return incentive.NewPaperOnDemand(scheme)
	case sim.MechanismFixed:
		return incentive.NewFixed(scheme)
	case sim.MechanismSteered:
		return incentive.NewBudgetScaledSteered(scheme.MaxReward())
	default:
		return nil, fmt.Errorf("traced driver: mechanism %v not supported", kind)
	}
}

// supportedByTracedDriver rejects configurations whose simulator
// behavior the traced driver does not reproduce (it covers exactly what
// the campaign workloads use).
func supportedByTracedDriver(cfg sim.Config) error {
	switch {
	case orDefault(cfg.Algorithm, sim.AlgorithmAuto) != sim.AlgorithmAuto,
		orDefault(cfg.Mobility, sim.MobilityStationary) != sim.MobilityStationary,
		cfg.ResetLocations, cfg.ChurnRate != 0, cfg.TimeBudgetJitter != 0,
		cfg.SensingTime != 0, cfg.RoundParallelism > 1:
		return fmt.Errorf("traced driver: configuration %+v not supported", cfg)
	}
	return nil
}

// campaignCapture holds the protocol messages a platform serving the
// traced campaign would have exchanged, for the codec measurements.
type campaignCapture struct {
	round  *wire.RoundInfo
	plan   *wire.PlanResponse
	submit *wire.SubmitRequest
}

// tracedTrial runs one trial through a benchmark-owned round loop over the
// public engine, shard, selection, agent and stats APIs, timing every
// call into a layer. It follows the simulator's construction and
// sequential round loop step for step, so its TrialResult must equal
// sim.Run's byte for byte on the same scenario and seed.
func tracedTrial(in trialInput, tr *tracer, capture *campaignCapture) (metrics.TrialResult, error) {
	cfg := in.cfg
	if err := cfg.Validate(); err != nil {
		return metrics.TrialResult{}, err
	}
	if err := supportedByTracedDriver(cfg); err != nil {
		return metrics.TrialResult{}, err
	}
	sc := in.scenario
	var (
		radius   = orDefault(cfg.NeighborRadius, sim.DefaultNeighborRadius)
		speed    = orDefault(cfg.UserSpeed, sim.DefaultUserSpeed)
		budgetT  = orDefault(cfg.UserTimeBudget, sim.DefaultUserTimeBudget)
		costPerM = orDefault(cfg.CostPerMeter, sim.DefaultCostPerMeter)
		budget   = orDefault(cfg.Budget, sim.DefaultBudget)
	)

	trialStart := tr.now()
	trial := tr.open(spanTrial, -1, trialStart)

	// The simulator splits its six streams in this order whether or not a
	// stream is used; only the mechanism and user-order streams draw here.
	root := stats.NewRNG(in.seed)
	mechRNG := root.Split()
	orderRNG := root.Split()
	root.Split() // location resets
	root.Split() // churn
	root.Split() // time-budget jitter
	mobRNG := root.Split()

	board, err := task.NewBoard(sc.Tasks)
	if err != nil {
		return metrics.TrialResult{}, err
	}
	inner, err := buildMechanism(orDefault(cfg.Mechanism, sim.MechanismOnDemand), budget, board.TotalRequired(), cfg)
	if err != nil {
		return metrics.TrialResult{}, err
	}
	mech := &timedMechanism{Mechanism: inner, tr: tr}
	mob := mobility.Stationary{}
	fc, err := mobility.NewForecast(mob, cfg.MobilityUncertainty, sc.Area, radius, len(sc.UserLocations))
	if err != nil {
		return metrics.TrialResult{}, err
	}

	t0 := tr.now()
	var eng engine.RoundEngine
	if cfg.Shards > 0 {
		eng, err = shard.New(shard.Config{
			Board: board, Mechanism: mech, Area: sc.Area, NeighborRadius: radius,
			DisableContext: cfg.DisableRoundContext, Shards: cfg.Shards,
			RNG: mechRNG, Budget: budget, BidCostPerMeter: costPerM, Forecast: fc,
		})
	} else {
		eng, err = engine.New(engine.Config{
			Board: board, Mechanism: mech, Area: sc.Area, NeighborRadius: radius,
			DisableContext: cfg.DisableRoundContext,
			RNG:            mechRNG, Budget: budget, BidCostPerMeter: costPerM, Forecast: fc,
		})
	}
	t1 := tr.now()
	tr.record(spanEngineNew, trial, t0, t1)
	tr.lay.engineNewDur += time.Duration(t1 - t0)
	if err != nil {
		return metrics.TrialResult{}, err
	}

	users := make([]*agent.User, len(sc.UserLocations))
	for i, loc := range sc.UserLocations {
		u := agent.New(i+1, loc)
		u.Speed = speed
		u.TimeBudget = budgetT
		u.CostPerMeter = costPerM
		if err := u.Validate(); err != nil {
			return metrics.TrialResult{}, err
		}
		users[i] = u
	}
	alg := &selection.Auto{
		Threshold:   cfg.DPMaxTasks,
		BeamWidth:   orDefault(cfg.BeamWidth, selection.DefaultBeamWidth),
		BeamImprove: orDefault(cfg.BeamImprove, selection.DefaultBeamImprove),
	}

	eng.SetMechanism(mech)
	result := metrics.TrialResult{
		Mechanism: mech.Name(),
		Algorithm: alg.Name(),
		Users:     len(users),
		Tasks:     board.Len(),
	}
	horizon := cfg.Rounds
	if horizon == 0 {
		horizon = board.MaxDeadline()
	}
	var (
		userLocs []geo.Point
		idle     []float64
		perm     []int
		cand     []selection.Candidate
	)
	for k := 1; k <= horizon; k++ {
		rs := metrics.RoundStats{Round: k}
		roundStart := tr.now()
		round := tr.open(spanRound, trial, roundStart)

		open := eng.BeginRound(k)
		t1 := tr.now()
		tr.record(spanBeginRound, round, roundStart, t1)
		tr.lay.beginDur += time.Duration(t1 - roundStart)
		tr.lay.beginCalls++
		rs.OpenTasks = len(open)
		if len(open) > 0 {
			userLocs = agent.LocationsInto(userLocs, users)
			t0 := tr.now()
			tr.reprice = tr.open(spanReprice, round, t0)
			err := eng.Reprice(userLocs)
			t1 := tr.now()
			tr.close(tr.reprice, t1)
			tr.reprice = -1
			tr.lay.repriceDur += time.Duration(t1 - t0)
			tr.lay.repriceCalls++
			if err != nil {
				return metrics.TrialResult{}, fmt.Errorf("round %d: %w", k, err)
			}
			rs.MeanPublishedReward = eng.MeanPublishedReward()
		}
		if capture.round == nil && len(open) > 0 {
			capture.round = roundInfo(eng, k)
		}

		if cap(idle) < len(users) {
			idle = make([]float64, len(users))
		}
		idle = idle[:len(users)]
		for i, u := range users {
			idle[i] = u.TimeBudget
		}
		if len(open) > 0 {
			perm = orderRNG.PermInto(perm, len(users))
			for _, ui := range perm {
				u := users[ui]
				t0 := tr.now()
				var problem selection.Problem
				problem, cand = eng.ProblemInto(engine.Spec{
					Start:        u.Location,
					MaxDistance:  u.MaxTravelDistance(),
					CostPerMeter: u.CostPerMeter,
				}, u, cand)
				t1 := tr.now()
				tr.record(spanProblem, round, t0, t1)
				tr.lay.problemDur += time.Duration(t1 - t0)
				tr.lay.problemCalls++
				tr.lay.emitted += int64(len(problem.Candidates))
				tr.lay.scanned += int64(len(eng.Open()))

				plan, err := tr.solve(alg, problem, round)
				if err != nil {
					return metrics.TrialResult{}, fmt.Errorf("round %d: user %d: %w", k, u.ID, err)
				}
				if plan.Empty() {
					continue
				}
				if capture.plan == nil {
					capture.plan, capture.submit = planMessages(k, u.ID, plan)
				}
				t2 := tr.now()
				n, err := eng.CommitPlan(u.ID, plan.Order)
				t3 := tr.now()
				tr.record(spanCommit, round, t2, t3)
				tr.lay.commitDur += time.Duration(t3 - t2)
				tr.lay.commitCalls++
				for _, id := range plan.Order[:n] {
					u.MarkDone(id)
				}
				if err != nil {
					tr.lay.commitFailed++
					return metrics.TrialResult{}, fmt.Errorf("round %d: user %d task %d: %w", k, u.ID, plan.Order[n], err)
				}
				u.AddProfit(plan.Profit)
				rs.RoundProfit += plan.Profit
				rs.ActiveUsers++
				if end, ok := plan.Path.End(); ok {
					u.MoveTo(end)
				}
				idle[ui] -= u.TravelTime(plan.Distance)
				if idle[ui] < 0 {
					idle[ui] = 0
				}
			}
		}
		for i, u := range users {
			u.MoveTo(mob.Step(mobRNG, u.ID, u.Location, idle[i], u.Speed))
		}

		t0 := tr.now()
		eng.FinishRoundStats(&rs)
		t1 = tr.now()
		tr.record(spanStats, round, t0, t1)
		tr.lay.statsDur += time.Duration(t1 - t0)
		tr.lay.statsCalls++
		tr.close(round, t1)

		result.Rounds = append(result.Rounds, rs)
		result.RoundsRun = k
	}

	t0 = tr.now()
	eng.FinishTrial(&result)
	t1 = tr.now()
	tr.record(spanStats, trial, t0, t1)
	tr.lay.statsDur += time.Duration(t1 - t0)
	tr.lay.statsCalls++
	result.UserProfits = nil
	for _, u := range users {
		result.UserProfits = append(result.UserProfits, u.Profit())
	}
	result.AvgUserProfit = stats.Mean(result.UserProfits)
	result.ProfitGini = stats.Gini(result.UserProfits)
	tr.close(trial, tr.now())
	return result, nil
}

// roundInfo is the round a platform would publish from the engine's
// current state: the open snapshot's priced tasks in board order.
func roundInfo(eng engine.RoundEngine, round int) *wire.RoundInfo {
	info := &wire.RoundInfo{Round: round}
	for _, st := range eng.Open() {
		reward, ok := eng.RewardFor(st.ID)
		if !ok || !st.OpenAt(round) {
			continue
		}
		info.Tasks = append(info.Tasks, wire.TaskInfo{
			ID: st.ID, Location: st.Location, Deadline: st.Deadline,
			Required: st.Required, Received: st.Received(), Reward: reward,
		})
	}
	return info
}

// planMessages are the plan response and upload a served worker would
// exchange for plan.
func planMessages(round, user int, plan selection.Plan) (*wire.PlanResponse, *wire.SubmitRequest) {
	resp := &wire.PlanResponse{
		Round: round, Order: append([]task.ID(nil), plan.Order...),
		Distance: plan.Distance, Reward: plan.Reward, Cost: plan.Cost, Profit: plan.Profit,
	}
	req := &wire.SubmitRequest{UserID: user, Round: round}
	for _, id := range plan.Order {
		req.Measurements = append(req.Measurements, wire.Measurement{TaskID: id, Value: reading(id)})
	}
	req.Location, _ = plan.Path.End()
	return resp, req
}

// reading is the sensed value a benchmark worker reports for a task.
func reading(id task.ID) float64 { return 40 + float64(id%50)*0.5 }

// runTracedCampaign is the traced run of a campaign workload. Each trial
// runs twice on the same scenario and seed, through sim.Run untimed by any
// span and through the traced driver, in alternating order; the two
// results must be byte-identical, and their time ratio is the tracing
// overhead.
func runTracedCampaign(opts options, inputs campaignInputs, out *outcome) error {
	tr := newTracer()
	capture := &campaignCapture{}
	var (
		plainDur, tracedDur time.Duration
		trials              int
	)
	pair := func(i int, timed bool) error {
		in := inputs.at(i)
		var plain, traced metrics.TrialResult
		var dPlain, dTraced time.Duration
		runPlain := func() error {
			start := time.Now()
			r, err := runTrial(in, nil)
			dPlain, plain = time.Since(start), r
			return err
		}
		runTraced := func() error {
			start := time.Now()
			r, err := tracedTrial(in, tr, capture)
			dTraced, traced = time.Since(start), r
			return err
		}
		first, second := runPlain, runTraced
		if i%2 == 1 {
			first, second = runTraced, runPlain
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		out.attempted++
		if err := checkTrial(in, traced); err != nil {
			out.failed++
			fmt.Fprintf(opts.log, "traced trial check failed: %v\n", err)
		}
		a, err := json.Marshal(plain)
		if err != nil {
			return err
		}
		b, err := json.Marshal(traced)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			out.correct = false
			fmt.Fprintf(opts.log, "trial %d: traced driver result differs from sim.Run\n", i)
		}
		if timed {
			plainDur += dPlain
			tracedDur += dTraced
			trials++
		}
		return nil
	}
	// Warm-up: one pair per configuration, checked but not timed; the
	// layer totals restart afterwards.
	for i := 0; i < len(inputs); i++ {
		if err := pair(i, false); err != nil {
			return err
		}
	}
	tr.lay = layers{}
	deadline := time.Now().Add(opts.duration)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := pair(i, true); err != nil {
			return err
		}
	}

	m := zeroLayerMetrics()
	l := &tr.lay
	l.selectionMetrics(m, float64(trials))
	m["engine.problem_ms"] = perCallMS(l.problemDur, l.problemCalls)
	m["engine.candidate_yield"] = ratio(float64(l.emitted), float64(l.scanned))
	m["engine.reprice_ms"] = perCallMS(l.repriceDur, l.repriceCalls)
	m["incentive.rewards_ms"] = perCallMS(l.rewardsDur, l.rewardsCalls)
	m["engine.commit_ms"] = perCallMS(l.commitDur, l.commitCalls)
	m["engine.commit_failed"] = float64(l.commitFailed)
	m["engine.begin_round_ms"] = perCallMS(l.beginDur, l.beginCalls)
	m["engine.stats_ms"] = perCallMS(l.statsDur, l.statsCalls)

	engineSelf := l.engineNewDur + l.beginDur + (l.repriceDur - l.rewardsDur) + l.problemDur + l.commitDur + l.statsDur
	selectionSelf := l.selectTotal()
	simSelf := tracedDur - engineSelf - selectionSelf - l.rewardsDur
	m["sim.driver_self_ms"] = ms(simSelf) / float64(trials)
	total := float64(tracedDur)
	m["sim.share"] = float64(simSelf) / total
	m["engine.share"] = float64(engineSelf) / total
	m["selection.share"] = float64(selectionSelf) / total
	m["incentive.share"] = float64(l.rewardsDur) / total
	m["trace_overhead_frac"] = float64(tracedDur)/float64(plainDur) - 1
	if _, err := measureWire(m, capture.round, capture.plan, capture.submit); err != nil {
		return err
	}
	out.metrics = m
	fmt.Fprintf(opts.log, "%s traced: %d timed trial pairs, %.1f ms/trial traced vs %.1f ms plain, %d spans kept, %d dropped\n",
		opts.workload, trials, ms(tracedDur)/float64(trials), ms(plainDur)/float64(trials), len(tr.spans), tr.dropped)
	return tr.write(opts.traceDir, fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed), provenance(opts, out.gomaxprocs))
}
