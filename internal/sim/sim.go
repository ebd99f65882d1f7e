package sim

import (
	"fmt"

	"paydemand/internal/agent"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/mobility"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// Observer receives the simulation's per-round events. All methods are
// optional no-ops in the embedded BaseObserver; the experiment harness uses
// observers to capture data the final metrics do not retain (for example
// per-user plans at a specific round for Fig. 5).
type Observer interface {
	// RoundStart fires after reward update and task publication. The
	// rewards map is engine-owned scratch recycled by the next round's
	// reprice: observers that keep it past the call must copy it.
	RoundStart(round int, rewards map[task.ID]float64)
	// UserPlanned fires after each user's task selection, whether or not
	// the plan is empty. The problem (including its Candidates slice and
	// shared round context) is backed by simulation-owned buffers that are
	// reused for the next user: it is valid only for the duration of the
	// call, so observers that retain it must copy what they keep. The plan
	// is the observer's to keep.
	UserPlanned(round int, userID int, problem selection.Problem, plan selection.Plan)
	// RoundEnd fires after all users have acted, with the round's stats.
	RoundEnd(round int, stats metrics.RoundStats)
}

// BaseObserver is a no-op Observer for embedding.
type BaseObserver struct{}

var _ Observer = BaseObserver{}

// RoundStart implements Observer.
func (BaseObserver) RoundStart(int, map[task.ID]float64) {}

// UserPlanned implements Observer.
func (BaseObserver) UserPlanned(int, int, selection.Problem, selection.Plan) {}

// RoundEnd implements Observer.
func (BaseObserver) RoundEnd(int, metrics.RoundStats) {}

// Simulation is one configured run over one generated scenario. Create
// with New (fresh scenario) or NewFromScenario (pre-built scenario), then
// call Run exactly once.
type Simulation struct {
	cfg      Config
	scenario workload.Scenario
	board    *task.Board
	eng      *engine.Engine
	users    []*agent.User
	mech     incentive.Mechanism
	alg      selection.Algorithm
	orderRNG *stats.RNG
	resetRNG *stats.RNG
	churnRNG *stats.RNG
	mobRNG   *stats.RNG
	mob      mobility.Model
	nextUser int
	// departedProfits holds the profits of users that churned out, so the
	// final profit accounting covers everyone who participated.
	departedProfits []float64
	ran             bool

	// Per-round scratch, reused across rounds and users so the steady-state
	// round loop runs without allocations: the per-user candidate buffer
	// (see Observer.UserPlanned for the resulting aliasing rules), the
	// idle-time tracker, and the user-location slice fed to the engine's
	// reprice. The round-level scratch — open snapshot, neighbor grid, task
	// views, shared solver context — lives inside the engine.
	candBuf  []selection.Candidate
	idleBuf  []float64
	userLocs []geo.Point
	// permBuf is the grow-only per-round user-order permutation buffer
	// (filled by PermInto with the exact draws Perm used to make).
	permBuf []int
}

// New generates a scenario from cfg.Workload with the given seed and
// prepares the simulation. The same (cfg, seed) pair always produces the
// same result.
func New(cfg Config, seed int64) (*Simulation, error) {
	root := stats.NewRNG(seed)
	scenarioRNG := root.Split()
	sc, err := workload.Generate(scenarioRNG, cfg.Workload)
	if err != nil {
		return nil, err
	}
	return NewFromScenario(cfg, sc, root.Int63())
}

// NewFromScenario prepares a simulation over a caller-supplied scenario.
// seed drives the remaining randomness (fixed-mechanism level draws, user
// ordering, optional location resets).
func NewFromScenario(cfg Config, sc workload.Scenario, seed int64) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	root := stats.NewRNG(seed)
	mechRNG := root.Split()
	orderRNG := root.Split()
	resetRNG := root.Split()
	churnRNG := root.Split()
	jitterRNG := root.Split()
	mobRNG := root.Split()

	board, err := task.NewBoard(sc.Tasks)
	if err != nil {
		return nil, err
	}
	mech, err := cfg.buildMechanism(board.TotalRequired())
	if err != nil {
		return nil, err
	}
	alg, err := cfg.buildAlgorithm()
	if err != nil {
		return nil, err
	}
	mob, err := cfg.buildMobility(sc.Area)
	if err != nil {
		return nil, err
	}
	// The forecast backing the mobility capability shares the simulation's
	// mobility model, so forecast-driven pricing sees the same movement
	// assumptions that actually move the users.
	fc, err := mobility.NewForecast(mob, cfg.MobilityUncertainty, sc.Area, cfg.NeighborRadius, len(sc.UserLocations))
	if err != nil {
		return nil, err
	}
	// Historical simulator behavior: unpriced open tasks stay in candidate
	// sets at reward 0 (the candidate count feeds Auto's algorithm
	// dispatch, so dropping them would change results). The capability
	// fields are always supplied — the engine hands each mechanism only
	// what its Requires() mask declares, so unused inputs cost nothing and
	// consume no randomness. mechRNG keeps its historical split position,
	// so the fixed mechanism's level draws are unchanged.
	eng, err := engine.New(engine.Config{
		Board:           board,
		Mechanism:       mech,
		Area:            sc.Area,
		NeighborRadius:  cfg.NeighborRadius,
		RequirePriced:   false,
		RNG:             mechRNG,
		Budget:          cfg.Budget,
		BidCostPerMeter: cfg.CostPerMeter,
		Forecast:        fc,
	})
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:      cfg,
		scenario: sc,
		board:    board,
		eng:      eng,
		mech:     mech,
		alg:      alg,
		orderRNG: orderRNG,
		resetRNG: resetRNG,
		churnRNG: churnRNG,
		mobRNG:   mobRNG,
		mob:      mob,
	}
	s.users = make([]*agent.User, len(sc.UserLocations))
	for i, loc := range sc.UserLocations {
		u := s.newUser(loc, jitterRNG)
		if err := u.Validate(); err != nil {
			return nil, err
		}
		s.users[i] = u
	}
	return s, nil
}

// newUser creates a user with the configured parameters, drawing the
// jittered time budget from rng.
func (s *Simulation) newUser(loc geo.Point, rng *stats.RNG) *agent.User {
	s.nextUser++
	u := agent.New(s.nextUser, loc)
	u.Speed = s.cfg.UserSpeed
	u.TimeBudget = s.cfg.UserTimeBudget
	if j := s.cfg.TimeBudgetJitter; j > 0 {
		u.TimeBudget = s.cfg.UserTimeBudget * rng.Uniform(1-j, 1+j)
	}
	u.CostPerMeter = s.cfg.CostPerMeter
	return u
}

// Board exposes the task board (read-only use expected).
func (s *Simulation) Board() *task.Board { return s.board }

// Users exposes the user population (read-only use expected).
func (s *Simulation) Users() []*agent.User { return s.users }

// Mechanism exposes the incentive mechanism under test.
func (s *Simulation) Mechanism() incentive.Mechanism { return s.mech }

// Scenario exposes the generated scenario.
func (s *Simulation) Scenario() workload.Scenario { return s.scenario }

// rounds resolves the configured horizon.
func (s *Simulation) rounds() int {
	if s.cfg.Rounds > 0 {
		return s.cfg.Rounds
	}
	return s.board.MaxDeadline()
}

// Run executes the simulation. obs may be nil. Run may be called once per
// Simulation; it returns an error on reuse.
func (s *Simulation) Run(obs Observer) (metrics.TrialResult, error) {
	if s.ran {
		return metrics.TrialResult{}, fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	if obs == nil {
		obs = BaseObserver{}
	}
	// The mechanism may have been substituted after construction (tests
	// inject stubs); make sure the engine prices with the current one.
	s.eng.SetMechanism(s.mech)

	result := metrics.TrialResult{
		Mechanism: s.mech.Name(),
		Algorithm: s.alg.Name(),
		Users:     len(s.users),
		Tasks:     s.board.Len(),
	}
	horizon := s.rounds()
	for k := 1; k <= horizon; k++ {
		rs, err := s.runRound(k, obs)
		if err != nil {
			return metrics.TrialResult{}, fmt.Errorf("sim: round %d: %w", k, err)
		}
		result.Rounds = append(result.Rounds, rs)
		result.RoundsRun = k
	}

	s.eng.FinishTrial(&result)
	result.UserProfits = append([]float64(nil), s.departedProfits...)
	for _, u := range s.users {
		result.UserProfits = append(result.UserProfits, u.Profit())
	}
	result.AvgUserProfit = stats.Mean(result.UserProfits)
	result.ProfitGini = stats.Gini(result.UserProfits)
	return result, nil
}

// runRound executes one sensing round: reward update, publication,
// distributed selection, upload, and bookkeeping. The engine runs the
// shared platform pipeline (snapshot, reprice, commit, stats); this
// driver owns what is simulation-specific — user agents, acting order,
// mobility, churn.
func (s *Simulation) runRound(k int, obs Observer) (metrics.RoundStats, error) {
	rs := metrics.RoundStats{Round: k}

	open := s.eng.BeginRound(k)
	rs.OpenTasks = len(open)
	if len(open) > 0 {
		s.userLocs = agent.LocationsInto(s.userLocs, s.users)
		if err := s.eng.Reprice(s.userLocs); err != nil {
			return rs, err
		}
		rs.MeanPublishedReward = s.eng.MeanPublishedReward()
	}
	rewards := s.eng.Rewards()
	obs.RoundStart(k, rewards)

	// idle tracks each user's leftover time this round, which feeds the
	// between-round mobility model.
	if cap(s.idleBuf) < len(s.users) {
		s.idleBuf = make([]float64, len(s.users))
	}
	idle := s.idleBuf[:len(s.users)]
	for i, u := range s.users {
		idle[i] = u.TimeBudget
	}
	if len(open) > 0 {
		// Users act in a random order each round; each sees the round's
		// published rewards but only tasks still accepting measurements at
		// its turn (the WST mode's redundant-completion drawback is thereby
		// bounded by phi per task). The permutation buffer is recycled
		// across rounds; PermInto consumes exactly the draws Perm made, so
		// seeded results are untouched.
		s.permBuf = s.orderRNG.PermInto(s.permBuf, len(s.users))
		if err := s.runUsers(k, s.permBuf, obs, &rs, idle); err != nil {
			return rs, err
		}
	}

	for i, u := range s.users {
		next := s.mob.Step(s.mobRNG, u.ID, u.Location, idle[i], u.Speed)
		u.MoveTo(next)
	}

	if s.cfg.ResetLocations {
		area := s.scenario.Area
		for _, u := range s.users {
			u.MoveTo(geo.Pt(
				s.resetRNG.Uniform(area.Min.X, area.Max.X),
				s.resetRNG.Uniform(area.Min.Y, area.Max.Y),
			))
		}
	}
	if s.cfg.ChurnRate > 0 {
		area := s.scenario.Area
		for i, u := range s.users {
			if s.churnRNG.Float64() >= s.cfg.ChurnRate {
				continue
			}
			s.departedProfits = append(s.departedProfits, u.Profit())
			s.users[i] = s.newUser(geo.Pt(
				s.churnRNG.Uniform(area.Min.X, area.Max.X),
				s.churnRNG.Uniform(area.Min.Y, area.Max.Y),
			), s.churnRNG)
		}
	}

	s.eng.FinishRoundStats(&rs)
	obs.RoundEnd(k, rs)
	return rs, nil
}

// runUsers executes the distributed-selection half of one round: each user
// in perm order solves its selection problem against the board as the
// users before it left it, and commits the resulting plan (records,
// profit, movement, idle-time bookkeeping).
func (s *Simulation) runUsers(k int, perm []int, obs Observer, rs *metrics.RoundStats, idle []float64) error {
	for _, ui := range perm {
		u := s.users[ui]
		problem := s.problemFor(u)
		plan, err := s.alg.Select(problem)
		if err != nil {
			return fmt.Errorf("user %d: %w", u.ID, err)
		}
		obs.UserPlanned(k, u.ID, problem, plan)
		if plan.Empty() {
			continue
		}
		// n tasks committed means ids[:n] succeeded and, on error, ids[n]
		// is the task that failed.
		n, err := s.eng.CommitPlan(u.ID, plan.Order)
		for _, id := range plan.Order[:n] {
			u.MarkDone(id)
		}
		if err != nil {
			return fmt.Errorf("user %d task %d: %w", u.ID, plan.Order[n], err)
		}
		u.AddProfit(plan.Profit)
		rs.RoundProfit += plan.Profit
		rs.ActiveUsers++
		if end, ok := plan.Path.End(); ok {
			u.MoveTo(end)
		}
		spent := u.TravelTime(plan.Distance) + s.cfg.SensingTime*float64(plan.Len())
		idle[ui] -= spent
		if idle[ui] < 0 {
			idle[ui] = 0
		}
	}
	return nil
}

// problemFor assembles one user's selection problem for the current round
// over the shared s.candBuf scratch (see Observer.UserPlanned for the
// resulting aliasing rules). The engine supplies the round-dependent half
// — candidates in board order, this round's prices, the shared solver
// context — so the simulation is deterministic under a seed.
func (s *Simulation) problemFor(u *agent.User) selection.Problem {
	var p selection.Problem
	p, s.candBuf = s.eng.ProblemInto(engine.Spec{
		Start:           u.Location,
		MaxDistance:     u.MaxTravelDistance(),
		CostPerMeter:    u.CostPerMeter,
		PerTaskDistance: s.cfg.SensingTime * u.Speed,
	}, u, s.candBuf)
	return p
}

// Run is a convenience that builds and runs a simulation in one call.
func Run(cfg Config, seed int64) (metrics.TrialResult, error) {
	s, err := New(cfg, seed)
	if err != nil {
		return metrics.TrialResult{}, err
	}
	return s.Run(nil)
}
