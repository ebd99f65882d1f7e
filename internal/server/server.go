// Package server implements the crowdsensing platform as an HTTP service:
// it publishes the open tasks with demand-priced rewards each round,
// registers workers, accepts measurement uploads, and advances rounds,
// realizing the platform half of the paper's Fig. 1 loop over a real
// network.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"

	"paydemand/internal/aggregate"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/reputation"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// Config parameterizes the platform.
type Config struct {
	// Tasks are the campaign's sensing tasks.
	Tasks []task.Task
	// Mechanism prices the tasks each round.
	Mechanism incentive.Mechanism
	// Area bounds the sensing region (used by the neighbor index).
	Area geo.Rect
	// NeighborRadius is the radius R for the neighbor-count demand factor.
	NeighborRadius float64
	// MaxRounds caps the campaign length; zero means the largest deadline.
	MaxRounds int
	// HardBudget, when positive, caps the total reward the platform will
	// ever pay: a measurement whose reward would push payouts past the cap
	// is rejected with reason "budget exhausted". The paper's on-demand
	// scheme never needs this (Eq. 8 bounds its worst case), but
	// unconstrained mechanisms such as the raw steered rewards do.
	HardBudget float64
	// Aggregation selects how /v1/estimate reduces a task's measurements;
	// the zero value means robust (MAD outlier-rejecting) mean.
	Aggregation aggregate.Config
	// Reputation, when non-nil, tracks each worker's sensing quality: on
	// every task completion, contributors' readings are compared with the
	// aggregated consensus and their scores updated. Served at
	// GET /v1/reputation.
	Reputation *reputation.Tracker
	// ReputationTolerance is the deviation scale used when scoring
	// agreement (see reputation.Agreement); zero means 5.
	ReputationTolerance float64
	// Planner constructs the task selection solver behind POST /v1/plan;
	// nil means selection.Auto with default thresholds. The factory must
	// return a fresh instance per call: solvers keep scratch between calls
	// and the platform pools them so concurrent planning requests each get
	// exclusive use of one (see selection.SolverPool).
	Planner func() selection.Algorithm
	// Logger receives operational logs; nil means slog.Default().
	Logger *slog.Logger

	// The remaining fields back the mechanism capabilities (see
	// incentive.Capabilities and engine.Config); each is required exactly
	// when Mechanism's Requires() mask declares the matching capability,
	// which New verifies. Worker bids are derived from registered worker
	// locations in ascending worker-ID order, so pricing is a
	// deterministic function of the registered fleet.

	// RNG is the mechanism's seeded stream (incentive.CapRNG).
	RNG *stats.RNG
	// Budget is the campaign budget handed to budget-aware mechanisms
	// (incentive.CapBudget). Distinct from HardBudget, the wire-level
	// payment cap.
	Budget float64
	// CostPerMeter converts a worker's travel estimate into its claimed
	// bid cost (incentive.CapBids).
	CostPerMeter float64
	// Forecast predicts future neighbor counts for mobility-aware
	// mechanisms (incentive.CapMobility).
	Forecast incentive.ForecastProvider
}

// Platform is the HTTP crowdsensing platform. Create with New; it
// implements http.Handler and is safe for concurrent use.
type Platform struct {
	cfg    Config
	logger *slog.Logger
	mux    *http.ServeMux

	// planners pools selection solvers for /v1/plan so concurrent planning
	// requests solve in parallel, each on its own scratch-owning instance,
	// without holding mu.
	planners *selection.SolverPool

	// eng is the round state machine shared with the simulator: open-task
	// snapshot, neighbor counting, repricing, commits, round state. All
	// engine mutations happen under mu. Plan solves run outside it on
	// problems built into per-request buffers, which reference no engine
	// storage, so the engine recycles its round scratch freely.
	eng *engine.Engine

	mu      sync.Mutex
	round   int
	done    bool
	workers map[int]geo.Point // worker id -> last known location
	nextID  int
	// locBuf is the grow-only worker-location scratch fed to the engine's
	// reprice, assembled in ascending worker-ID order so the bid a
	// mechanism sees for worker index i is a deterministic function of
	// the registered fleet. idBuf is the matching grow-only ID scratch.
	locBuf []geo.Point
	idBuf  []int
	// repriceErr is the error of the last failed reprice, cleared on
	// success. While set, the engine publishes no rewards (it unpublishes
	// on error) and GET /v1/round reports the failure instead of silently
	// serving an empty round.
	repriceErr error
	// contribs stores who uploaded what per task, for aggregation (e.g.
	// building a noise map) and reputation scoring.
	contribs map[task.ID][]reputation.Contribution
	// statusDirty marks the cached board-derived status aggregates
	// stale. /v1/status used to recompute coverage, completeness, and
	// the open-task count — each an O(tasks) board walk — under the
	// platform mutex on every hit; now the walk happens only after
	// something actually changed (an accepted upload, a round advance, a
	// reprice, a snapshot restore).
	statusDirty bool
	statusCache wire.StatusResponse
}

// New validates the configuration and builds the platform, publishing
// round 1.
func New(cfg Config) (*Platform, error) {
	if cfg.Mechanism == nil {
		return nil, errors.New("server: nil mechanism")
	}
	if !cfg.Area.Valid() || cfg.Area.Area() == 0 {
		return nil, fmt.Errorf("server: invalid area %v", cfg.Area)
	}
	if cfg.NeighborRadius <= 0 {
		return nil, fmt.Errorf("server: neighbor radius %v, want > 0", cfg.NeighborRadius)
	}
	if err := cfg.Aggregation.Validate(); err != nil {
		return nil, err
	}
	board, err := task.NewBoard(cfg.Tasks)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if cfg.ReputationTolerance == 0 {
		cfg.ReputationTolerance = 5
	}
	if cfg.ReputationTolerance < 0 {
		return nil, fmt.Errorf("server: reputation tolerance %v, want > 0", cfg.ReputationTolerance)
	}
	planner := cfg.Planner
	if planner == nil {
		planner = func() selection.Algorithm { return &selection.Auto{} }
	}
	// An unpriced task is not published on the wire, so it is not a
	// planning candidate either.
	eng, err := engine.New(engine.Config{
		Board:           board,
		Mechanism:       cfg.Mechanism,
		Area:            cfg.Area,
		NeighborRadius:  cfg.NeighborRadius,
		RequirePriced:   true,
		RNG:             cfg.RNG,
		Budget:          cfg.Budget,
		BidCostPerMeter: cfg.CostPerMeter,
		Forecast:        cfg.Forecast,
	})
	if err != nil {
		return nil, err
	}
	p := &Platform{
		cfg:      cfg,
		logger:   logger,
		planners: selection.NewSolverPool(planner),
		eng:      eng,
		round:    1,
		workers:  make(map[int]geo.Point),
		contribs: make(map[task.ID][]reputation.Contribution),
	}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("POST "+wire.PathRegister, p.handleRegister)
	p.mux.HandleFunc("GET "+wire.PathRound, p.handleRound)
	p.mux.HandleFunc("POST "+wire.PathSubmit, p.handleSubmit)
	p.mux.HandleFunc("POST "+wire.PathAdvance, p.handleAdvance)
	p.mux.HandleFunc("GET "+wire.PathStatus, p.handleStatus)
	p.mux.HandleFunc("GET "+wire.PathHealth, p.handleHealth)
	p.mux.HandleFunc("GET "+wire.PathEstimate, p.handleEstimate)
	p.mux.HandleFunc("GET "+wire.PathReputation, p.handleReputation)
	p.mux.HandleFunc("POST "+wire.PathPlan, p.handlePlan)

	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.repriceLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// ServeHTTP implements http.Handler.
func (p *Platform) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

// maxRounds resolves the campaign horizon.
func (p *Platform) maxRounds() int {
	if p.cfg.MaxRounds > 0 {
		return p.cfg.MaxRounds
	}
	return p.eng.Board().MaxDeadline()
}

// repriceLocked recomputes the current round's rewards through the
// engine. On failure the engine has unpublished everything, so the
// platform serves no stale prices; the error is also remembered in
// p.repriceErr until the next successful reprice. Callers must hold p.mu.
func (p *Platform) repriceLocked() error {
	p.statusDirty = true
	open := p.eng.BeginRound(p.round)
	if len(open) == 0 {
		p.repriceErr = nil
		return nil
	}
	ids := p.idBuf[:0]
	for id := range p.workers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	p.idBuf = ids
	p.locBuf = p.locBuf[:0]
	for _, id := range ids {
		p.locBuf = append(p.locBuf, p.workers[id])
	}
	p.repriceErr = p.eng.Reprice(p.locBuf)
	return p.repriceErr
}

// Reprice recomputes the current round's rewards over the currently
// registered workers. The constructor and Advance reprice automatically;
// in-process drivers call this when worker registrations should be
// reflected in the demand factors before the round is served.
func (p *Platform) Reprice() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return nil
	}
	return p.repriceLocked()
}

// Advance moves the platform to the next round, recomputing rewards. It
// returns the new round number and whether the campaign is done. Exposed
// for in-process drivers; the HTTP endpoint wraps it.
func (p *Platform) Advance() (round int, done bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return p.round, true, nil
	}
	p.round++
	if p.round > p.maxRounds() || p.eng.Board().AllSettledAt(p.round) {
		p.done = true
		p.eng.Clear()
		p.repriceErr = nil
		p.statusDirty = true
		p.logger.Info("campaign done", "round", p.round)
		return p.round, true, nil
	}
	if err := p.repriceLocked(); err != nil {
		return p.round, false, err
	}
	p.logger.Info("round advanced", "round", p.round, "open_tasks", len(p.eng.Rewards()))
	return p.round, false, nil
}

// Round returns the currently published round snapshot (for in-process
// drivers and tests).
func (p *Platform) Round() wire.RoundInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.roundInfoLocked()
}

func (p *Platform) roundInfoLocked() wire.RoundInfo {
	info := wire.RoundInfo{Round: p.round, Done: p.done}
	// The engine's snapshot is from reprice time; tasks filled since then
	// are no longer open and drop out of the published round.
	for _, st := range p.eng.Open() {
		if !st.OpenAt(p.round) {
			continue
		}
		reward, ok := p.eng.RewardFor(st.ID)
		if !ok {
			continue
		}
		info.Tasks = append(info.Tasks, wire.TaskInfo{
			ID:       st.ID,
			Location: st.Location,
			Deadline: st.Deadline,
			Required: st.Required,
			Received: st.Received(),
			Reward:   reward,
		})
	}
	return info
}

// Board exposes the platform's task board for inspection (aggregation,
// metrics). The caller must not mutate it concurrently with serving.
func (p *Platform) Board() *task.Board { return p.eng.Board() }

// Values returns a copy of the uploaded measurement values for a task.
func (p *Platform) Values(id task.ID) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.valuesLocked(id)
}

func (p *Platform) valuesLocked(id task.ID) []float64 {
	cs := p.contribs[id]
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.Value
	}
	return out
}

// Estimate aggregates a task's uploaded values with the configured
// estimator. It returns aggregate.ErrNoData if the task has no
// measurements yet.
func (p *Platform) Estimate(id task.ID) (aggregate.Estimate, error) {
	return aggregate.Aggregate(p.cfg.Aggregation, p.Values(id))
}
