// Package engine implements the canonical round state machine of the
// crowdsensing platform: the per-round pipeline of open-task snapshot,
// neighbor counting, demand-based repricing (Eqs. 3-7), measurement
// commit with double-fill protection, and round/trial statistics
// (Sec. VI).
//
// The engine owns platform state and scratch; frontends own behavior.
// Three drivers sit on top of it:
//
//   - internal/sim drives it with simulated user agents (random acting
//     order, mobility, churn);
//   - internal/server drives it under a mutex from HTTP handlers, with
//     workers registering, planning, and uploading over the wire;
//   - internal/sat drives the snapshot/settle/stats stages around a
//     centralized reverse auction instead of published prices.
//
// All per-round storage — the open-task snapshot, the neighbor grid, the
// mechanism's task views, the assembled mechanism input (bids, budget,
// forecast), and the published reward map — is grow-only scratch
// recycled across rounds, so a steady-state Reprice allocates nothing at
// all: mechanisms write into an engine-owned map through RewardsInto, and
// the engine republishes that map each round. Because of that scratch, an Engine is NOT safe for
// concurrent mutation: drivers serialize BeginRound/Reprice/Commit calls
// (the simulator is single-threaded between rounds; the HTTP platform
// holds its mutex). Read-only accessors, ProblemInto included, are safe
// to call concurrently between mutations. A problem ProblemInto builds
// into a caller-owned buffer references no engine storage, so it may be
// solved after the driver's lock is released, while the engine moves on.
package engine

import (
	"errors"
	"fmt"
	"math"

	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// Config parameterizes an engine.
type Config struct {
	// Board is the campaign's task board. Required.
	Board *task.Board
	// Mechanism prices the open tasks each round. It may be nil for
	// drivers that never reprice (the SAT auction pays bids, not
	// published rewards); Reprice then fails.
	Mechanism incentive.Mechanism
	// Area bounds the sensing region; the neighbor index is built over it.
	Area geo.Rect
	// NeighborRadius is the radius R of the neighbor-count demand factor.
	NeighborRadius float64
	// DisableContext once skipped building the per-round shared distance
	// table. The table was deleted (every solver computes the distances
	// it needs), so the engine ignores the field.
	//
	// Deprecated: ignored by the engine.
	DisableContext bool
	// RequirePriced drops tasks without a published reward from candidate
	// sets built by ProblemInto. The HTTP platform sets it (an unpriced
	// task is not published on the wire); the simulator keeps the
	// historical behavior of offering unpriced open tasks at reward 0.
	RequirePriced bool

	// The remaining fields back the mechanism capabilities (see
	// incentive.Capabilities). Each is required exactly when the
	// mechanism's Requires() mask declares the matching capability; New
	// and Reprice reject configurations that cannot supply a declared
	// capability.

	// RNG is the mechanism's seeded stream (incentive.CapRNG).
	RNG *stats.RNG
	// Budget is the campaign budget handed to budget-aware mechanisms
	// (incentive.CapBudget).
	Budget float64
	// BidCostPerMeter converts a worker's travel estimate — the distance
	// from its location to the nearest open task — into the claimed cost
	// of its bid (incentive.CapBids).
	BidCostPerMeter float64
	// Forecast predicts future neighbor counts for mobility-aware
	// mechanisms (incentive.CapMobility).
	Forecast incentive.ForecastProvider
}

// Engine is the round state machine. Create with New; see the package
// comment for the concurrency contract.
type Engine struct {
	cfg   Config
	board *task.Board

	// Published round state, valid from a Reprice until the next
	// BeginRound/Clear.
	round   int
	open    []*task.State
	rewards map[task.ID]float64
	mean    float64

	// Grow-only per-round scratch.
	grid      geo.GridIndex
	viewBuf   []incentive.TaskView
	in        incentive.RoundInput
	bidBuf    []incentive.Bid
	rewardBuf map[task.ID]float64
}

// New validates the configuration and builds an engine. Area and
// NeighborRadius are validated lazily by the first Reprice (mirroring the
// historical per-round grid construction), so drivers that never reprice
// need not provide them.
func New(cfg Config) (*Engine, error) {
	if cfg.Board == nil {
		return nil, errors.New("engine: nil board")
	}
	e := &Engine{cfg: cfg, board: cfg.Board}
	if err := e.checkCapabilities(); err != nil {
		return nil, err
	}
	return e, nil
}

// checkCapabilities verifies that the configuration can supply every
// capability the mechanism declares, so a missing input fails at
// construction (and again at reprice, covering SetMechanism swaps) rather
// than as a nil dereference mid-campaign.
func (e *Engine) checkCapabilities() error {
	m := e.cfg.Mechanism
	if m == nil {
		return nil
	}
	req := m.Requires()
	if req.Has(incentive.CapBids) && !(e.cfg.BidCostPerMeter > 0) {
		return fmt.Errorf("engine: mechanism %s requires worker bids but Config.BidCostPerMeter is %v, want > 0",
			m.Name(), e.cfg.BidCostPerMeter)
	}
	if req.Has(incentive.CapBudget) && !(e.cfg.Budget > 0) {
		return fmt.Errorf("engine: mechanism %s requires a budget but Config.Budget is %v, want > 0",
			m.Name(), e.cfg.Budget)
	}
	if req.Has(incentive.CapMobility) && e.cfg.Forecast == nil {
		return fmt.Errorf("engine: mechanism %s requires a mobility forecast but Config.Forecast is nil", m.Name())
	}
	if req.Has(incentive.CapRNG) && e.cfg.RNG == nil {
		return fmt.Errorf("engine: mechanism %s requires a seeded stream but Config.RNG is nil", m.Name())
	}
	return nil
}

// Board exposes the task board the engine runs over.
func (e *Engine) Board() *task.Board { return e.board }

// SetBoard replaces the engine's task board (a platform restoring a
// snapshot) and clears all published round state; callers reprice next.
func (e *Engine) SetBoard(b *task.Board) {
	e.board = b
	e.Clear()
}

// SetMechanism replaces the pricing mechanism used by subsequent
// Reprices (drivers let tests substitute a stub after construction).
// Already-published rewards are untouched.
func (e *Engine) SetMechanism(m incentive.Mechanism) { e.cfg.Mechanism = m }

// BeginRound starts round k: it unpublishes the previous round's rewards
// and snapshots the tasks open at k in board order. The returned slice is
// engine-owned scratch, valid until the next BeginRound; it is the same
// slice Open returns.
//
//paylint:aliases open
func (e *Engine) BeginRound(round int) []*task.State {
	e.round = round
	e.rewards = nil
	e.mean = 0
	e.open = e.board.OpenAtInto(e.open, round)
	return e.open
}

// Clear unpublishes everything (a finished campaign): no open tasks and
// no rewards. The round number is preserved.
func (e *Engine) Clear() {
	e.rewards = nil
	e.mean = 0
	e.open = e.open[:0]
}

// Reprice prices the current round's open snapshot: it counts each open
// task's neighboring users among userLocs with the reusable grid index,
// consults the mechanism, computes the mean published reward (summing in
// board order — float addition is not associative), and validates the
// rewards and the open task locations. userLocs is in user order; it also
// feeds bid construction for mechanisms that declare the bids capability.
// With no open tasks it publishes nothing and returns nil without
// consulting the mechanism. On error nothing stays published: a driver
// that keeps serving after a failed reprice serves no prices rather than
// the previous round's.
func (e *Engine) Reprice(userLocs []geo.Point) error {
	if len(e.open) == 0 {
		return nil
	}
	if e.cfg.Mechanism == nil {
		return errors.New("engine: reprice without a mechanism")
	}
	views, err := e.neighborViews(userLocs)
	if err != nil {
		return err
	}
	if err := e.checkCapabilities(); err != nil {
		return err
	}
	// Assemble exactly the inputs the mechanism declares. The RoundInput
	// and the reward map are engine-owned scratch recycled every round;
	// mechanisms consume them synchronously inside RewardsInto.
	req := e.cfg.Mechanism.Requires()
	e.in = incentive.RoundInput{Round: e.round, Views: views}
	if req.Has(incentive.CapBids) {
		e.in.Bids = e.buildBids(userLocs, views)
	}
	if req.Has(incentive.CapBudget) {
		e.in.Budget = e.cfg.Budget
	}
	if req.Has(incentive.CapMobility) {
		e.in.Mobility = e.cfg.Forecast
	}
	if req.Has(incentive.CapRNG) {
		e.in.RNG = e.cfg.RNG
	}
	if e.rewardBuf == nil {
		e.rewardBuf = make(map[task.ID]float64, len(views))
	} else {
		clear(e.rewardBuf)
	}
	// Unpublish before consulting the mechanism: clearing the recycled map
	// invalidates a previously published alias of it, and on error nothing
	// may stay published.
	e.rewards = nil
	e.mean = 0
	if err := e.cfg.Mechanism.RewardsInto(&e.in, e.rewardBuf); err != nil {
		return err
	}
	rewards := e.rewardBuf
	// A mechanism may legally return no rewards for open tasks (for
	// example when its budget is exhausted); the mean must then be zero,
	// not 0/0 = NaN, which would poison every aggregate built on it.
	mean := 0.0
	if len(rewards) > 0 {
		total := 0.0
		for _, st := range e.open {
			if r, ok := rewards[st.ID]; ok {
				total += r
			}
		}
		mean = total / float64(len(rewards))
	}
	// Validate the round's shared selection inputs once, here, instead of
	// once per user selection call: reward sanity, then task locations.
	// ProblemInto then marks its problems CandidatesValid. Scanning in
	// board order keeps the reported task deterministic when several
	// rewards are NaN.
	for _, st := range e.open {
		if r, ok := rewards[st.ID]; ok && math.IsNaN(r) {
			return fmt.Errorf("mechanism %s: NaN reward for task %d", e.cfg.Mechanism.Name(), st.ID)
		}
	}
	for _, st := range e.open {
		if !st.Location.IsFinite() {
			return fmt.Errorf("task %d: non-finite location %v", st.ID, st.Location)
		}
	}
	e.rewards = rewards
	e.mean = mean
	return nil
}

// neighborViews builds the mechanism's per-task observations for the
// current open snapshot, counting each task's neighboring users with the
// reusable grid index over the given user locations. The returned slice
// is engine-owned scratch, valid until the next Reprice (mechanisms
// consume it synchronously inside RewardsInto).
func (e *Engine) neighborViews(userLocs []geo.Point) ([]incentive.TaskView, error) {
	if err := e.grid.Reset(e.cfg.Area, e.cfg.NeighborRadius, userLocs); err != nil {
		return nil, err
	}
	if cap(e.viewBuf) < len(e.open) {
		e.viewBuf = make([]incentive.TaskView, len(e.open))
	}
	views := e.viewBuf[:len(e.open)]
	for i, st := range e.open {
		views[i] = incentive.TaskView{
			ID:        st.ID,
			Location:  st.Location,
			Deadline:  st.Deadline,
			Required:  st.Required,
			Received:  st.Received(),
			Neighbors: e.grid.CountWithin(st.Location, e.cfg.NeighborRadius),
		}
	}
	return views, nil
}

// buildBids derives one claimed-cost bid per user for mechanisms that
// declare the bids capability: worker i (the index into userLocs) claims
// BidCostPerMeter times the distance from its location to the nearest
// open task — the cheapest travel that could yield it a measurement. The
// returned slice is engine-owned scratch, in user order, valid until the
// next Reprice.
func (e *Engine) buildBids(userLocs []geo.Point, views []incentive.TaskView) []incentive.Bid {
	e.bidBuf = e.bidBuf[:0]
	for i, loc := range userLocs {
		best := math.Inf(1)
		for _, v := range views {
			if d := loc.Dist(v.Location); d < best {
				best = d
			}
		}
		if len(views) == 0 {
			best = 0
		}
		e.bidBuf = append(e.bidBuf, incentive.Bid{Worker: i, Cost: e.cfg.BidCostPerMeter * best})
	}
	return e.bidBuf
}

// Round returns the round number of the current snapshot.
func (e *Engine) Round() int { return e.round }

// Open returns the current round's open-task snapshot in board order.
// The slice is engine-owned scratch, valid until the next BeginRound.
//
//paylint:aliases open
func (e *Engine) Open() []*task.State { return e.open }

// Rewards returns the published reward map, nil when nothing is priced.
// The map is engine-owned scratch recycled by the next Reprice: read it
// before the round advances and do not retain it.
func (e *Engine) Rewards() map[task.ID]float64 { return e.rewards }

// RewardFor returns the published reward of one task and whether the
// task is priced this round.
func (e *Engine) RewardFor(id task.ID) (float64, bool) {
	r, ok := e.rewards[id]
	return r, ok
}

// MeanPublishedReward returns the mean per-measurement reward offered
// over the tasks priced this round, zero when nothing is priced.
func (e *Engine) MeanPublishedReward() float64 { return e.mean }

// Commit records one measurement by user for the task at this round's
// published reward (zero if the task is unpriced, matching the candidate
// sets ProblemInto builds without RequirePriced). Double-fill protection
// is the board's: committing to a completed, expired, or
// already-contributed task fails without mutating anything.
func (e *Engine) Commit(user int, id task.ID) (reward float64, completed bool, err error) {
	reward = e.rewards[id]
	completed, err = e.CommitPaid(user, id, reward)
	return reward, completed, err
}

// CommitPaid is Commit at an explicit payment, for drivers whose prices
// are not the published rewards (the SAT reverse auction pays winning
// bids first-price).
func (e *Engine) CommitPaid(user int, id task.ID, paid float64) (completed bool, err error) {
	st := e.board.Get(id)
	if st == nil {
		return false, fmt.Errorf("engine: commit to unknown task %d", id)
	}
	if err := st.Record(user, e.round, paid); err != nil {
		return false, err
	}
	return st.Complete(), nil
}

// CommitPlan commits one user's planned route in order at this round's
// published rewards. It returns the number of tasks committed; on error
// n < len(ids) and the failing task is ids[n] (nothing after it was
// attempted, matching a driver's sequential per-task loop).
func (e *Engine) CommitPlan(user int, ids []task.ID) (n int, err error) {
	for i, id := range ids {
		if _, _, err := e.Commit(user, id); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// StartRoundStats fills the snapshot-derived fields of a round record:
// the round number, the open-task count, and the mean published reward.
func (e *Engine) StartRoundStats(rs *metrics.RoundStats) {
	rs.Round = e.round
	rs.OpenTasks = len(e.open)
	rs.MeanPublishedReward = e.mean
}

// FinishRoundStats fills the board-derived fields of a round record after
// all commits: measurement counts, coverage, completeness, reward paid.
func (e *Engine) FinishRoundStats(rs *metrics.RoundStats) {
	rs.NewMeasurements = e.board.TotalReceivedAt(e.round)
	rs.TotalMeasurements = e.board.TotalReceived()
	rs.Coverage = e.board.CoverageBy(e.round)
	rs.Completeness = e.board.OverallCompletenessBy(e.round)
	rs.RewardPaid = e.board.TotalRewardPaid()
}

// FinishTrial fills the board-derived campaign metrics of a completed
// trial (Section VI): coverage, completeness, the measurement
// distribution, and reward totals. Driver-owned fields — identification,
// the per-round series, and the user profit metrics — are left alone.
func (e *Engine) FinishTrial(t *metrics.TrialResult) {
	t.Coverage = e.board.Coverage()
	t.OverallCompleteness = e.board.OverallCompleteness()
	t.StrictCompleteness = e.board.StrictCompleteness()
	counts := e.board.MeasurementCounts()
	t.AvgMeasurements = stats.Mean(counts)
	t.VarianceMeasurements = stats.Variance(counts)
	t.TotalMeasurements = e.board.TotalReceived()
	t.TotalRewardPaid = e.board.TotalRewardPaid()
	t.AvgRewardPerMeasurement = e.board.AverageRewardPerMeasurement()
	t.TaskGini = stats.Gini(counts)
}
