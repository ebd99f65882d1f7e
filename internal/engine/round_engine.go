package engine

import (
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/task"
)

// RoundEngine is the round state machine as drivers see it: the full
// per-round pipeline (snapshot, reprice, plan assembly, commit, stats)
// plus the published-state accessors. *Engine is the canonical
// implementation; internal/shard.Engine implements it by partitioning the
// geometric phase across regions while keeping pricing global. Drivers
// (internal/sim, internal/server) hold this interface so a `Shards`
// config knob swaps the engine without touching the round loop.
//
// The concurrency contract is the implementation's: mutating calls
// (BeginRound, Reprice*, Clear, Set*) are serialized by the driver;
// read-only accessors and ProblemInto are safe between mutations. Commit
// methods are driver-serialized on *Engine but internally locked on the
// sharded engine; either way a driver that serializes them sees
// identical results.
type RoundEngine interface {
	// Board and configuration.
	Board() *task.Board
	SetBoard(*task.Board)
	SetMechanism(incentive.Mechanism)

	// Round lifecycle.
	BeginRound(round int) []*task.State
	Clear()
	Reprice(userLocs []geo.Point) error

	// Published round state.
	Round() int
	Open() []*task.State
	Rewards() map[task.ID]float64
	RewardFor(id task.ID) (float64, bool)
	MeanPublishedReward() float64
	Context() *selection.RoundContext
	HoldContext() ContextHold

	// Plan assembly and commit.
	ProblemInto(spec Spec, who Actor, buf []selection.Candidate) (selection.Problem, []selection.Candidate)
	Commit(user int, id task.ID) (reward float64, completed bool, err error)
	CommitPaid(user int, id task.ID, paid float64) (completed bool, err error)
	CommitPlan(user int, ids []task.ID) (n int, err error)

	// Statistics.
	StartRoundStats(rs *metrics.RoundStats)
	FinishRoundStats(rs *metrics.RoundStats)
	FinishTrial(t *metrics.TrialResult)
}

var _ RoundEngine = (*Engine)(nil)
