package engine

import (
	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/task"
)

// Actor is the engine's view of one acting user when assembling its
// candidate set: an identity to check against the board's contribution
// records, plus the actor's own memory of performed tasks (drivers that
// track none use Worker). *agent.User implements Actor.
type Actor interface {
	// ActorID is the user's ID as recorded in task contributions.
	ActorID() int
	// HasDone reports whether the actor already performed the task.
	HasDone(id task.ID) bool
}

// Worker is the Actor of a driver with no user-side memory (the HTTP
// platform knows only the board's contribution records): just an ID.
type Worker int

// ActorID implements Actor.
func (w Worker) ActorID() int { return int(w) }

// HasDone implements Actor.
func (Worker) HasDone(task.ID) bool { return false }

// Spec is the user-dependent half of a selection problem: where the user
// stands and what its budget converts to. The engine supplies the
// round-dependent half (candidates and prices).
type Spec struct {
	// Start is the user's current location.
	Start geo.Point
	// MaxDistance is the travel budget in meters (speed times time
	// budget).
	MaxDistance float64
	// CostPerMeter converts traveled distance to cost.
	CostPerMeter float64
	// PerTaskDistance is extra budget consumed per selected task
	// (sensing time times speed); zero when sensing is instantaneous.
	PerTaskDistance float64
}

// ProblemInto assembles one actor's selection problem for the current
// round into a caller-owned candidate buffer, returning the problem and
// the (possibly re-grown) buffer: every task of the open snapshot still
// accepting measurements that the actor has not contributed to, priced
// at this round's rewards, in board order. The round's shared inputs were
// validated by Reprice, so the problem is marked CandidatesValid and
// solvers skip the per-candidate re-validation.
//
// ProblemInto only reads engine state, so any number of goroutines may
// call it concurrently (over distinct buffers) between engine mutations.
// The problem references no engine storage beyond buf: solving it after
// the round advances yields the plan it would have yielded before.
func (e *Engine) ProblemInto(spec Spec, who Actor, buf []selection.Candidate) (selection.Problem, []selection.Candidate) {
	p := selection.Problem{
		Start:           spec.Start,
		MaxDistance:     spec.MaxDistance,
		CostPerMeter:    spec.CostPerMeter,
		PerTaskDistance: spec.PerTaskDistance,
		CandidatesValid: true,
	}
	buf = buf[:0]
	id := who.ActorID()
	for _, st := range e.open {
		if !st.OpenAt(e.round) || st.Contributed(id) || who.HasDone(st.ID) {
			continue
		}
		reward, priced := e.rewards[st.ID]
		if e.cfg.RequirePriced && !priced {
			continue
		}
		buf = append(buf, selection.Candidate{
			ID:       st.ID,
			Location: st.Location,
			Reward:   reward,
		})
	}
	p.Candidates = buf
	return p, buf
}
