package shard

import (
	"fmt"

	"paydemand/internal/task"
)

// Commit records one measurement at this round's published reward,
// locking the owning region; see engine.Commit for the contract.
func (s *Engine) Commit(user int, id task.ID) (reward float64, completed bool, err error) {
	reward, _ = s.inner.RewardFor(id)
	completed, err = s.CommitPaid(user, id, reward)
	return reward, completed, err
}

// CommitPaid is Commit at an explicit payment. The owning region's lock
// serializes it against other commits to the same region; commits to
// different regions proceed in parallel.
func (s *Engine) CommitPaid(user int, id task.ID, paid float64) (completed bool, err error) {
	ri, ok := s.owner[id]
	if !ok {
		return false, fmt.Errorf("engine: commit to unknown task %d", id)
	}
	r := s.regions[ri]
	r.mu.Lock()
	completed, err = r.eng.CommitPaid(user, id, paid)
	r.mu.Unlock()
	return completed, err
}

// CommitPlan commits one user's planned route in order at the published
// rewards, using the two-phase cross-shard protocol: every owning
// region's lock is acquired in ascending region ID (a global order, so
// two plans crossing the same boundary cannot deadlock), the commits
// replay in plan order while all locks are held — so no other plan can
// interleave partial state into this route's regions — and the locks are
// released in reverse. Error semantics match engine.CommitPlan: n tasks
// committed, the failing task is ids[n], nothing after it was attempted.
func (s *Engine) CommitPlan(user int, ids []task.ID) (n int, err error) {
	// An unknown ID fails at its position with the prefix committed,
	// exactly like the sequential loop; only the known prefix's regions
	// are locked.
	known := len(ids)
	var unknownErr error
	for i, id := range ids {
		if _, ok := s.owner[id]; !ok {
			known = i
			unknownErr = fmt.Errorf("engine: commit to unknown task %d", id)
			break
		}
	}
	// Phase one: collect the owning regions of the (deduplicated) known
	// prefix and lock them in ascending region ID. Plans are short, so
	// an array-backed insertion set avoids allocating per plan.
	var regArr [8]*region
	regs := regArr[:0]
	for _, id := range ids[:known] {
		r := s.regions[s.owner[id]]
		seen := false
		for _, have := range regs {
			if have == r {
				seen = true
				break
			}
		}
		if !seen {
			at := len(regs)
			for at > 0 && regs[at-1].id > r.id {
				at--
			}
			regs = append(regs, nil)
			copy(regs[at+1:], regs[at:])
			regs[at] = r
		}
	}
	for _, r := range regs {
		r.mu.Lock()
	}
	// Phase two: replay the plan in order against the locked regions.
	n = known
	for i, id := range ids[:known] {
		reward, _ := s.inner.RewardFor(id)
		if _, cerr := s.regions[s.owner[id]].eng.CommitPaid(user, id, reward); cerr != nil {
			n, err = i, cerr
			break
		}
	}
	for i := len(regs) - 1; i >= 0; i-- {
		regs[i].mu.Unlock()
	}
	if err != nil {
		return n, err
	}
	if unknownErr != nil {
		return known, unknownErr
	}
	return len(ids), nil
}
