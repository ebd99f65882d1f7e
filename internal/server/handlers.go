package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"paydemand/internal/aggregate"
	"paydemand/internal/engine"
	"paydemand/internal/reputation"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// maxBodyBytes bounds request bodies; crowdsensing uploads are small.
const maxBodyBytes = 1 << 20

// budgetTol absorbs floating-point accumulation error in the hard budget
// comparison.
const budgetTol = 1e-9

// writeJSON writes v with the given status.
func (p *Platform) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		p.logger.Error("encode response", "err", err)
	}
}

// writeError writes a JSON error body.
func (p *Platform) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	p.writeJSON(w, status, wire.Error{Message: fmt.Sprintf(format, args...)})
}

// decode parses a bounded JSON request body.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleRegister assigns a worker ID and records the starting location.
func (p *Platform) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if err := decode(r, &req); err != nil {
		p.writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if !req.Location.IsFinite() {
		p.writeError(w, http.StatusBadRequest, "non-finite location")
		return
	}
	p.mu.Lock()
	p.nextID++
	id := p.nextID
	p.workers[id] = req.Location
	p.mu.Unlock()
	p.logger.Info("worker registered", "user_id", id)
	p.writeJSON(w, http.StatusOK, wire.RegisterResponse{UserID: id})
}

// handleRound publishes the current round. A round whose reprice failed
// is reported as an error rather than served as an empty task list: the
// platform has no prices, which is an operational fault, not a finished
// campaign.
//
// A poller that already holds the current round's prices says so with the
// X-Known-Round header (or ?known= for curl debugging) and gets a tiny
// Unchanged response instead of the full task list — steady-state polling
// between advances costs O(1) in both codecs. The short-circuit never
// fires on a done campaign (the worker must see Done to exit) or a failed
// reprice.
func (p *Platform) handleRound(w http.ResponseWriter, r *http.Request) {
	known := 0
	if v := r.Header.Get(wire.HeaderKnownRound); v != "" {
		known, _ = strconv.Atoi(v)
	} else if r.URL.RawQuery != "" {
		if v := r.URL.Query().Get("known"); v != "" {
			known, _ = strconv.Atoi(v)
		}
	}
	p.mu.Lock()
	if err := p.repriceErr; err != nil {
		p.mu.Unlock()
		p.writeError(w, http.StatusInternalServerError, "reprice failed: %v", err)
		return
	}
	if known > 0 && known == p.round && !p.done {
		round := p.round
		p.mu.Unlock()
		p.writeRoundInfo(w, r, wire.RoundInfo{Round: round, Unchanged: true})
		return
	}
	info := p.roundInfoLocked()
	p.mu.Unlock()
	p.writeRoundInfo(w, r, info)
}

// writeRoundInfo writes a round response in the negotiated codec.
func (p *Platform) writeRoundInfo(w http.ResponseWriter, r *http.Request, info wire.RoundInfo) {
	if acceptsTLV(r) {
		buf := binary.GetBuffer()
		*buf = binary.AppendRoundInfo((*buf)[:0], &info)
		p.writeRaw(w, http.StatusOK, binary.ContentType, *buf)
		binary.PutBuffer(buf)
		return
	}
	p.writeJSON(w, http.StatusOK, info)
}

// handleSubmit accepts a worker's measurements for the current round.
func (p *Platform) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.SubmitRequest
	if contentIsTLV(r) {
		body, err := readBody(r)
		if err == nil {
			err = binary.DecodeSubmitRequest(*body, &req)
			binary.PutBuffer(body)
		}
		if err != nil {
			p.writeError(w, http.StatusBadRequest, "bad submit body: %v", err)
			return
		}
	} else if err := decode(r, &req); err != nil {
		p.writeError(w, http.StatusBadRequest, "bad submit body: %v", err)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	if _, known := p.workers[req.UserID]; !known {
		p.writeError(w, http.StatusNotFound, "unknown worker %d", req.UserID)
		return
	}
	if p.done {
		p.writeError(w, http.StatusConflict, "campaign is done")
		return
	}
	if req.Round != p.round {
		p.writeError(w, http.StatusConflict, "stale round %d, current is %d", req.Round, p.round)
		return
	}
	if req.Location.IsFinite() {
		p.workers[req.UserID] = req.Location
	}

	resp := wire.SubmitResponse{}
	board := p.eng.Board()
	for _, m := range req.Measurements {
		res := wire.SubmitResult{TaskID: m.TaskID}
		switch {
		case board.Get(m.TaskID) == nil:
			res.Reason = "unknown task"
		case !finite(m.Value):
			// A NaN or infinite reading would be paid for and then poison
			// the task's aggregate estimate and reputation scoring.
			res.Reason = "non-finite value"
		default:
			reward, priced := p.eng.RewardFor(m.TaskID)
			if !priced {
				res.Reason = "task not published this round"
				break
			}
			if p.cfg.HardBudget > 0 && board.TotalRewardPaid()+reward > p.cfg.HardBudget+budgetTol {
				res.Reason = "budget exhausted"
				break
			}
			completed, err := p.eng.CommitPaid(req.UserID, m.TaskID, reward)
			if err != nil {
				res.Reason = recordReason(err)
				break
			}
			res.Accepted = true
			res.Reward = reward
			resp.TotalPaid += reward
			p.statusDirty = true
			p.contribs[m.TaskID] = append(p.contribs[m.TaskID], reputation.Contribution{
				User:  req.UserID,
				Value: m.Value,
			})
			if p.cfg.Reputation != nil && completed {
				p.scoreContributorsLocked(m.TaskID)
			}
		}
		resp.Results = append(resp.Results, res)
	}
	p.logger.Info("submission",
		"user_id", req.UserID, "round", p.round,
		"uploaded", len(req.Measurements), "paid", resp.TotalPaid)
	if acceptsTLV(r) {
		buf := binary.GetBuffer()
		*buf = binary.AppendSubmitResponse((*buf)[:0], &resp)
		p.writeRaw(w, http.StatusOK, binary.ContentType, *buf)
		binary.PutBuffer(buf)
		return
	}
	p.writeJSON(w, http.StatusOK, resp)
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// recordReason maps task.Record errors to stable protocol strings.
func recordReason(err error) string {
	switch {
	case errors.Is(err, task.ErrAlreadyContributed):
		return "already contributed"
	case errors.Is(err, task.ErrCompleted):
		return "task complete"
	case errors.Is(err, task.ErrExpired):
		return "task expired"
	default:
		return err.Error()
	}
}

// handlePlan solves a worker's task selection problem against the current
// round's published rewards. The round state (candidates, shared distance
// context, round number) is snapshotted under the lock, but the solve
// itself runs outside it on a pooled solver, so any number of workers can
// plan concurrently without serializing behind each other or blocking
// uploads.
func (p *Platform) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req wire.PlanRequest
	if contentIsTLV(r) {
		body, err := readBody(r)
		if err == nil {
			err = binary.DecodePlanRequest(*body, &req)
			binary.PutBuffer(body)
		}
		if err != nil {
			p.writeError(w, http.StatusBadRequest, "bad plan body: %v", err)
			return
		}
	} else if err := decode(r, &req); err != nil {
		p.writeError(w, http.StatusBadRequest, "bad plan body: %v", err)
		return
	}
	if !req.Location.IsFinite() {
		p.writeError(w, http.StatusBadRequest, "non-finite location")
		return
	}
	// The TLV codec carries IEEE bits, so NaN and ±Inf do arrive here.
	if req.Speed <= 0 || !finite(req.Speed) {
		p.writeError(w, http.StatusBadRequest, "speed %v, want finite and > 0", req.Speed)
		return
	}
	if req.TimeBudget < 0 || !finite(req.TimeBudget) {
		p.writeError(w, http.StatusBadRequest, "time budget %v, want finite and >= 0", req.TimeBudget)
		return
	}
	if req.CostPerMeter < 0 || !finite(req.CostPerMeter) {
		p.writeError(w, http.StatusBadRequest, "cost per meter %v, want finite and >= 0", req.CostPerMeter)
		return
	}

	p.mu.Lock()
	if _, known := p.workers[req.UserID]; !known {
		p.mu.Unlock()
		p.writeError(w, http.StatusNotFound, "unknown worker %d", req.UserID)
		return
	}
	if p.done {
		p.mu.Unlock()
		p.writeError(w, http.StatusConflict, "campaign is done")
		return
	}
	p.workers[req.UserID] = req.Location
	round := p.round
	// The candidate buffer is per-request (nil, so ProblemInto allocates):
	// the problem escapes the lock, and with its own buffer it references
	// no engine storage, so a concurrent Advance cannot change the solve.
	problem, _ := p.eng.ProblemInto(engine.Spec{
		Start:        req.Location,
		MaxDistance:  req.Speed * req.TimeBudget,
		CostPerMeter: req.CostPerMeter,
	}, engine.Worker(req.UserID), nil)
	p.mu.Unlock()

	alg := p.planners.Get()
	plan, err := alg.Select(problem)
	p.planners.Put(alg)
	if err != nil {
		p.writeError(w, http.StatusInternalServerError, "plan: %v", err)
		return
	}
	p.logger.Info("plan solved",
		"user_id", req.UserID, "round", round,
		"candidates", len(problem.Candidates), "selected", plan.Len(), "profit", plan.Profit)
	resp := wire.PlanResponse{
		Round:    round,
		Order:    plan.Order,
		Distance: plan.Distance,
		Reward:   plan.Reward,
		Cost:     plan.Cost,
		Profit:   plan.Profit,
	}
	if acceptsTLV(r) {
		buf := binary.GetBuffer()
		*buf = binary.AppendPlanResponse((*buf)[:0], &resp)
		p.writeRaw(w, http.StatusOK, binary.ContentType, *buf)
		binary.PutBuffer(buf)
		return
	}
	p.writeJSON(w, http.StatusOK, resp)
}

// handleAdvance moves to the next round.
func (p *Platform) handleAdvance(w http.ResponseWriter, r *http.Request) {
	round, done, err := p.Advance()
	if err != nil {
		p.writeError(w, http.StatusInternalServerError, "advance: %v", err)
		return
	}
	p.writeJSON(w, http.StatusOK, wire.AdvanceResponse{Round: round, Done: done})
}

// handleStatus reports the platform's metric snapshot. The board-derived
// aggregates (each an O(tasks) walk) are cached and recomputed only when
// something changed since the last hit (p.statusDirty); the open-task
// count reuses the engine's cached open snapshot instead of re-scanning
// the board, counting the snapshot entries still open — the same
// filtering /v1/round applies, so status and round agree on what is
// published. Only the cheap per-hit fields (round, done, worker count)
// and the cache refresh run under the mutex; marshaling happens outside
// it.
func (p *Platform) handleStatus(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	if p.statusDirty {
		board := p.eng.Board()
		openTasks := 0
		for _, st := range p.eng.Open() {
			if st.OpenAt(p.round) {
				openTasks++
			}
		}
		p.statusCache = wire.StatusResponse{
			OpenTasks:               openTasks,
			TotalMeasurements:       board.TotalReceived(),
			Coverage:                board.Coverage(),
			OverallCompleteness:     board.OverallCompleteness(),
			TotalRewardPaid:         board.TotalRewardPaid(),
			AvgRewardPerMeasurement: board.AverageRewardPerMeasurement(),
		}
		p.statusDirty = false
	}
	resp := p.statusCache
	resp.Round = p.round
	resp.Done = p.done
	resp.Workers = len(p.workers)
	p.mu.Unlock()
	p.writeJSON(w, http.StatusOK, resp)
}

// scoreContributorsLocked updates the reputation of every contributor of
// a completed task against the aggregated consensus. Callers hold p.mu.
func (p *Platform) scoreContributorsLocked(id task.ID) {
	est, err := aggregate.Aggregate(p.cfg.Aggregation, p.valuesLocked(id))
	if err != nil {
		p.logger.Error("reputation aggregate", "task", id, "err", err)
		return
	}
	p.cfg.Reputation.ObserveTask(p.contribs[id], est.Value, p.cfg.ReputationTolerance)
}

// handleReputation returns the reputation score for ?user=ID.
func (p *Platform) handleReputation(w http.ResponseWriter, r *http.Request) {
	if p.cfg.Reputation == nil {
		p.writeError(w, http.StatusNotFound, "reputation tracking disabled")
		return
	}
	raw := r.URL.Query().Get("user")
	id, err := strconv.Atoi(raw)
	if err != nil {
		p.writeError(w, http.StatusBadRequest, "bad user id %q", raw)
		return
	}
	p.mu.Lock()
	_, known := p.workers[id]
	score := p.cfg.Reputation.Score(id)
	obs := p.cfg.Reputation.Observations(id)
	p.mu.Unlock()
	if !known {
		p.writeError(w, http.StatusNotFound, "unknown worker %d", id)
		return
	}
	p.writeJSON(w, http.StatusOK, wire.ReputationResponse{
		UserID:       id,
		Score:        score,
		Observations: obs,
	})
}

// handleEstimate returns the aggregated estimate for ?task=ID.
func (p *Platform) handleEstimate(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("task")
	if raw == "" {
		p.writeError(w, http.StatusBadRequest, "missing task parameter")
		return
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		p.writeError(w, http.StatusBadRequest, "bad task id %q", raw)
		return
	}
	if p.eng.Board().Get(task.ID(id)) == nil {
		p.writeError(w, http.StatusNotFound, "unknown task %d", id)
		return
	}
	est, err := p.Estimate(task.ID(id))
	if err != nil {
		if errors.Is(err, aggregate.ErrNoData) {
			p.writeError(w, http.StatusNotFound, "task %d has no measurements", id)
			return
		}
		p.writeError(w, http.StatusInternalServerError, "aggregate: %v", err)
		return
	}
	p.writeJSON(w, http.StatusOK, wire.EstimateResponse{
		TaskID:        task.ID(id),
		Value:         est.Value,
		N:             est.N,
		Rejected:      est.Rejected,
		StdDev:        est.StdDev,
		MarginOfError: est.MarginOfError,
	})
}

// handleHealth is the liveness probe.
func (p *Platform) handleHealth(w http.ResponseWriter, r *http.Request) {
	p.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
