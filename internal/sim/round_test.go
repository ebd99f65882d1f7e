package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"paydemand/internal/selection"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// trialJSON runs one simulation and returns its serialized result.
func trialJSON(t *testing.T, cfg Config, seed int64) []byte {
	t.Helper()
	s, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRoundParallelismDeprecated pins the deprecated knob: negative values
// are still rejected, other values validate, and the simulator ignores
// them — a trial at 8 is byte-identical to one at 0.
func TestRoundParallelismDeprecated(t *testing.T) {
	cfg := Config{
		Workload: workload.Config{NumUsers: 40, NumTasks: 10, Required: 2},
		Rounds:   4,
	}
	neg := cfg
	neg.RoundParallelism = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative RoundParallelism validated")
	}
	var trials [][]byte
	for _, rp := range []int{0, 8} {
		c := cfg
		c.RoundParallelism = rp
		if err := c.Validate(); err != nil {
			t.Fatalf("RoundParallelism %d rejected: %v", rp, err)
		}
		trials = append(trials, trialJSON(t, c, 404))
	}
	if !bytes.Equal(trials[0], trials[1]) {
		t.Error("RoundParallelism 8 changed the trial JSON")
	}
}

// TestPhiOnePlansShareNoTask pins the phi cap under contention: with
// phi = 1 and far more users than tasks, every user sees the uploads of
// those before it, so no two plans of the campaign may share a task.
func TestPhiOnePlansShareNoTask(t *testing.T) {
	cfg := Config{
		Workload:  workload.Config{NumUsers: 60, NumTasks: 10, Required: 1},
		Rounds:    3,
		Algorithm: AlgorithmGreedy,
	}
	s, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	plans := 0
	planned := make(map[task.ID]bool)
	obs := &planRecorder{onPlan: func(plan selection.Plan) {
		plans++
		for _, id := range plan.Order {
			if planned[id] {
				t.Errorf("task %d planned by two users despite phi = 1", id)
			}
			planned[id] = true
		}
	}}
	if _, err := s.Run(obs); err != nil {
		t.Fatal(err)
	}
	if plans < 2 {
		t.Fatalf("%d non-empty plans, want contention between at least 2", plans)
	}
}

type planRecorder struct {
	BaseObserver
	onPlan func(selection.Plan)
}

func (r *planRecorder) UserPlanned(_ int, _ int, _ selection.Problem, plan selection.Plan) {
	if !plan.Empty() {
		r.onPlan(plan)
	}
}
