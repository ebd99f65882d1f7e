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

// TestRoundParallelismDeprecated pins both deprecated knobs,
// RoundParallelism and Shards: negative values are still rejected, other
// values validate, and the simulator ignores them — a trial at a positive
// value is byte-identical to one at 0.
func TestRoundParallelismDeprecated(t *testing.T) {
	cfg := Config{
		Workload: workload.Config{NumUsers: 40, NumTasks: 10, Required: 2},
		Rounds:   4,
	}
	for _, tt := range []struct {
		name string
		set  func(*Config, int)
		pos  int
	}{
		{"RoundParallelism", func(c *Config, v int) { c.RoundParallelism = v }, 8},
		{"Shards", func(c *Config, v int) { c.Shards = v }, 4},
	} {
		t.Run(tt.name, func(t *testing.T) {
			neg := cfg
			tt.set(&neg, -1)
			if err := neg.Validate(); err == nil {
				t.Errorf("negative %s validated", tt.name)
			}
			var trials [][]byte
			for _, v := range []int{0, tt.pos} {
				c := cfg
				tt.set(&c, v)
				if err := c.Validate(); err != nil {
					t.Fatalf("%s %d rejected: %v", tt.name, v, err)
				}
				trials = append(trials, trialJSON(t, c, 404))
			}
			if !bytes.Equal(trials[0], trials[1]) {
				t.Errorf("%s %d changed the trial JSON", tt.name, tt.pos)
			}
		})
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
