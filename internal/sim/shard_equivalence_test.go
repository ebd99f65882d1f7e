package sim

import (
	"bytes"
	"testing"

	"paydemand/internal/workload"
)

// TestShardedTrialDeterminism is the geo-sharded engine's end-to-end
// golden test: trial JSON must be byte-identical between the historical
// single engine (Shards=0) and the sharded engine at every region count.
func TestShardedTrialDeterminism(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{
			// Paper-shaped workload.
			name: "paper",
			cfg: Config{
				Workload: workload.Config{NumUsers: 60, NumTasks: 15, Required: 6},
				Rounds:   6,
			},
		},
		{
			// Mobility + churn: users walk across region boundaries between
			// rounds, so the halo mirroring and partition window are
			// re-exercised with fresh geometry every round.
			name: "churn",
			cfg: Config{
				Workload:  workload.Config{NumUsers: 40, NumTasks: 12, Required: 4},
				Rounds:    5,
				ChurnRate: 0.1,
				Mobility:  MobilityRandomWaypoint,
			},
		},
		{
			// Bids + budget capability: the auction's bid assembly must be a
			// function of the global user slice, not of any per-region view.
			name: "auction",
			cfg: Config{
				Workload:  workload.Config{NumUsers: 50, NumTasks: 12, Required: 4},
				Rounds:    5,
				Mechanism: MechanismAuction,
			},
		},
		{
			// Mobility-forecast capability under moving users.
			name: "incentme",
			cfg: Config{
				Workload:            workload.Config{NumUsers: 50, NumTasks: 12, Required: 4},
				Rounds:              5,
				Mechanism:           MechanismIncentMe,
				Mobility:            MobilityRandomWaypoint,
				MobilityUncertainty: 0.3,
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			base := trialJSON(t, sc.cfg, 1717)
			for _, shards := range []int{1, 2, 4} {
				cfg := sc.cfg
				cfg.Shards = shards
				got := trialJSON(t, cfg, 1717)
				if !bytes.Equal(base, got) {
					t.Errorf("shards=%d: trial JSON differs from single engine (lens %d vs %d)",
						shards, len(got), len(base))
				}
			}
		})
	}
}

// TestShardsValidation pins the config contract: negative shard counts
// are rejected, and Shards composes with every algorithm.
func TestShardsValidation(t *testing.T) {
	cfg := Config{
		Workload: workload.Config{NumUsers: 10, NumTasks: 5, Required: 2},
		Rounds:   2,
		Shards:   -1,
	}
	if _, err := New(cfg, 1); err == nil {
		t.Fatal("negative shards accepted")
	}
	for _, alg := range []AlgorithmKind{AlgorithmGreedy, AlgorithmAuto} {
		cfg := Config{
			Workload:  workload.Config{NumUsers: 10, NumTasks: 5, Required: 2},
			Rounds:    2,
			Shards:    3,
			Algorithm: alg,
		}
		s, err := New(cfg, 1)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if _, err := s.Run(nil); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}
