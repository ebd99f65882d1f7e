package sim

import (
	"fmt"
	"testing"

	"paydemand/internal/stats"
	"paydemand/internal/workload"
)

// BenchmarkRunRound times the simulation's inner loop — one full sensing
// round: reward update, per-user distributed selection, upload, and
// bookkeeping — over a users x tasks grid. The scenario is generated once
// per configuration; each iteration rebuilds the simulation outside the
// timer and runs the first three rounds inside it, so the measurement
// covers exactly the per-round hot path the round-level cache targets.
func BenchmarkRunRound(b *testing.B) {
	const benchRounds = 3
	grids := []struct{ users, tasks int }{
		{50, 20},
		{200, 20},
		{200, 40},
	}
	for _, alg := range []AlgorithmKind{AlgorithmGreedy, AlgorithmAuto} {
		for _, g := range grids {
			name := fmt.Sprintf("%s/users=%d/tasks=%d", alg, g.users, g.tasks)
			b.Run(name, func(b *testing.B) {
				cfg := Config{
					Workload:  workload.Config{NumUsers: g.users, NumTasks: g.tasks},
					Algorithm: alg,
					Rounds:    benchRounds,
					// Scale the reward budget with the task count so every
					// grid point can fund level-1 rewards (20 tasks matches
					// the paper-default budget of 1000).
					Budget: 50 * float64(g.tasks),
				}
				sc, err := workload.Generate(stats.NewRNG(42), cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := NewFromScenario(cfg, sc, 7)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for k := 1; k <= benchRounds; k++ {
						if _, err := s.runRound(k, BaseObserver{}); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
