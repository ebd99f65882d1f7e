package engine

import (
	"fmt"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/mobility"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// benchWorld is one synthetic repricing workload: a board of open tasks
// and a user population, both uniform over the area.
type benchWorld struct {
	board  *task.Board
	mech   incentive.Mechanism
	scheme incentive.RewardScheme
	budget float64
	area   geo.Rect
	users  []geo.Point
}

func newBenchWorld(b *testing.B, users, tasks int) benchWorld {
	b.Helper()
	area := geo.Square(3000)
	rng := stats.NewRNG(int64(1000*users + tasks))
	ts := make([]task.Task, tasks)
	for i := range ts {
		ts[i] = task.Task{
			ID:       task.ID(i + 1),
			Location: geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000)),
			Deadline: 50,
			Required: 20,
		}
	}
	board, err := task.NewBoard(ts)
	if err != nil {
		b.Fatal(err)
	}
	// Budget scales with the workload so every grid point can fund its
	// level-1 rewards (Eq. 8 requires r0 > 0).
	budget := 10 * float64(board.TotalRequired())
	scheme, err := incentive.SchemeFromBudget(budget, board.TotalRequired(), 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		b.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		b.Fatal(err)
	}
	locs := make([]geo.Point, users)
	for i := range locs {
		locs[i] = geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000))
	}
	return benchWorld{board: board, mech: mech, scheme: scheme, budget: budget, area: area, users: locs}
}

// benchEngine builds a long-lived engine priced by the named mechanism,
// with whatever capability inputs it declares wired into the config.
func benchEngine(b *testing.B, w benchWorld, kind string) *Engine {
	b.Helper()
	cfg := Config{Board: w.board, Area: w.area, NeighborRadius: 500}
	var err error
	switch kind {
	case "on-demand":
		cfg.Mechanism = w.mech
	case "fixed":
		cfg.Mechanism, err = incentive.NewFixed(w.scheme)
		cfg.RNG = stats.NewRNG(1)
	case "auction":
		cfg.Mechanism = incentive.NewAuction()
		cfg.Budget = w.budget
		cfg.BidCostPerMeter = 0.002
	case "incentme":
		cfg.Mechanism, err = incentive.NewIncentMe(w.scheme)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Forecast, err = mobility.NewForecast(mobility.Stationary{}, 0.2, w.area, 500, len(w.users))
	default:
		b.Fatalf("unknown bench mechanism %q", kind)
	}
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkReprice measures one full round repricing — open snapshot,
// neighbor counting, mechanism pricing, location validation — over a
// mechanism x users x tasks grid, comparing the engine's recycled
// scratch against the pre-engine approach of rebuilding every structure
// per round.
//
//   - engine/<mechanism>: BeginRound + Reprice on one long-lived Engine,
//     priced by the named mechanism with its capability inputs wired in.
//     Steady state allocates nothing (the grid, views, bids, and rewards
//     are grow-only scratch; see TestRepriceSteadyStateAllocs).
//   - rebuild: what the HTTP platform did before the engine existed —
//     a fresh grid index and view slice every round, priced on-demand.
func BenchmarkReprice(b *testing.B) {
	for _, users := range []int{50, 200, 1000} {
		for _, tasks := range []int{20, 100} {
			name := fmt.Sprintf("users=%d/tasks=%d", users, tasks)
			for _, kind := range []string{"on-demand", "fixed", "auction", "incentme"} {
				b.Run("engine/"+kind+"/"+name, func(b *testing.B) {
					w := newBenchWorld(b, users, tasks)
					eng := benchEngine(b, w, kind)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng.BeginRound(1)
						if err := eng.Reprice(w.users); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run("rebuild/"+name, func(b *testing.B) {
				w := newBenchWorld(b, users, tasks)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					open := w.board.OpenAt(1)
					grid, err := geo.NewGridIndex(w.area, 500, w.users)
					if err != nil {
						b.Fatal(err)
					}
					views := make([]incentive.TaskView, len(open))
					for j, st := range open {
						views[j] = incentive.TaskView{
							ID:        st.ID,
							Location:  st.Location,
							Deadline:  st.Deadline,
							Required:  st.Required,
							Received:  st.Received(),
							Neighbors: grid.CountWithin(st.Location, 500),
						}
					}
					rewards, err := w.mech.Rewards(&incentive.RoundInput{Round: 1, Views: views})
					if err != nil {
						b.Fatal(err)
					}
					if len(rewards) == 0 {
						b.Fatal("no rewards")
					}
				}
			})
		}
	}
}
