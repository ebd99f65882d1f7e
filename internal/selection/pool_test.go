package selection

import (
	"fmt"
	"sync"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

func TestSolverPoolRecycles(t *testing.T) {
	built := 0
	pool := NewSolverPool(func() Algorithm {
		built++
		return &Greedy{}
	})
	a := pool.Get()
	if built != 1 {
		t.Fatalf("built %d instances, want 1", built)
	}
	pool.Put(a)
	if pool.Idle() != 1 {
		t.Fatalf("idle = %d, want 1", pool.Idle())
	}
	b := pool.Get()
	if b != a {
		t.Error("Get after Put did not return the recycled instance")
	}
	if built != 1 {
		t.Errorf("built %d instances, want 1 (recycled)", built)
	}
	c := pool.Get()
	if c == b {
		t.Error("second concurrent Get returned the same instance")
	}
	if built != 2 {
		t.Errorf("built %d instances, want 2", built)
	}
	pool.Put(nil) // must be a no-op
	if pool.Idle() != 0 {
		t.Errorf("Put(nil) changed the free list: idle = %d", pool.Idle())
	}
}

func TestSolverPoolNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSolverPool(nil) did not panic")
		}
	}()
	NewSolverPool(nil)
}

// TestSolverPoolConcurrentStress hammers one pool from many goroutines,
// each repeatedly checking out a solver, solving a randomized instance,
// and returning it. Run under -race (CI does) this verifies that pooled
// instances are never shared between concurrent solves. Every result is
// cross-checked against a goroutine-private solver on the same instance,
// which would diverge if scratch leaked between users of one instance.
func TestSolverPoolConcurrentStress(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func() Algorithm
	}{
		{"greedy", func() Algorithm { return &Greedy{} }},
		{"dp", func() Algorithm { return &DP{} }},
		{"auto", func() Algorithm { return &Auto{Threshold: 8} }},
		{"greedy+2opt", func() Algorithm { return &TwoOptGreedy{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewSolverPool(tc.factory)
			const goroutines = 8
			const iters = 40
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := stats.NewRNG(int64(1000 + g))
					private := tc.factory()
					for i := 0; i < iters; i++ {
						p := randomPoolProblem(rng)
						alg := pool.Get()
						got, err := alg.Select(p)
						pool.Put(alg)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d iter %d: %v", g, i, err)
							return
						}
						want, err := private.Select(p)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d iter %d private: %v", g, i, err)
							return
						}
						if !plansEqual(got, want) {
							errs <- fmt.Errorf("goroutine %d iter %d: pooled plan %v != private plan %v",
								g, i, got.Order, want.Order)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if pool.Idle() > goroutines {
				t.Errorf("idle = %d instances after %d goroutines finished", pool.Idle(), goroutines)
			}
		})
	}
}

// randomPoolProblem draws a small instance (kept under the DP cap).
func randomPoolProblem(rng *stats.RNG) Problem {
	n := rng.IntBetween(0, 10)
	p := Problem{
		Start:        geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
		MaxDistance:  rng.Uniform(200, 1500),
		CostPerMeter: 0.002,
	}
	for i := 0; i < n; i++ {
		p.Candidates = append(p.Candidates, Candidate{
			ID:       task.ID(i + 1),
			Location: geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
			Reward:   rng.Uniform(0.5, 3),
		})
	}
	return p
}

// plansEqual compares the fields that define a plan's identity.
func plansEqual(a, b Plan) bool {
	if len(a.Order) != len(b.Order) {
		return false
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return false
		}
	}
	return a.Distance == b.Distance && a.Reward == b.Reward &&
		a.Cost == b.Cost && a.Profit == b.Profit
}
