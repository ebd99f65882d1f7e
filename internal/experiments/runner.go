package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared trial-execution engine behind every
// figure runner and the crowdsim CLI. A figure sweep is a grid of
// (configuration, trial) pairs whose seeds derive deterministically from
// (Options.Seed, configuration, trial), so the pairs are independent and
// can run in any order — the engine fans them across a worker pool and
// collects results into index-ordered slots, making the aggregated output
// identical to the sequential nested loops at any parallelism level.

// FanOut runs fn(i) for every i in [0, n) across workers goroutines and
// returns the results indexed as out[i], so everything aggregated from
// them in order does not depend on the worker count. Zero workers means
// one per available CPU (GOMAXPROCS); one runs every job on the calling
// goroutine, in order, with no pool. The first error — first in index
// order among the jobs that failed — is returned and cancels jobs not
// yet started; in-flight jobs finish but their results are discarded.
// progress, when non-nil, is called after every finished job with the
// completed count and n; calls are serialized and counts increase by one.
func FanOut[T any](n, workers int, progress func(done, total int), fn func(i int) (T, error)) ([]T, error) {
	if workers < 0 {
		return nil, fmt.Errorf("experiments: workers %d, want >= 0 (0 = GOMAXPROCS)", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	out := make([]T, n)

	if workers <= 1 {
		for i := range out {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
			if progress != nil {
				progress(i+1, n)
			}
		}
		return out, nil
	}

	var (
		next atomic.Int64 // next job index to claim
		stop atomic.Bool  // set on first failure; unclaimed jobs exit

		// mu guards firstErr/firstErrIdx and the done count, which is
		// bumped and reported under one hold so progress sees 1, 2, ...
		// in order.
		mu          sync.Mutex
		firstErr    error
		firstErrIdx = math.MaxInt
		done        int

		wg sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1))
				if idx >= n || stop.Load() {
					return
				}
				v, err := fn(idx)
				if err != nil {
					stop.Store(true)
					mu.Lock()
					// Keep the error of the earliest job so the report is
					// stable when several jobs fail concurrently.
					if idx < firstErrIdx {
						firstErr, firstErrIdx = err, idx
					}
					mu.Unlock()
					return
				}
				out[idx] = v
				if progress != nil {
					mu.Lock()
					done++
					progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runTrials executes run(config, trial) for every pair in
// [0, configs) x [0, o.Trials) on FanOut, at o.Parallelism workers with
// o.Progress, and returns the results indexed as out[config][trial].
func runTrials[T any](o Options, configs int, run func(config, trial int) (T, error)) ([][]T, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	flat, err := FanOut(configs*o.Trials, o.Parallelism, o.Progress, func(i int) (T, error) {
		return run(i/o.Trials, i%o.Trials)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, configs)
	for c := range out {
		out[c] = flat[c*o.Trials : (c+1)*o.Trials : (c+1)*o.Trials]
	}
	return out, nil
}
