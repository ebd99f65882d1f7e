package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"paydemand/internal/geo"
	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// campaignSpec describes a campaign workload: the sweep of simulation
// configurations it cycles through and how many distinct scenarios it
// generates per configuration.
type campaignSpec struct {
	configs []sim.Config
	// pool is the number of scenarios generated per configuration; the
	// timed loop cycles through them.
	pool int
	// warmup is the number of untimed trials per configuration run before
	// timing starts.
	warmup int
	// equivTrials is how many of the first timed trials are re-run with
	// the round context disabled and must give the same bytes.
	equivTrials int
	// unshardedTrials is how many of the first timed trials are re-run on
	// the unsharded engine and must give the same bytes.
	unshardedTrials int
}

// paperSpec is the Fig. 6-9 sweep at paper defaults: on-demand, fixed
// and steered at 40..140 users, 20 tasks, phi = 20, deadlines U{5..15},
// a 3000 m square, B = $1000 and the auto solver.
func paperSpec(smoke bool) campaignSpec {
	users := []int{40, 60, 80, 100, 120, 140}
	pool := 64
	if smoke {
		users = []int{40, 60}
		pool = 2
	}
	var cfgs []sim.Config
	for _, mech := range []sim.MechanismKind{sim.MechanismOnDemand, sim.MechanismFixed, sim.MechanismSteered} {
		for _, n := range users {
			cfgs = append(cfgs, sim.Config{
				Workload:  workload.Config{NumUsers: n},
				Mechanism: mech,
				Algorithm: sim.AlgorithmAuto,
			})
		}
	}
	return campaignSpec{configs: cfgs, pool: pool, warmup: 1, equivTrials: len(cfgs)}
}

// citySpec is the sparse city-scale campaign: 5,000 users and 400 tasks
// in a 20 km square, phi = 50, B = $100,000, the auto solver and the
// geo-sharded engine with 4 regions.
func citySpec(smoke bool) campaignSpec {
	wl := workload.Config{NumUsers: 5000, NumTasks: 400, Required: 50, Area: geo.Square(20000)}
	pool, warmup := 32, 2
	if smoke {
		wl = workload.Config{NumUsers: 400, NumTasks: 40, Required: 10, Area: geo.Square(6000)}
		pool, warmup = 2, 1
	}
	cfg := sim.Config{
		Workload:  wl,
		Mechanism: sim.MechanismOnDemand,
		Algorithm: sim.AlgorithmAuto,
		Budget:    100000,
		Shards:    4,
	}
	return campaignSpec{configs: []sim.Config{cfg}, pool: pool, warmup: warmup, unshardedTrials: 1}
}

func runCampaignPaper(opts options) (*outcome, error) {
	return runCampaign(opts, paperSpec(opts.smoke))
}

func runCampaignCity(opts options) (*outcome, error) { return runCampaign(opts, citySpec(opts.smoke)) }

// trialInput is one generated trial: a configuration, its scenario and the
// seed handed to the simulation.
type trialInput struct {
	cfg      sim.Config
	scenario workload.Scenario
	seed     int64
}

// campaignInputs is the generated input set of a campaign workload, by
// configuration then pool slot.
type campaignInputs [][]trialInput

// at returns the input of the i-th trial of the cycle: configurations
// round-robin, then pool slots, so any prefix of the cycle keeps the
// sweep's mix.
func (in campaignInputs) at(i int) trialInput {
	c := i % len(in)
	return in[c][(i/len(in))%len(in[c])]
}

// generateInputs draws every scenario of the workload from the seed.
func generateInputs(spec campaignSpec, seed int64) (campaignInputs, error) {
	rng := stats.NewRNG(seed)
	in := make(campaignInputs, len(spec.configs))
	for c, cfg := range spec.configs {
		in[c] = make([]trialInput, spec.pool)
		for j := range in[c] {
			sc, err := workload.Generate(stats.NewRNG(rng.Int63()), cfg.Workload)
			if err != nil {
				return nil, err
			}
			in[c][j] = trialInput{cfg: cfg, scenario: sc, seed: rng.Int63()}
		}
	}
	return in, nil
}

// timingObserver timestamps the simulator's public round and user events:
// a round lasts from the previous RoundEnd (or the start of Run) to its
// own RoundEnd, and a user's turn from the previous event of the round to
// its UserPlanned callback (candidate assembly and solve, plus the
// previous user's commit). At each round's end it also looks for a
// finished collection, outside the round times.
type timingObserver struct {
	sim.BaseObserver
	last   time.Time
	prev   time.Time
	rounds *blockQuantiles
	turns  *blockQuantiles
	heap   *heapSampler
}

func (o *timingObserver) RoundStart(int, map[task.ID]float64) { o.last = time.Now() }

func (o *timingObserver) UserPlanned(int, int, selection.Problem, selection.Plan) {
	now := time.Now()
	o.turns.add(ms(now.Sub(o.last)))
	o.last = now
}

func (o *timingObserver) RoundEnd(int, metrics.RoundStats) {
	o.rounds.add(ms(time.Since(o.prev)))
	o.heap.sample()
	o.prev = time.Now()
}

// heapProbe measures the live heap at the end of a trial's last round,
// when the simulation's state and its solvers' grow-only scratch are at
// their largest.
type heapProbe struct {
	sim.BaseObserver
	lastRound int
	mb        float64
}

func (o *heapProbe) RoundEnd(k int, _ metrics.RoundStats) {
	if k == o.lastRound {
		o.mb = liveHeapMB()
	}
}

// runTrial runs one simulation trial as a researcher would: construct
// from the scenario, then Run.
func runTrial(in trialInput, obs sim.Observer) (metrics.TrialResult, error) {
	s, err := sim.NewFromScenario(in.cfg, in.scenario, in.seed)
	if err != nil {
		return metrics.TrialResult{}, err
	}
	return s.Run(obs)
}

// checkTrial applies the per-trial output checks and returns the first
// violation, nil when the trial is valid.
func checkTrial(in trialInput, r metrics.TrialResult) error {
	unit := func(name string, v float64) error {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("%s %v outside [0,1]", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"coverage", r.Coverage},
		{"overall completeness", r.OverallCompleteness},
		{"strict completeness", r.StrictCompleteness},
	} {
		if err := unit(c.name, c.v); err != nil {
			return err
		}
	}
	for _, rs := range r.Rounds {
		if err := unit("round coverage", rs.Coverage); err != nil {
			return err
		}
		if err := unit("round completeness", rs.Completeness); err != nil {
			return err
		}
	}
	budget := in.cfg.Budget
	if budget == 0 {
		budget = sim.DefaultBudget
	}
	if r.TotalRewardPaid > budget {
		return fmt.Errorf("reward paid %v exceeds budget %v", r.TotalRewardPaid, budget)
	}
	if r.RoundsRun != in.scenarioHorizon() {
		return fmt.Errorf("ran %d rounds, want %d", r.RoundsRun, in.scenarioHorizon())
	}
	return nil
}

// scenarioHorizon is the number of rounds a trial runs: the largest task
// deadline.
func (in trialInput) scenarioHorizon() int {
	h := 0
	for _, t := range in.scenario.Tasks {
		h = max(h, t.Deadline)
	}
	return h
}

// sameBytes re-runs a trial under a modified configuration and reports
// whether its JSON equals want.
func sameBytes(in trialInput, modify func(*sim.Config), want []byte) (bool, error) {
	alt := in
	modify(&alt.cfg)
	r, err := runTrial(alt, nil)
	if err != nil {
		return false, err
	}
	got, err := json.Marshal(r)
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, want), nil
}

// runCampaign runs a campaign workload: untraced trials for the
// end-to-end metrics, or the traced driver for the per-layer ones.
func runCampaign(opts options, spec campaignSpec) (*outcome, error) {
	setup := &setupTimer{smoke: opts.smoke}
	generate := func() (campaignInputs, error) { return generateInputs(spec, opts.seed) }
	inputs, err := timeSetup(setup, generate, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true, gomaxprocs: runtime.GOMAXPROCS(0)}
	if opts.trace {
		return out, runTracedCampaign(opts, inputs, out)
	}

	obs := &timingObserver{
		rounds: newBlockQuantiles(0.5, 0.9, 0.99),
		turns:  newBlockQuantiles(0.5, 0.95, 0.99),
	}
	check := func(in trialInput, r metrics.TrialResult) {
		out.attempted++
		if err := checkTrial(in, r); err != nil {
			out.failed++
			fmt.Fprintf(opts.log, "trial check failed: %v\n", err)
		}
	}
	// Warm-up: untimed trials, checked and counted like any other.
	for i := 0; i < spec.warmup*len(inputs); i++ {
		in := inputs.at(i)
		r, err := runTrial(in, nil)
		if err != nil {
			return nil, err
		}
		check(in, r)
	}

	// The timed loop runs whole passes over the configurations, so every
	// pass has the sweep's mix. Throughput comes from each configuration's
	// median trial time and rounds, and the round and turn percentiles are
	// medians over passes, so the host's occasional stalls, which land on a
	// few trials, do not move them. The collector runs at its own pace, as
	// it would for a researcher running the sweep, and memory is the mean
	// live heap its collections find, less the benchmark's own. A mean,
	// because the heap steps with the largest DP table a trial has built
	// and a median would jump between steps from run to run.
	var (
		trialSecs   = make([][]float64, len(inputs)) // by configuration
		trialRounds = make([][]float64, len(inputs))
		passes      int
		trials      int
		equiv       [][]byte // result bytes of the first timed trials
	)
	obs.heap = newHeapSampler()
	deadline := time.Now().Add(opts.duration)
	for i := 0; i == 0 || time.Now().Before(deadline); {
		for c := 0; c < len(inputs); c, i = c+1, i+1 {
			in := inputs.at(i)
			start := time.Now()
			sm, err := sim.NewFromScenario(in.cfg, in.scenario, in.seed)
			if err != nil {
				return nil, err
			}
			// Rounds are timed from the start of Run; construction enters
			// only the trial time.
			obs.prev = time.Now()
			r, err := sm.Run(obs)
			trialSecs[c] = append(trialSecs[c], time.Since(start).Seconds())
			if err != nil {
				return nil, err
			}
			trialRounds[c] = append(trialRounds[c], float64(r.RoundsRun))
			check(in, r)
			if i < max(spec.equivTrials, spec.unshardedTrials) {
				b, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				equiv = append(equiv, b)
			}
		}
		trials += len(inputs)
		obs.rounds.endBlock()
		obs.turns.endBlock()
		passes++
	}
	// The benchmark's own share of the heap: its inputs and samples, with
	// no simulation alive.
	base := liveHeapMB()
	// The second set-up window (see setupTimer).
	if _, err := timeSetup(setup, generate, nil); err != nil {
		return nil, err
	}
	var sweepSecs, sweepRounds float64
	for c := range inputs {
		sweepSecs += median(trialSecs[c])
		sweepRounds += median(trialRounds[c])
	}

	// Determinism re-runs, outside the timed loop: the shared round
	// context and the sharded engine must not change a byte.
	for i, want := range equiv {
		in := inputs.at(i)
		if i < spec.equivTrials {
			ok, err := sameBytes(in, func(c *sim.Config) { c.DisableRoundContext = true }, want)
			if err != nil {
				return nil, err
			}
			if !ok {
				out.failed++
				fmt.Fprintf(opts.log, "trial %d: DisableRoundContext changed the result bytes\n", i)
			}
		}
		if i < spec.unshardedTrials {
			ok, err := sameBytes(in, func(c *sim.Config) { c.Shards = 0 }, want)
			if err != nil {
				return nil, err
			}
			if !ok {
				out.failed++
				fmt.Fprintf(opts.log, "trial %d: the unsharded engine changed the result bytes\n", i)
			}
		}
	}

	// If no collection ran during the timed trials (a smoke run), an
	// untimed re-run of the first trial forces one at its end.
	heaps := obs.heap.mb
	if len(heaps) == 0 {
		in := inputs.at(0)
		probe := &heapProbe{lastRound: in.scenarioHorizon()}
		r, err := runTrial(in, probe)
		if err != nil {
			return nil, err
		}
		check(in, r)
		heaps = []float64{probe.mb}
	}

	logHeap(opts, heaps, base)
	q := obs.rounds.medians()
	tq := obs.turns.medians()
	out.metrics = map[string]float64{
		"setup_s":      setup.seconds(),
		"live_heap_mb": mean(heaps) - base,
		"trials_per_s": float64(len(inputs)) / sweepSecs,
		"rounds_per_s": sweepRounds / sweepSecs,
		"round_ms_p50": q[0],
		"round_ms_p90": q[1],
		"turn_ms_p50":  tq[0],
		"turn_ms_p95":  tq[1],
	}
	fmt.Fprintf(opts.log, "%s: %d trials in %d passes; median per-pass p99 of rounds %.4f ms, of turns %.5f ms (diagnostic)\n",
		opts.workload, trials, passes, q[2], tq[2])
	return out, nil
}
