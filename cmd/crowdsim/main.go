// Command crowdsim runs the location-dependent crowdsensing simulation with
// a configurable incentive mechanism and task selection algorithm, and
// prints the campaign metrics the paper reports (coverage, overall
// completeness, measurements, variance, reward per measurement).
//
// Example:
//
//	crowdsim -mechanism on-demand -algorithm auto -users 100 -trials 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"paydemand/internal/metrics"
	"paydemand/internal/sat"
	"paydemand/internal/sim"
	"paydemand/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowdsim:", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crowdsim", flag.ContinueOnError)
	var (
		mechanism = fs.String("mechanism", "on-demand", "incentive mechanism: on-demand | fixed | steered | equal-weights | deadline-only | progress-only | neighbors-only | auction | incentme")
		algorithm = fs.String("algorithm", "auto", "task selection: dp | greedy | auto | greedy+2opt | beam")
		users     = fs.Int("users", workload.DefaultNumUsers, "number of mobile users")
		tasks     = fs.Int("tasks", workload.DefaultNumTasks, "number of sensing tasks")
		required  = fs.Int("required", workload.DefaultRequired, "measurements required per task (phi)")
		trials    = fs.Int("trials", 10, "independent trials to average")
		seed      = fs.Int64("seed", 1, "base random seed")
		rounds    = fs.Int("rounds", 0, "round horizon (0 = largest deadline)")
		budget    = fs.Float64("budget", sim.DefaultBudget, "platform reward budget B")
		timeBudg  = fs.Float64("time-budget", sim.DefaultUserTimeBudget, "per-round user time budget in seconds")
		jsonOut   = fs.Bool("json", false, "emit JSON instead of a table")
		perRound  = fs.Bool("per-round", false, "also print the per-round series")
		tracePath = fs.String("trace", "", "write a JSONL event trace of the first trial to this file")
		sensing   = fs.Float64("sensing-time", 0, "seconds per measurement on site (0 = paper's negligible-sensing assumption)")
		churn     = fs.Float64("churn", 0, "per-round user replacement probability")
		jitter    = fs.Float64("budget-jitter", 0, "per-user time budget jitter fraction in [0, 1]")
		mobility  = fs.String("mobility", "stationary", "between-round movement: stationary | random-waypoint | levy-walk")
		compare   = fs.Bool("compare", false, "run on-demand, fixed, steered and the SAT auction side by side")
		parallel  = fs.Int("parallel", 0, "trial worker goroutines (0 = one per CPU, 1 = sequential); results are identical at any setting")
		beamWidth = fs.Int("beam-width", 0, "beam search width for beam and auto (0 = solver default)")
		beamImpr  = fs.Int("beam-improve", 0, "beam 2-opt/or-opt polish rounds (0 = solver default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mech, err := parseMechanism(*mechanism)
	if err != nil {
		return err
	}
	alg, err := parseAlgorithm(*algorithm)
	if err != nil {
		return err
	}
	mob, err := parseMobility(*mobility)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Workload: workload.Config{
			NumTasks: *tasks,
			NumUsers: *users,
			Required: *required,
		},
		Mechanism:        mech,
		Algorithm:        alg,
		Rounds:           *rounds,
		Budget:           *budget,
		UserTimeBudget:   *timeBudg,
		SensingTime:      *sensing,
		ChurnRate:        *churn,
		TimeBudgetJitter: *jitter,
		Mobility:         mob,
		BeamWidth:        *beamWidth,
		BeamImprove:      *beamImpr,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *compare {
		return runComparison(out, cfg, *trials, *seed, *parallel)
	}

	results, err := forEachTrial(*trials, *parallel, func(i int) (metrics.TrialResult, error) {
		var obs sim.Observer
		var traceFile *os.File
		if *tracePath != "" && i == 0 {
			var err error
			traceFile, err = os.Create(*tracePath)
			if err != nil {
				return metrics.TrialResult{}, err
			}
			obs = sim.NewTraceObserver(traceFile)
		}
		s, err := sim.New(cfg, *seed+int64(i))
		if err != nil {
			return metrics.TrialResult{}, err
		}
		res, err := s.Run(obs)
		if traceFile != nil {
			if cerr := traceFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return metrics.TrialResult{}, err
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	var agg metrics.Aggregator
	for _, res := range results {
		agg.Add(res)
	}
	summary := agg.Summary()

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	}

	fmt.Fprintf(out, "mechanism=%s algorithm=%s users=%d tasks=%d phi=%d trials=%d\n\n",
		mech, alg, *users, *tasks, *required, *trials)
	fmt.Fprintf(out, "%-28s %12s\n", "metric", "mean")
	fmt.Fprintf(out, "%-28s %12.4f\n", "coverage", summary.Coverage)
	fmt.Fprintf(out, "%-28s %12.4f\n", "overall completeness", summary.OverallCompleteness)
	fmt.Fprintf(out, "%-28s %12.4f\n", "strict completeness", summary.StrictCompleteness)
	fmt.Fprintf(out, "%-28s %12.4f\n", "avg measurements / task", summary.AvgMeasurements)
	fmt.Fprintf(out, "%-28s %12.4f\n", "variance of measurements", summary.VarianceMeasurements)
	fmt.Fprintf(out, "%-28s %12.4f\n", "total reward paid ($)", summary.TotalRewardPaid)
	fmt.Fprintf(out, "%-28s %12.4f\n", "avg reward / measurement", summary.AvgRewardPerMeasurement)
	fmt.Fprintf(out, "%-28s %12.4f\n", "avg user profit ($)", summary.AvgUserProfit)
	fmt.Fprintf(out, "%-28s %12.4f\n", "task gini (balance)", summary.TaskGini)
	fmt.Fprintf(out, "%-28s %12.4f\n", "profit gini (fairness)", summary.ProfitGini)

	if *perRound {
		fmt.Fprintf(out, "\n%-6s %10s %12s %14s\n", "round", "coverage", "complete", "new-measure")
		cov := agg.Series(metrics.MetricCoverage, agg.MaxRound())
		comp := agg.Series(metrics.MetricCompleteness, agg.MaxRound())
		nm := agg.Series(metrics.MetricNewMeasurements, agg.MaxRound())
		for i := range cov.Rounds {
			fmt.Fprintf(out, "%-6d %10.4f %12.4f %14.2f\n",
				cov.Rounds[i], cov.Values[i], comp.Values[i], nm.Values[i])
		}
	}
	return nil
}

// forEachTrial runs fn(i) for i in [0, trials) across the given number
// of worker goroutines (0 = one per CPU, 1 = in the calling goroutine),
// collecting results into index-ordered slots so aggregation order — and
// therefore output — is independent of the worker count. The first error
// cancels trials not yet started. At least one trial is required: an
// average over none would print every metric as zero, indistinguishable
// from a campaign that collected nothing.
func forEachTrial(trials, workers int, fn func(i int) (metrics.TrialResult, error)) ([]metrics.TrialResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("trials %d, want >= 1", trials)
	}
	if workers < 0 {
		return nil, fmt.Errorf("parallel %d, want >= 0", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	out := make([]metrics.TrialResult, trials)
	if workers <= 1 {
		for i := 0; i < trials; i++ {
			res, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx = trials
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= trials || stop.Load() {
					return
				}
				res, err := fn(i)
				if err != nil {
					stop.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
					return
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runComparison averages the three incentive mechanisms plus the SAT
// auction over the same trial seeds and prints them side by side.
func runComparison(out io.Writer, cfg sim.Config, trials int, seed int64, parallel int) error {
	mechs := []sim.MechanismKind{sim.MechanismOnDemand, sim.MechanismFixed, sim.MechanismSteered}
	summaries := make([]metrics.Summary, 0, len(mechs)+1)
	names := make([]string, 0, len(mechs)+1)
	for _, mech := range mechs {
		mcfg := cfg
		mcfg.Mechanism = mech
		results, err := forEachTrial(trials, parallel, func(i int) (metrics.TrialResult, error) {
			return sim.Run(mcfg, seed+int64(i))
		})
		if err != nil {
			return err
		}
		var agg metrics.Aggregator
		for _, res := range results {
			agg.Add(res)
		}
		summaries = append(summaries, agg.Summary())
		names = append(names, mech.String())
	}
	satCfg := sat.Config{
		Workload:       cfg.Workload,
		Rounds:         cfg.Rounds,
		UserSpeed:      cfg.UserSpeed,
		UserTimeBudget: cfg.UserTimeBudget,
		CostPerMeter:   cfg.CostPerMeter,
		Budget:         cfg.Budget,
	}
	satResults, err := forEachTrial(trials, parallel, func(i int) (metrics.TrialResult, error) {
		return sat.Run(satCfg, seed+int64(i))
	})
	if err != nil {
		return err
	}
	var satAgg metrics.Aggregator
	for _, res := range satResults {
		satAgg.Add(res)
	}
	summaries = append(summaries, satAgg.Summary())
	names = append(names, "sat-auction")

	fmt.Fprintf(out, "%-28s", "metric")
	for _, n := range names {
		fmt.Fprintf(out, " %12s", n)
	}
	fmt.Fprintln(out)
	row := func(label string, pick func(metrics.Summary) float64) {
		fmt.Fprintf(out, "%-28s", label)
		for _, s := range summaries {
			fmt.Fprintf(out, " %12.4f", pick(s))
		}
		fmt.Fprintln(out)
	}
	row("coverage", func(s metrics.Summary) float64 { return s.Coverage })
	row("overall completeness", func(s metrics.Summary) float64 { return s.OverallCompleteness })
	row("strict completeness", func(s metrics.Summary) float64 { return s.StrictCompleteness })
	row("avg measurements / task", func(s metrics.Summary) float64 { return s.AvgMeasurements })
	row("variance of measurements", func(s metrics.Summary) float64 { return s.VarianceMeasurements })
	row("total reward paid ($)", func(s metrics.Summary) float64 { return s.TotalRewardPaid })
	row("avg reward / measurement", func(s metrics.Summary) float64 { return s.AvgRewardPerMeasurement })
	row("avg user profit ($)", func(s metrics.Summary) float64 { return s.AvgUserProfit })
	row("task gini (balance)", func(s metrics.Summary) float64 { return s.TaskGini })
	row("profit gini (fairness)", func(s metrics.Summary) float64 { return s.ProfitGini })
	return nil
}

func parseMechanism(s string) (sim.MechanismKind, error) {
	kinds := []sim.MechanismKind{
		sim.MechanismOnDemand, sim.MechanismFixed, sim.MechanismSteered,
		sim.MechanismSteeredRaw, sim.MechanismEqualWeights, sim.MechanismDeadlineOnly,
		sim.MechanismProgressOnly, sim.MechanismNeighborsOnly,
		sim.MechanismAuction, sim.MechanismIncentMe,
	}
	for _, k := range kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown mechanism %q", s)
}

func parseMobility(s string) (sim.MobilityKind, error) {
	kinds := []sim.MobilityKind{
		sim.MobilityStationary, sim.MobilityRandomWaypoint, sim.MobilityLevyWalk,
	}
	for _, k := range kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown mobility %q", s)
}

func parseAlgorithm(s string) (sim.AlgorithmKind, error) {
	kinds := []sim.AlgorithmKind{
		sim.AlgorithmDP, sim.AlgorithmGreedy, sim.AlgorithmAuto, sim.AlgorithmTwoOpt,
		sim.AlgorithmBeam,
	}
	for _, k := range kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}
