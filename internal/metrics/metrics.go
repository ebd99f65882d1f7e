// Package metrics defines the result records produced by simulations and
// the aggregation helpers the experiment harness uses to average them over
// repeated trials, matching the metrics reported in the paper's Section VI:
// coverage, overall completeness, number and variance of measurements, and
// average reward per measurement.
package metrics

import (
	"fmt"

	"paydemand/internal/stats"
)

// RoundStats is the platform's view of one sensing round.
type RoundStats struct {
	// Round is the 1-based round index.
	Round int `json:"round"`
	// OpenTasks is the number of tasks published this round.
	OpenTasks int `json:"open_tasks"`
	// ActiveUsers is the number of users that performed at least one task.
	ActiveUsers int `json:"active_users"`
	// NewMeasurements is the number of measurements received this round
	// (Fig. 8(b)).
	NewMeasurements int `json:"new_measurements"`
	// TotalMeasurements is the cumulative measurement count.
	TotalMeasurements int `json:"total_measurements"`
	// Coverage is the cumulative coverage after this round (Fig. 6(b)).
	Coverage float64 `json:"coverage"`
	// Completeness is the cumulative overall completeness after this
	// round (Fig. 7(b)).
	Completeness float64 `json:"completeness"`
	// RewardPaid is the cumulative reward paid after this round.
	RewardPaid float64 `json:"reward_paid"`
	// MeanPublishedReward is the mean per-measurement reward offered over
	// the tasks published this round.
	MeanPublishedReward float64 `json:"mean_published_reward"`
	// RoundProfit is the total profit earned by all users this round.
	RoundProfit float64 `json:"round_profit"`
}

// TrialResult is the outcome of one complete simulation run.
type TrialResult struct {
	// Mechanism and Algorithm identify what produced the result.
	Mechanism string `json:"mechanism"`
	Algorithm string `json:"algorithm"`
	// Users and Tasks are the population sizes.
	Users int `json:"users"`
	Tasks int `json:"tasks"`
	// RoundsRun is how many rounds the simulation executed.
	RoundsRun int `json:"rounds_run"`
	// Rounds is the per-round series.
	Rounds []RoundStats `json:"rounds"`

	// Final campaign metrics (Section VI).
	Coverage                float64 `json:"coverage"`
	OverallCompleteness     float64 `json:"overall_completeness"`
	StrictCompleteness      float64 `json:"strict_completeness"`
	AvgMeasurements         float64 `json:"avg_measurements"`
	VarianceMeasurements    float64 `json:"variance_measurements"`
	TotalMeasurements       int     `json:"total_measurements"`
	TotalRewardPaid         float64 `json:"total_reward_paid"`
	AvgRewardPerMeasurement float64 `json:"avg_reward_per_measurement"`
	// TaskGini is the Gini coefficient of per-task measurement counts
	// (0 = perfectly balanced participation across tasks).
	TaskGini float64 `json:"task_gini"`
	// ProfitGini is the Gini coefficient of per-user profits.
	ProfitGini float64 `json:"profit_gini"`
	// UserProfits is each user's accumulated profit.
	UserProfits []float64 `json:"user_profits"`
	// AvgUserProfit is the mean of UserProfits.
	AvgUserProfit float64 `json:"avg_user_profit"`
}

// RoundAt returns the stats of the given 1-based round, or false if the
// simulation did not run that round.
func (t *TrialResult) RoundAt(round int) (RoundStats, bool) {
	for _, r := range t.Rounds {
		if r.Round == round {
			return r, true
		}
	}
	return RoundStats{}, false
}

// Aggregator averages TrialResults over repeated trials, maintaining
// running means of every scalar metric and of each per-round series entry.
// The zero value is ready to use.
type Aggregator struct {
	n                       int
	coverage                stats.Running
	overallCompleteness     stats.Running
	strictCompleteness      stats.Running
	avgMeasurements         stats.Running
	varianceMeasurements    stats.Running
	totalRewardPaid         stats.Running
	avgRewardPerMeasurement stats.Running
	avgUserProfit           stats.Running
	taskGini                stats.Running
	profitGini              stats.Running
	rounds                  map[int]*roundAgg
}

type roundAgg struct {
	coverage        stats.Running
	completeness    stats.Running
	newMeasurements stats.Running
	roundProfit     stats.Running
	meanReward      stats.Running
}

// Add incorporates one trial.
func (a *Aggregator) Add(t TrialResult) {
	a.n++
	a.coverage.Add(t.Coverage)
	a.overallCompleteness.Add(t.OverallCompleteness)
	a.strictCompleteness.Add(t.StrictCompleteness)
	a.avgMeasurements.Add(t.AvgMeasurements)
	a.varianceMeasurements.Add(t.VarianceMeasurements)
	a.totalRewardPaid.Add(t.TotalRewardPaid)
	a.avgRewardPerMeasurement.Add(t.AvgRewardPerMeasurement)
	a.avgUserProfit.Add(t.AvgUserProfit)
	a.taskGini.Add(t.TaskGini)
	a.profitGini.Add(t.ProfitGini)
	if a.rounds == nil {
		a.rounds = make(map[int]*roundAgg)
	}
	for _, r := range t.Rounds {
		ra := a.rounds[r.Round]
		if ra == nil {
			ra = &roundAgg{}
			a.rounds[r.Round] = ra
		}
		ra.coverage.Add(r.Coverage)
		ra.completeness.Add(r.Completeness)
		ra.newMeasurements.Add(float64(r.NewMeasurements))
		ra.roundProfit.Add(r.RoundProfit)
		ra.meanReward.Add(r.MeanPublishedReward)
	}
}

// N returns the number of trials aggregated.
func (a *Aggregator) N() int { return a.n }

// Summary is the across-trial mean of every final metric.
type Summary struct {
	Trials                  int     `json:"trials"`
	Coverage                float64 `json:"coverage"`
	OverallCompleteness     float64 `json:"overall_completeness"`
	StrictCompleteness      float64 `json:"strict_completeness"`
	AvgMeasurements         float64 `json:"avg_measurements"`
	VarianceMeasurements    float64 `json:"variance_measurements"`
	TotalRewardPaid         float64 `json:"total_reward_paid"`
	AvgRewardPerMeasurement float64 `json:"avg_reward_per_measurement"`
	AvgUserProfit           float64 `json:"avg_user_profit"`
	TaskGini                float64 `json:"task_gini"`
	ProfitGini              float64 `json:"profit_gini"`
}

// Summary returns the across-trial means.
func (a *Aggregator) Summary() Summary {
	return Summary{
		Trials:                  a.n,
		Coverage:                a.coverage.Mean(),
		OverallCompleteness:     a.overallCompleteness.Mean(),
		StrictCompleteness:      a.strictCompleteness.Mean(),
		AvgMeasurements:         a.avgMeasurements.Mean(),
		VarianceMeasurements:    a.varianceMeasurements.Mean(),
		TotalRewardPaid:         a.totalRewardPaid.Mean(),
		AvgRewardPerMeasurement: a.avgRewardPerMeasurement.Mean(),
		AvgUserProfit:           a.avgUserProfit.Mean(),
		TaskGini:                a.taskGini.Mean(),
		ProfitGini:              a.profitGini.Mean(),
	}
}

// RoundSeries is the across-trial mean series for one per-round metric.
type RoundSeries struct {
	Rounds []int     `json:"rounds"`
	Values []float64 `json:"values"`
}

// RoundMetric selects a per-round metric for Series.
type RoundMetric int

// The per-round metrics the paper plots.
const (
	MetricCoverage RoundMetric = iota + 1
	MetricCompleteness
	MetricNewMeasurements
	MetricRoundProfit
	MetricMeanReward
)

// String implements fmt.Stringer.
func (m RoundMetric) String() string {
	switch m {
	case MetricCoverage:
		return "coverage"
	case MetricCompleteness:
		return "completeness"
	case MetricNewMeasurements:
		return "new-measurements"
	case MetricRoundProfit:
		return "round-profit"
	case MetricMeanReward:
		return "mean-reward"
	default:
		return fmt.Sprintf("RoundMetric(%d)", int(m))
	}
}

// Series returns the across-trial mean of the chosen metric for rounds
// 1..maxRound (rounds never reached by any trial are omitted).
func (a *Aggregator) Series(metric RoundMetric, maxRound int) RoundSeries {
	var out RoundSeries
	for k := 1; k <= maxRound; k++ {
		ra := a.rounds[k]
		if ra == nil {
			continue
		}
		var v float64
		switch metric {
		case MetricCoverage:
			v = ra.coverage.Mean()
		case MetricCompleteness:
			v = ra.completeness.Mean()
		case MetricNewMeasurements:
			v = ra.newMeasurements.Mean()
		case MetricRoundProfit:
			v = ra.roundProfit.Mean()
		case MetricMeanReward:
			v = ra.meanReward.Mean()
		}
		out.Rounds = append(out.Rounds, k)
		out.Values = append(out.Values, v)
	}
	return out
}

// MaxRound returns the largest round index seen across trials.
func (a *Aggregator) MaxRound() int {
	maxK := 0
	//paylint:sorted max over keys is order-independent
	for k := range a.rounds {
		if k > maxK {
			maxK = k
		}
	}
	return maxK
}
