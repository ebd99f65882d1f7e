package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"paydemand/internal/incentive"
	"paydemand/internal/selection"
	"paydemand/internal/task"
)

// Span names. Every span the traced runs record is one of these, timed
// from the benchmark's side of a call into the named layer.
const (
	spanTrial = iota
	spanEngineNew
	spanRound
	spanBeginRound
	spanReprice
	spanRewards
	spanProblem
	spanSelectDP
	spanSelectBeam
	spanSelectGreedy
	spanCommit
	spanStats
	spanTurn
	spanRequest                          // + request kind
	spanHandler = spanRequest + numKinds // + request kind
)

// spanNames are the written names, indexed by span constant.
var spanNames = func() []string {
	names := []string{
		"trial", "engine.new", "round", "engine.begin_round", "engine.reprice",
		"incentive.rewards", "engine.problem", "selection.select.dp", "selection.select.beam",
		"selection.select.greedy2opt", "engine.commit", "engine.stats", "served.turn",
	}
	for _, k := range requestKinds {
		names = append(names, "client.request."+k)
	}
	for _, k := range requestKinds {
		names = append(names, "server.handler."+k)
	}
	return names
}()

// span is one recorded interval: what it timed, the span that caused it
// (-1 for none) and its start and end in nanoseconds since the tracer
// started.
type span struct {
	name   uint8
	parent int32
	start  int64
	end    int64
}

// maxSpans bounds the in-memory span log; later spans are still timed
// into the layer totals but not kept.
const maxSpans = 1 << 18

// tracer keeps the span log of a traced run and the per-layer totals the
// metrics are computed from. Wrappers called from server goroutines share
// it, so every access takes mu.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
	// reprice is the open reprice span the mechanism wrapper parents its
	// rewards span under (-1 when none is open).
	reprice int32
	lay     layers
}

// layers accumulates busy time and counts per layer.
type layers struct {
	selectDur   [3]time.Duration
	selectCalls [3]int64
	reachable   int64
	nonempty    int64

	problemDur, repriceDur, rewardsDur, commitDur time.Duration
	beginDur, statsDur, engineNewDur              time.Duration
	problemCalls, repriceCalls, rewardsCalls      int64
	commitCalls, commitFailed, beginCalls         int64
	statsCalls, emitted, scanned                  int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12), reprice: -1}
}

// now returns the tracer clock in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its ID, -1 once the log is full.
func (t *tracer) open(name int, parent int32, start int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.openLocked(name, parent, start)
}

func (t *tracer) openLocked(name int, parent int32, start int64) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, start: start, end: start})
	return int32(len(t.spans) - 1)
}

// close ends a span opened by open.
func (t *tracer) close(id int32, end int64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// record logs a finished span and returns its ID.
func (t *tracer) record(name int, parent int32, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.openLocked(name, parent, start)
	if id >= 0 {
		t.spans[id].end = end
	}
	return id
}

// write stores the span log once, at the end of a traced run, as JSON:
// the provenance, the span names, and one [name, parent, start_ns,
// end_ns] array per span.
func (t *tracer) write(dir, file string, prov map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	rows := make([][4]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [4]int64{int64(s.name), int64(s.parent), s.start, s.end}
	}
	dropped := t.dropped
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{
		"provenance": prov,
		"names":      spanNames,
		"dropped":    dropped,
		"spans":      rows,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}

// band returns the index of the Auto dispatch band an instance with m
// reachable candidates falls in: 0 exact DP, 1 beam, 2 greedy + 2-opt.
func band(m int) int {
	switch {
	case m <= min(selection.DefaultAutoThreshold, selection.DPHardMaxTasks):
		return 0
	case m <= selection.DefaultAutoBeamMaxTasks:
		return 1
	default:
		return 2
	}
}

// reachable counts the candidates Auto's dispatch counts: positive reward
// and within the travel budget from the start.
func reachable(p *selection.Problem) int {
	n := 0
	for _, c := range p.Candidates {
		if c.Reward > 0 && p.Start.Dist(c.Location)+p.PerTaskDistance <= p.MaxDistance {
			n++
		}
	}
	return n
}

// solve runs one selection call, timed and bucketed by its Auto band.
func (t *tracer) solve(alg selection.Algorithm, p selection.Problem, parent int32) (selection.Plan, error) {
	m := reachable(&p)
	b := band(m)
	start := t.now()
	plan, err := alg.Select(p)
	end := t.now()
	t.mu.Lock()
	t.lay.selectDur[b] += time.Duration(end - start)
	t.lay.selectCalls[b]++
	t.lay.reachable += int64(m)
	if !plan.Empty() {
		t.lay.nonempty++
	}
	if id := t.openLocked(spanSelectDP+b, parent, start); id >= 0 {
		t.spans[id].end = end
	}
	t.mu.Unlock()
	return plan, err
}

// timedAlgorithm is a selection.Algorithm that times every call into the
// wrapped solver; the served workloads hand it to the platform as the
// planner.
type timedAlgorithm struct {
	inner selection.Algorithm
	tr    *tracer
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

func (a *timedAlgorithm) Select(p selection.Problem) (selection.Plan, error) {
	return a.tr.solve(a.inner, p, -1)
}

// timedMechanism is an incentive.Mechanism delegating to the wrapped
// mechanism and timing its RewardsInto calls.
type timedMechanism struct {
	incentive.Mechanism
	tr *tracer
}

func (m *timedMechanism) RewardsInto(in *incentive.RoundInput, out map[task.ID]float64) error {
	start := m.tr.now()
	err := m.Mechanism.RewardsInto(in, out)
	end := m.tr.now()
	m.tr.mu.Lock()
	m.tr.lay.rewardsDur += time.Duration(end - start)
	m.tr.lay.rewardsCalls++
	if id := m.tr.openLocked(spanRewards, m.tr.reprice, start); id >= 0 {
		m.tr.spans[id].end = end
	}
	m.tr.mu.Unlock()
	return err
}

// perCallMS is the mean call duration in milliseconds, 0 without calls.
func perCallMS(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return ms(d) / float64(calls)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selectionMetrics fills the selection layer's metrics; perUnit divides
// the call counts (calls per traced trial or round).
func (l *layers) selectionMetrics(m map[string]float64, perUnit float64) {
	var calls int64
	for i, b := range bands {
		m["selection.select_ms."+b] = perCallMS(l.selectDur[i], l.selectCalls[i])
		m["selection.calls."+b] = ratio(float64(l.selectCalls[i]), perUnit)
		calls += l.selectCalls[i]
	}
	m["selection.reachable_mean"] = ratio(float64(l.reachable), float64(calls))
	m["selection.nonempty_frac"] = ratio(float64(l.nonempty), float64(calls))
}

// selectTotal is the selection layer's total busy time.
func (l *layers) selectTotal() time.Duration {
	return l.selectDur[0] + l.selectDur[1] + l.selectDur[2]
}
