package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"paydemand/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run, reported by every workload
// (README.md gives each workload's reading of them).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"trials_per_s", "1/s"},
	{"rounds_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"turn_ms_p50", "ms"},
	{"turn_ms_p95", "ms"},
}

// Auto's dispatch bands and the request kinds of the served loop, as they
// appear in per-layer metric names.
var (
	bands        = []string{"dp", "beam", "greedy2opt"}
	requestKinds = []string{"register", "poll", "poll_unchanged", "plan", "submit", "advance"}
	wireMessages = []string{"round_info", "plan_response", "submit_request"}
	shareLayers  = []string{"sim", "engine", "selection", "incentive", "server", "client", "wire"}
)

// perLayer are the metrics of a traced run, reported by every workload;
// a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range bands {
		defs = append(defs, metricDef{"selection.select_ms." + b, "ms"})
	}
	for _, b := range bands {
		defs = append(defs, metricDef{"selection.calls." + b, "count"})
	}
	defs = append(defs,
		metricDef{"selection.reachable_mean", "count"},
		metricDef{"selection.nonempty_frac", "ratio"},
		metricDef{"engine.problem_ms", "ms"},
		metricDef{"engine.candidate_yield", "ratio"},
		metricDef{"engine.reprice_ms", "ms"},
		metricDef{"incentive.rewards_ms", "ms"},
		metricDef{"engine.commit_ms", "ms"},
		metricDef{"engine.commit_failed", "count"},
		metricDef{"engine.begin_round_ms", "ms"},
		metricDef{"engine.stats_ms", "ms"},
		metricDef{"sim.driver_self_ms", "ms"},
	)
	for _, k := range requestKinds {
		defs = append(defs, metricDef{"server.handler_ms_p50." + k, "ms"})
	}
	for _, k := range requestKinds {
		defs = append(defs, metricDef{"client.overhead_ms_p50." + k, "ms"})
	}
	for _, k := range []string{"poll", "plan", "submit"} {
		defs = append(defs,
			metricDef{"client.request_ms_p50." + k, "ms"},
			metricDef{"client.request_ms_p95." + k, "ms"})
	}
	defs = append(defs, metricDef{"client.stale_poll_frac", "ratio"})
	for _, codec := range []string{"tlv", "json"} {
		for _, m := range wireMessages {
			defs = append(defs,
				metricDef{"wire." + codec + ".encode_us." + m, "us"},
				metricDef{"wire." + codec + ".decode_us." + m, "us"},
				metricDef{"wire." + codec + ".bytes." + m, "bytes"})
		}
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{l + ".share", "ratio"})
	}
	defs = append(defs, metricDef{"trace_overhead_frac", "ratio"})
	return defs
}()

// zeroLayerMetrics returns every per-layer metric at 0, for a workload to
// fill in the layers it exercises.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the closest ranks, 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// blockQuantiles takes quantiles of a sample stream block by block — a
// pass of trials or a served campaign — and reports each quantile's
// median over the blocks. A burst of host stalls inflates the tail of the
// few blocks it lands in, not the result, as it would for quantiles of
// the pooled samples.
type blockQuantiles struct {
	qs     []float64
	cur    []float64
	blocks [][]float64 // per quantile, one value per finished block
}

func newBlockQuantiles(qs ...float64) *blockQuantiles {
	return &blockQuantiles{qs: qs, blocks: make([][]float64, len(qs))}
}

func (b *blockQuantiles) add(v float64) { b.cur = append(b.cur, v) }

// endBlock closes the current block; an empty block is dropped.
func (b *blockQuantiles) endBlock() {
	if len(b.cur) == 0 {
		return
	}
	sort.Float64s(b.cur)
	for i, q := range b.qs {
		b.blocks[i] = append(b.blocks[i], quantile(b.cur, q))
	}
	b.cur = b.cur[:0]
}

// medians returns, per quantile, its median over the finished blocks.
func (b *blockQuantiles) medians() []float64 {
	out := make([]float64, len(b.qs))
	for i := range b.qs {
		out[i] = median(b.blocks[i])
	}
	return out
}

// reservoirSize is how many samples a reservoir keeps: enough for the
// p95 and p99 of a run's requests of one kind on one connection.
const reservoirSize = 1 << 13

// reservoir keeps a uniform random sample of at most cap(samples) values
// out of an unbounded stream, so percentiles of millions of per-user
// turns cost bounded memory. It draws from its own seeded stream.
type reservoir struct {
	samples []float64
	seen    int64
	rng     *stats.RNG
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{samples: make([]float64, 0, capacity), rng: stats.NewRNG(seed)}
}

// add offers one value to the sample.
func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, v)
		return
	}
	if j := r.rng.Int63() % r.seen; j < int64(len(r.samples)) {
		r.samples[j] = v
	}
}

// reset empties the sample.
func (r *reservoir) reset() {
	r.samples = r.samples[:0]
	r.seen = 0
}

// quantiles returns the requested quantiles of the kept sample.
func (r *reservoir) quantiles(qs ...float64) []float64 {
	s := append([]float64(nil), r.samples...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(s, q)
	}
	return out
}

// quantiles returns the requested quantiles of xs.
func quantiles(xs []float64, qs ...float64) []float64 {
	r := reservoir{samples: xs}
	return r.quantiles(qs...)
}

// liveHeapMB forces a garbage collection and returns the live heap in
// MiB: what the program holds at that moment, independent of when the
// collector last ran or returned memory to the system.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// heapSampler records the live heap that each of the runtime's own
// collections finds. Looking costs under a microsecond and forces no
// collection, so it runs inside timed work without changing how often
// the collector runs; a collection that finishes between two looks is
// seen only if it is the later one.
type heapSampler struct {
	s      [2]metrics.Sample
	cycles uint64
	mb     []float64
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.s[0].Name = "/gc/cycles/total:gc-cycles"
	h.s[1].Name = "/gc/heap/live:bytes"
	metrics.Read(h.s[:])
	h.cycles = h.s[0].Value.Uint64()
	return h
}

// sample records the live heap of the latest collection, if one has
// finished since the last look.
func (h *heapSampler) sample() {
	metrics.Read(h.s[:])
	if c := h.s[0].Value.Uint64(); c != h.cycles {
		h.cycles = c
		h.mb = append(h.mb, float64(h.s[1].Value.Uint64())/(1<<20))
	}
}

// logHeap writes the spread of the live-heap samples and the benchmark's
// own share of the heap, as a diagnostic.
func logHeap(opts options, mb []float64, base float64) {
	q := quantiles(mb, 0.1, 0.25, 0.5, 0.75, 0.9)
	fmt.Fprintf(opts.log, "%s: live heap at %d collections p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f MB, mean %.3f; benchmark's own %.3f MB\n",
		opts.workload, len(mb), q[0], q[1], q[2], q[3], q[4], mean(mb), base)
}

// Set-up is timed in two windows, one before the timed part and one after
// it. In each, it is repeated until the builds have taken setupWindow, at
// least setupMinReps and at most setupMaxReps times; the median over both
// windows is reported. A set-up of a few milliseconds then repeats
// hundreds of times, so a few slow builds do not move it, and a slow spell
// of the host during one window moves it less than if every repetition
// ran in one window.
const (
	setupWindow  = 250 * time.Millisecond
	setupMinReps = 3
	setupMaxReps = 1000
)

// setupTimer collects a workload's set-up times over its windows.
type setupTimer struct {
	smoke bool
	secs  []float64
}

// seconds returns the median set-up time.
func (st *setupTimer) seconds() float64 { return median(st.secs) }

// timeSetup runs one window of set-ups: it repeats build, each time after
// a GC, and returns the last build's value. Every earlier value is handed
// to discard (when non-nil) before the next build. In smoke mode a window
// builds once.
func timeSetup[T any](st *setupTimer, build func() (T, error), discard func(T)) (T, error) {
	var last T
	var spent time.Duration
	for i := 0; i < setupMaxReps; i++ {
		if st.smoke && i == 1 || !st.smoke && i >= setupMinReps && spent >= setupWindow {
			break
		}
		if i > 0 && discard != nil {
			discard(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		d := time.Since(start)
		spent += d
		st.secs = append(st.secs, d.Seconds())
		last = v
	}
	return last, nil
}
