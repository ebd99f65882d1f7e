// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every output, and prints one
// JSON result line:
//
//	perfbench --workload campaign-paper --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separately instrumented run reports the per-layer metrics instead.
// Workloads, metrics and the layer each metric belongs to are described
// in README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the parsed command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	// smoke shrinks every workload to a tiny size so the checks run in
	// well under a second; the benchmark's own tests use it.
	smoke bool
	// traceDir receives the span log of a traced run.
	traceDir string
	// log receives the human-readable summary.
	log io.Writer
}

// outcome is what a workload run reports: whether the whole-run
// invariants held, how many operations it attempted and how many failed
// their per-operation checks, and its metric values by name.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	// stale counts the served full polls decoded with a stale
	// Unchanged=true; on served-json these are the known client defect
	// and are not counted in failed.
	stale   int64
	metrics map[string]float64
	// gomaxprocs is the GOMAXPROCS setting the workload ran with.
	gomaxprocs int
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"campaign-paper": runCampaignPaper,
	"campaign-city":  runCampaignCity,
	"served-tlv":     runServedTLV,
	"served-json":    runServedJSON,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses the arguments, runs the workload and writes the provenance
// line and the result line to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: campaign-paper | campaign-city | served-tlv | served-json")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "measured run length in seconds")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		smoke    = fs.Bool("smoke", false, "tiny workload sizes, for the benchmark's own tests")
		traceDir = fs.String("trace-dir", ".bench_build/trace", "directory the traced run writes its span log to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("trace %d, want 0 or 1", *trace)
	}
	if !(*seconds > 0) || math.IsInf(*seconds, 0) {
		return fmt.Errorf("seconds %v, want > 0", *seconds)
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		smoke:    *smoke,
		traceDir: *traceDir,
		log:      stderr,
	}
	out, err := runner(opts)
	if err != nil {
		return err
	}
	catalog := endToEnd
	if opts.trace {
		catalog = perLayer
	}
	res := result{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(catalog)),
	}
	for _, d := range catalog {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report metric %s", opts.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", opts.workload, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	frac := 0.0
	if out.attempted > 0 {
		frac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stderr, "%s: correct=%v attempted=%d failed=%d failed_frac=%.4f\n",
		opts.workload, out.correct, out.attempted, out.failed, frac)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": provenance(opts, out.gomaxprocs)}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// workloadNames lists the workloads for error messages.
func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += " | "
		}
		s += n
	}
	return s
}

// provenance records where and how a result was measured, with the
// GOMAXPROCS setting the workload ran with.
func provenance(opts options, gomaxprocs int) map[string]any {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seconds":    opts.duration.Seconds(),
		"trace":      opts.trace,
		"smoke":      opts.smoke,
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": gomaxprocs,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
