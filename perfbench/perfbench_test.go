package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// runSmoke runs one workload in smoke mode and returns its result line.
func runSmoke(t *testing.T, workload string, trace int) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{
		"--workload", workload, "--seed", "7", "--seconds", "0.2", "--smoke",
		"--trace", map[int]string{0: "0", 1: "1"}[trace], "--trace-dir", t.TempDir(),
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	var prov map[string]map[string]any
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &prov) != nil {
		t.Fatalf("%s: no provenance line before the result", workload)
	}
	for _, k := range []string{"host", "nproc", "gomaxprocs", "go_version", "seed"} {
		if _, ok := prov["provenance"][k]; !ok {
			t.Errorf("%s: provenance lacks %s", workload, k)
		}
	}
	return res
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny size,
// so every output check, the traced-driver equivalence and the metric
// catalog are exercised.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range []string{"campaign-paper", "campaign-city", "served-tlv", "served-json"} {
		for _, trace := range []int{0, 1} {
			res := runSmoke(t, w, trace)
			if !res.Correct {
				t.Errorf("%s trace=%d: correct=false", w, trace)
			}
			if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
				t.Errorf("%s trace=%d: attempted %d failed %d", w, trace, res.Attempted, res.Failed)
			}
			catalog := endToEnd
			if trace == 1 {
				catalog = perLayer
			}
			if len(res.Metrics) != len(catalog) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(catalog))
			}
			for _, d := range catalog {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestServedFailures pins that no served operation fails, and that the
// full polls client.RoundInto decodes with a stale Unchanged=true are
// recorded on JSON and absent on TLV.
func TestServedFailures(t *testing.T) {
	for _, w := range []string{"served-tlv", "served-json"} {
		var log bytes.Buffer
		out, err := workloads[w](options{workload: w, seed: 3, duration: 1, smoke: true, log: &log, traceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !out.correct {
			t.Errorf("%s: correct=false\n%s", w, log.String())
		}
		if w == "served-tlv" && (out.failed != 0 || out.stale != 0) {
			t.Errorf("%s: failed %d, stale %d, want 0\n%s", w, out.failed, out.stale, log.String())
		}
		if w == "served-json" && (out.stale == 0 || out.failed != 0) {
			t.Errorf("%s: failed %d, stale full polls %d; want 0 failed and the stale polls recorded\n%s", w, out.failed, out.stale, log.String())
		}
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names exactly
// the workloads and metrics the program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestQuantile pins the interpolating quantile the percentiles use.
func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(s, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// TestBadArguments checks that bad arguments fail without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "campaign-paper", "--trace", "2"},
		{"--workload", "campaign-paper", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%v: no error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}
