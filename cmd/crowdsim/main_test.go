package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paydemand/internal/sim"
)

// runArgs drives run with small, fast parameters.
func runArgs(t *testing.T, extra ...string) string {
	t.Helper()
	args := append([]string{"-trials", "2", "-users", "30", "-tasks", "6", "-required", "3"}, extra...)
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunTableOutput(t *testing.T) {
	out := runArgs(t)
	for _, want := range []string{"mechanism=on-demand", "coverage", "avg user profit"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPerRound(t *testing.T) {
	out := runArgs(t, "-per-round")
	if !strings.Contains(out, "round") || !strings.Contains(out, "new-measure") {
		t.Errorf("per-round section missing:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	out := runArgs(t, "-json")
	var summary map[string]any
	if err := json.Unmarshal([]byte(out), &summary); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if summary["trials"] != float64(2) {
		t.Errorf("trials = %v", summary["trials"])
	}
}

func TestRunAllMechanismFlags(t *testing.T) {
	for _, m := range []string{"on-demand", "fixed", "steered", "steered-raw", "equal-weights"} {
		out := runArgs(t, "-mechanism", m)
		if !strings.Contains(out, "mechanism="+m) {
			t.Errorf("mechanism %s not echoed:\n%s", m, out)
		}
	}
}

func TestRunCompare(t *testing.T) {
	out := runArgs(t, "-compare")
	for _, want := range []string{"on-demand", "fixed", "steered", "sat-auction", "task gini"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mechanism", "bogus"}, &sb); err == nil {
		t.Error("bogus mechanism accepted")
	}
	if err := run([]string{"-algorithm", "bogus"}, &sb); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := run([]string{"-users", "-4"}, &sb); err == nil {
		t.Error("negative users accepted")
	}
	if err := run([]string{"-not-a-flag"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	runArgs(t, "-trace", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"round_start"`) {
		t.Errorf("trace content wrong: %.100s", data)
	}
}

func TestParseMechanismRoundTrips(t *testing.T) {
	kinds := []sim.MechanismKind{
		sim.MechanismOnDemand, sim.MechanismFixed, sim.MechanismSteered,
		sim.MechanismSteeredRaw, sim.MechanismEqualWeights,
		sim.MechanismDeadlineOnly, sim.MechanismProgressOnly, sim.MechanismNeighborsOnly,
	}
	for _, k := range kinds {
		got, err := parseMechanism(k.String())
		if err != nil || got != k {
			t.Errorf("parseMechanism(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestParseAlgorithmRoundTrips(t *testing.T) {
	kinds := []sim.AlgorithmKind{
		sim.AlgorithmDP, sim.AlgorithmGreedy, sim.AlgorithmAuto, sim.AlgorithmTwoOpt,
		sim.AlgorithmBeam,
	}
	for _, k := range kinds {
		got, err := parseAlgorithm(k.String())
		if err != nil || got != k {
			t.Errorf("parseAlgorithm(%q) = %v, %v", k.String(), got, err)
		}
	}
}

// TestRunRejectsTooFewTrials pins that a run without trials is an error,
// not a table (or JSON summary) of zeros that reads like a campaign that
// collected nothing.
func TestRunRejectsTooFewTrials(t *testing.T) {
	base := []string{"-users", "20", "-tasks", "5", "-required", "3", "-rounds", "3"}
	for _, extra := range [][]string{
		{"-trials", "0"},
		{"-trials", "0", "-json"},
		{"-trials", "0", "-compare"},
		{"-trials", "-1"},
	} {
		var sb strings.Builder
		err := run(append(append([]string(nil), base...), extra...), &sb)
		if err == nil {
			t.Errorf("%v accepted", extra)
		}
		if sb.Len() != 0 {
			t.Errorf("%v printed output:\n%s", extra, sb.String())
		}
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	args := []string{"-users", "20", "-tasks", "5", "-required", "3", "-trials", "4", "-rounds", "3"}
	var seq strings.Builder
	if err := run(append(args, "-parallel", "1"), &seq); err != nil {
		t.Fatal(err)
	}
	var par strings.Builder
	if err := run(append(args, "-parallel", "4"), &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("-parallel 4 output differs from -parallel 1:\npar:\n%s\nseq:\n%s",
			par.String(), seq.String())
	}
}
