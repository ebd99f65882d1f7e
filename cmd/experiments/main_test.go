package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-fig", "6a", "-trials", "1", "-plot=false"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "fig6a") || !strings.Contains(out, "on-demand") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunBareSuffixShorthand(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "6b", "-trials", "1", "-plot=false"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig6b") {
		t.Errorf("shorthand output:\n%s", sb.String())
	}
}

func TestRunTableID(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "table2", "-plot=false"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.6479") {
		t.Errorf("table2 weights missing:\n%s", sb.String())
	}
}

func TestRunWithPlot(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "table3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "o=lower bound") {
		t.Errorf("plot legend missing:\n%s", sb.String())
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-fig", "6a", "-trials", "1", "-plot=false", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "figure,series,x,y\n") {
		t.Errorf("CSV header wrong: %.60s", data)
	}
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig5a", "table2", "ablation-weights", "ext-sat-vs-wst"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "99z"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nope"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	args := []string{"-fig", "6a", "-trials", "2", "-plot=false"}
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

func TestRunRejectsNegativeTrials(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "6a", "-trials", "-3", "-plot=false"}, &sb); err == nil {
		t.Error("negative -trials accepted")
	}
}
