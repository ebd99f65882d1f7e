// Command experiments regenerates the paper's evaluation tables and
// figures. Without arguments it runs every registered figure with a
// reduced trial count; pass -fig to select one and -trials to control the
// averaging (the paper uses 100).
//
// Example:
//
//	experiments -fig 6a -trials 100
//	experiments -all -trials 20 -csv out/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"paydemand/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "", "figure to run (5a, 5b, 6a, 6b, 7a, 7b, 8a, 8b, 9a, 9b); empty with -all runs everything")
		all       = fs.Bool("all", false, "run every figure")
		trials    = fs.Int("trials", 20, "trials per configuration (paper: 100)")
		seed      = fs.Int64("seed", 1, "base random seed")
		users     = fs.Int("series-users", 0, "population for vs-round figures (0 = paper's 100)")
		plot      = fs.Bool("plot", true, "render ASCII plots")
		csvDir    = fs.String("csv", "", "directory to also write <figure>.csv files into")
		list      = fs.Bool("list", false, "list the available figure IDs and exit")
		parallel  = fs.Int("parallel", 0, "trial worker goroutines (0 = one per CPU, 1 = sequential); output is identical at any setting")
		progress  = fs.Bool("progress", false, "report completed/total trials on stderr while a figure runs")
		beamWidth = fs.Int("beam-width", 0, "beam search width for auto's mid band (0 = solver default)")
		beamImpr  = fs.Int("beam-improve", 0, "beam 2-opt/or-opt polish rounds (0 = solver default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			if _, err := fmt.Fprintln(out, id); err != nil {
				return err
			}
		}
		return nil
	}

	var ids []string
	switch {
	case *all || *fig == "":
		ids = experiments.IDs()
	default:
		id := *fig
		// Bare figure suffixes ("6a") are shorthand for "fig6a"; full IDs
		// ("table2", "ablation-churn") pass through.
		if !strings.HasPrefix(id, "fig") && !strings.HasPrefix(id, "table") &&
			!strings.HasPrefix(id, "ablation") && !strings.HasPrefix(id, "ext") {
			id = "fig" + id
		}
		ids = []string{id}
	}

	opts := experiments.Options{
		Trials:      *trials,
		Seed:        *seed,
		SeriesUsers: *users,
		Parallelism: *parallel,
	}
	// Every runner builds its sim.Config from Base, so engine knobs flow
	// to each figure without per-figure plumbing. Dense figure sweeps
	// (200+ users, many open tasks) push Auto into its beam band, and the
	// beam knobs tune it without touching the figures.
	opts.Base.BeamWidth = *beamWidth
	opts.Base.BeamImprove = *beamImpr
	for _, id := range ids {
		if *progress {
			opts.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials", id, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		f, err := experiments.Run(id, opts)
		if err != nil {
			return err
		}
		if err := experiments.RenderTable(out, f); err != nil {
			return err
		}
		if *plot && len(f.Series) > 0 {
			if err := experiments.RenderPlot(out, f, 60, 14); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, f); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(dir string, f experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, f.ID+".csv")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.RenderCSV(file, f); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
