// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each experiment writes its tables and figure data as CSV into
// the output directory and prints its headline notes: the paper-vs-measured
// shape checks.
//
// Examples:
//
//	experiments -scale small -out results            # all experiments, fast
//	experiments -scale paper -exp fig12,table6       # selected experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		scaleName = flag.String("scale", "small", "workload scale: small or paper")
		expList   = flag.String("exp", "all", "comma-separated experiment names, or all")
		outDir    = flag.String("out", "results", "directory for CSV output")
		listOnly  = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *listOnly {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", r.Name, r.Description)
		}
		return
	}

	if err := run(*scaleName, *expList, *outDir); err != nil {
		log.Fatal(err)
	}
}

func run(scaleName, expList, outDir string) error {
	var scale experiments.Scale
	switch scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want small or paper)", scaleName)
	}

	var runners []experiments.Runner
	if expList == "all" || expList == "" {
		runners = experiments.Registry()
	} else {
		for _, name := range strings.Split(expList, ",") {
			r, err := experiments.RunnerByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			runners = append(runners, r)
		}
	}

	log.Printf("building %s-scale environment (%d towers, %d days)...", scale.Name, scale.Towers, scale.Days)
	buildStart := time.Now()
	env, err := experiments.Build(scale)
	if err != nil {
		return err
	}
	log.Printf("environment ready in %s", time.Since(buildStart).Round(time.Millisecond))

	for _, r := range runners {
		start := time.Now()
		out, err := r.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		fmt.Printf("\n=== %s — %s (%s)\n", r.Name, r.Description, time.Since(start).Round(time.Millisecond))
		for i, tbl := range out.Tables {
			path := filepath.Join(outDir, scale.Name, fmt.Sprintf("%s_table%d.csv", r.Name, i+1))
			if err := tbl.SaveCSV(path); err != nil {
				return fmt.Errorf("%s: saving %s: %w", r.Name, path, err)
			}
			fmt.Println(tbl.String())
		}
		for i, fig := range out.Figures {
			path := filepath.Join(outDir, scale.Name, fmt.Sprintf("%s_fig%d.csv", r.Name, i+1))
			if err := fig.SaveCSV(path); err != nil {
				return fmt.Errorf("%s: saving %s: %w", r.Name, path, err)
			}
			fmt.Print(fig.Summary())
		}
		for _, note := range out.Notes {
			fmt.Printf("  NOTE: %s\n", note)
		}
	}
	fmt.Printf("\nCSV output written under %s\n", filepath.Join(outDir, scale.Name))
	return nil
}
