// Command experiments regenerates every table and figure of the paper's
// evaluation and prints paper-vs-measured comparison tables. The -quick
// flag trades tail resolution for speed; the default budgets resolve
// P99.99 and 1e-5 drop rates.
//
// Usage:
//
//	experiments [-quick] [-only figure4,table1,...]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pingmesh/internal/experiments"
	"pingmesh/internal/viz"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "reduced probe budgets (~10x faster, noisier tails)")
		only  = flag.String("only", "", "comma-separated subset: figure3,figure4,table1,figure5,figure6,figure7,figure8,diagnosis,fanout,qos,limitations,ablations")
	)
	flag.Parse()

	opts := experiments.Options{Seed: 20260704}
	if *quick {
		opts.Probes = 200_000
	}
	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	runners := []struct {
		name string
		run  func() ([]experiments.Report, error)
	}{
		{"figure3", func() ([]experiments.Report, error) { return one(experiments.Figure3(opts)) }},
		{"figure4", func() ([]experiments.Report, error) {
			r, err := experiments.Figure4(opts)
			if err != nil {
				return nil, err
			}
			fmt.Println("inter-pod latency CDF (log-x):")
			fmt.Print(viz.RenderCDF([]viz.CDFSeries{
				{Name: "DC1 inter-pod", Marker: '1', Points: r.DC1InterCDF},
				{Name: "DC2 inter-pod", Marker: '2', Points: r.DC2InterCDF},
			}, 72, 16))
			fmt.Println()
			return []experiments.Report{r.ReportA(), r.ReportB(), r.ReportC(), r.ReportD()}, nil
		}},
		{"table1", func() ([]experiments.Report, error) { return one(experiments.Table1(opts)) }},
		{"figure5", func() ([]experiments.Report, error) { return one(experiments.Figure5(opts)) }},
		{"figure6", func() ([]experiments.Report, error) {
			return one(experiments.Figure6(opts, experiments.Figure6Config{}))
		}},
		{"figure7", func() ([]experiments.Report, error) { return one(experiments.Figure7(opts)) }},
		{"figure8", func() ([]experiments.Report, error) {
			r, err := experiments.Figure8(opts)
			if err != nil {
				return nil, err
			}
			for _, s := range r.Scenarios {
				fmt.Printf("-- %s --\n%s\n", s.Name, s.ASCII)
			}
			return []experiments.Report{r.Report()}, nil
		}},
		// EXPERIMENTS.md §5's seeds and budget: the episode is cheap, so
		// -quick runs it whole.
		{"diagnosis", func() ([]experiments.Report, error) { return one(experiments.Diagnosis(12, 1, 2, 3, 4, 5)) }},
		{"fanout", func() ([]experiments.Report, error) { return one(experiments.FanOut(opts)) }},
		{"qos", func() ([]experiments.Report, error) { return one(experiments.QoSMonitoring(opts)) }},
		{"limitations", all(
			func() ([]experiments.Report, error) { return one(experiments.LimitationICW(opts)) },
			func() ([]experiments.Report, error) { return one(experiments.ScaleMath(opts)) },
		)},
		{"ablations", all(
			func() ([]experiments.Report, error) { return one(experiments.AblationECMP(opts)) },
			func() ([]experiments.Report, error) { return one(experiments.AblationDropHeuristic(opts)) },
			func() ([]experiments.Report, error) { return one(experiments.AblationSampling(opts)) },
			func() ([]experiments.Report, error) { return one(experiments.AblationGraphDesign(opts)) },
		)},
	}

	ranAny := false
	for _, r := range runners {
		if !selected(r.name) {
			continue
		}
		ranAny = true
		start := time.Now()
		reports, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		for i := range reports {
			fmt.Println(reports[i].String())
		}
		fmt.Printf("(%s took %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "no experiment matched -only=%s\n", *only)
		os.Exit(2)
	}
}

// one returns the single report of an experiment that renders one.
func one[R interface{ Report() experiments.Report }](r R, err error) ([]experiments.Report, error) {
	if err != nil {
		return nil, err
	}
	return []experiments.Report{r.Report()}, nil
}

// all runs experiments in order and concatenates their reports.
func all(runs ...func() ([]experiments.Report, error)) func() ([]experiments.Report, error) {
	return func() ([]experiments.Report, error) {
		var reps []experiments.Report
		for _, run := range runs {
			r, err := run()
			if err != nil {
				return nil, err
			}
			reps = append(reps, r...)
		}
		return reps, nil
	}
}
