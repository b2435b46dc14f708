package main

// compare.go is the regression gate: it sets two sets of runs side by side,
// one row per (workload, end-to-end metric).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// loadRuns reads a run-set — one or more -out files concatenated — and
// groups the values by workload and metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	for dec := json.NewDecoder(f); ; {
		var docs []document
		if err := dec.Decode(&docs); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, d := range docs {
			if out[d.Workload] == nil {
				out[d.Workload] = map[string][]float64{}
			}
			for name, v := range d.Result.Metrics {
				out[d.Workload][name] = append(out[d.Workload][name], v.Value)
			}
		}
	}
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(n=4).
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 { // exclusive method: position p*(n+1), 1-based
		pos := p * float64(len(s)+1)
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (at(0.75) - at(0.25)) / median(vs)
}

// compareFiles prints, for every workload and end-to-end metric present in
// both files, the two medians, how much worse b is than a, the bound, and a
// verdict: unresolved when either side's spread exceeds the bound, regressed
// when b is worse than a by more than the bound, ok otherwise.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse\tspread\tbound\tverdict\t")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			va, vb := a[wl][d.name], b[wl][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n",
				wl, d.name, d.unit, ma, mb, 100*worse, 100*sp, 100*d.bound, verdict)
		}
	}
	return tw.Flush()
}
