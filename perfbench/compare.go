package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the run
// length, and the metrics with their bounds.
type benchSpec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []boundSpec `json:"end_to_end"`
	PerLayer   []boundSpec `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// savedRun is one run's saved standard output, reduced to what compare
// needs: the host line's workload and trace mode, and the result line.
type savedRun struct {
	workload string
	trace    int
	res      result
}

// compareMain reads one or two sets of saved runs (directories of files,
// each one run's standard output) and prints, per workload and metric,
// each side's median and quartiles. With two sets it gives a verdict per
// end-to-end metric against the bounds in BENCHMARK.json.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() < 1 || fl.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] runs-a [runs-b]")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	var sides [][]savedRun
	for _, dir := range fl.Args() {
		runs, err := loadRuns(dir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
		sides = append(sides, runs)
	}
	if regressed := compareRuns(stdout, spec, sides); regressed {
		return 1
	}
	return 0
}

func loadRuns(dir string) ([]savedRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var runs []savedRun
	for _, f := range files {
		r, err := loadRun(f)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no saved runs", dir)
	}
	return runs, nil
}

func loadRun(file string) (savedRun, error) {
	f, err := os.Open(file)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var r savedRun
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "host "); ok {
			var h host
			if err := json.Unmarshal([]byte(rest), &h); err != nil {
				return r, fmt.Errorf("%s: host line: %w", file, err)
			}
			r.workload, r.trace = h.Workload, h.Trace
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", file, err)
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no host line", file)
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, fmt.Errorf("%s: result line: %w", file, err)
	}
	return r, nil
}

// compareRuns prints the comparison table and reports whether any
// end-to-end metric regressed beyond its bound.
func compareRuns(w io.Writer, spec benchSpec, sides [][]savedRun) bool {
	type group struct {
		workload string
		trace    int
	}
	var groups []group
	seen := map[group]bool{}
	for _, side := range sides {
		for _, r := range side {
			g := group{r.workload, r.trace}
			if !seen[g] {
				seen[g] = true
				groups = append(groups, g)
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].trace != groups[j].trace {
			return groups[i].trace < groups[j].trace
		}
		return groups[i].workload < groups[j].workload
	})
	regressed := false
	for _, g := range groups {
		metrics := spec.EndToEnd
		if g.trace == 1 {
			metrics = spec.PerLayer
		}
		fmt.Fprintf(w, "\n%s (trace %d)\n", g.workload, g.trace)
		fmt.Fprintf(w, "  %-34s %-40s %-40s %s\n", "metric", "A median [q1 q3] spread (n)", "B median [q1 q3] spread (n)", "verdict")
		for _, m := range metrics {
			var stats []string
			var meds, spreads []float64
			failed := 0
			for _, side := range sides {
				var xs []float64
				for _, r := range side {
					if r.workload != g.workload || r.trace != g.trace {
						continue
					}
					if !r.res.Correct {
						failed++
					}
					if v, ok := r.res.Metrics[m.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
				q1, q2, q3 := quartiles(xs)
				spread := (q3 - q1) / math.Abs(q2)
				meds, spreads = append(meds, q2), append(spreads, spread)
				stats = append(stats, fmt.Sprintf("%.5g [%.5g %.5g] %.1f%% (%d)", q2, q1, q3, 100*spread, len(xs)))
			}
			verdict := verdictFor(m, g.trace, meds, spreads, failed)
			if strings.HasPrefix(verdict, "REGRESSED") || strings.HasPrefix(verdict, "NOISY") || failed > 0 {
				regressed = true
			}
			if len(stats) == 1 {
				stats = append(stats, "")
			}
			fmt.Fprintf(w, "  %-34s %-40s %-40s %s\n", m.Name, stats[0], stats[1], verdict)
		}
	}
	return regressed
}

// verdictFor judges one metric. A single set is judged on its spread; a
// pair on the shift of B's median against A's, as a share of A's median.
func verdictFor(m boundSpec, trace int, meds, spreads []float64, failed int) string {
	if failed > 0 {
		return fmt.Sprintf("FAILED (%d runs not correct)", failed)
	}
	if trace == 1 || m.Bound == 0 {
		return "-"
	}
	if len(meds) == 1 {
		if spreads[0] > m.Bound {
			return fmt.Sprintf("NOISY: spread above bound %.0f%%", 100*m.Bound)
		}
		return fmt.Sprintf("ok (bound %.0f%%)", 100*m.Bound)
	}
	change := (meds[1] - meds[0]) / math.Abs(meds[0])
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > m.Bound:
		return fmt.Sprintf("REGRESSED %+.1f%% (bound %.0f%%)", 100*change, 100*m.Bound)
	case -worse > math.Max(spreads[0], spreads[1]):
		return fmt.Sprintf("better %+.1f%% (beyond both spreads)", 100*change)
	}
	return fmt.Sprintf("within bound %+.1f%% (bound %.0f%%)", 100*change, 100*m.Bound)
}
