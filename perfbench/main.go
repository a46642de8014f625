// Command perfbench is the repository benchmark. It runs one of three
// fixed workloads for a set time, checks every simulated result and plan
// against the committed references, and prints one JSON result line:
//
//	perfbench --workload fig9-packet --seed 1 --trace 0
//	perfbench --workload plan-serve --seed 2 --trace 1
//	perfbench compare runs-a runs-b   # compare two sets of saved runs
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off; with --trace 1 it carries the per-layer metrics of a traced
// run, whose passes alternate with untraced ones so the tracing overhead
// is measured too. README.md records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A set-up takes about a millisecond, too short to time alone, and the
// host's speed drifts over a run. So set-ups run back to back in batches
// of at least setupBatchSeconds, setupBatches batches before the first
// pass and again after every pass, and setup_s is the median over the
// batches of the mean set-up time in a batch.
const (
	setupBatches      = 2
	setupBatchSeconds = 0.1
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "record-plans":
			return recordPlansMain(args[1:], stdout, stderr)
		}
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := config{}
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fl.Float64Var(&cfg.seconds, "seconds", 0, "measured time per run (default run_seconds in BENCHMARK.json)")
	fl.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fl.StringVar(&cfg.root, "root", ".", "repository root, holding results/ and perfbench/testdata/")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.work = filepath.Join(cfg.root, buildDir)
	secondsSet := false
	fl.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if !secondsSet {
		spec, err := readSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed the reference check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	root     string
	work     string // scratch directory for plan caches and traces

	// Tests substitute a tiny instance for the workload's own set-up and
	// a fixed pass count for the time budget.
	setup  func(e *env, l *lane) (instance, error)
	passes int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass of a workload measured.
type passResult struct {
	wall      float64   // seconds, excluding the benchmark's own checks
	coldPlan  float64   // seconds of from-scratch schedule construction
	opSeconds []float64 // per-operation latencies (see workload.opMs)
	memHitNs  []float64 // plan-serve: per-hit memory-tier latency samples

	attempted, failed int64
}

// env is what a workload instance sees of the run.
type env struct {
	root    string
	work    string
	seed    int64
	workers int
	log     io.Writer
}

// instance is a set-up workload.
type instance interface {
	// pass runs the workload's operations once. tr is nil for untraced
	// passes.
	pass(e *env, tr *tracer) (passResult, error)
	// opMs reduces the run's per-operation latencies to op_ms.
	opMs(ops [][]float64) float64
	close()
}

type workload struct {
	name  string
	setup func(e *env, l *lane) (instance, error)
}

// workloads are the benchmark's workloads; README.md records why each
// was chosen.
var workloads = []workload{
	{"fig9-packet", setupFig9},
	{"fluid-train", setupTrain},
	{"plan-serve", setupServe},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// execute times the workload's set-up, then runs passes until the time
// budget is spent, and reduces them to the run's metrics.
func execute(cfg config, out io.Writer) (result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.setup != nil {
		w.setup = cfg.setup
	}
	e := &env{root: cfg.root, work: cfg.work, seed: cfg.seed, workers: runtime.GOMAXPROCS(0), log: out}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, err
	}
	host, err := hostRecord(cfg)
	if err != nil {
		return result{}, err
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", hostLine)

	st := &setupTimer{w: w, e: e, traced: cfg.trace == 1}
	inst, err := st.run()
	if err != nil {
		return result{}, err
	}
	defer inst.close()

	var (
		res                  = result{Metrics: map[string]metric{}}
		walls, colds, traced []float64
		lives                []float64
		ops                  [][]float64
		memHits              []float64
		layerRuns            []map[string]float64
		lastTrace            *tracer
		budget               = cfg.seconds
		start                = time.Now()
	)
	for i := 0; ; i++ {
		var tr *tracer
		if cfg.trace == 1 && i%2 == 1 {
			tr = newTracer()
		}
		runtime.GC() // every pass starts from the same heap state
		before := readProc()
		stop := startMemSampler()
		p, err := inst.pass(e, tr)
		livePeak := stop()
		if err != nil {
			return result{}, fmt.Errorf("%s pass %d: %w", w.name, i, err)
		}
		after := readProc()
		fmt.Fprintf(out, "pass %d traced=%v: wall %.4f s, cpu %.4f s, cold_plan %.4f s, peak live heap %.1f MB, max rss %.1f MB\n",
			i, tr != nil, p.wall, after.cpu-before.cpu, p.coldPlan, livePeak, after.maxRSS)
		res.Attempted += p.attempted
		res.Failed += p.failed
		if tr == nil {
			walls = append(walls, p.wall)
			colds = append(colds, p.coldPlan)
			lives = append(lives, livePeak)
			ops = append(ops, p.opSeconds)
		} else {
			layers, err := layerMetrics(tr, before, after, livePeak)
			if err != nil {
				return result{}, fmt.Errorf("%s traced pass %d: %w", w.name, i, err)
			}
			layerRuns = append(layerRuns, layers)
			traced = append(traced, p.wall)
			lastTrace = tr
		}
		memHits = append(memHits, p.memHitNs...)
		extra, err := st.run()
		if err != nil {
			return result{}, err
		}
		extra.close()
		// Start another pass only if at least half of one still fits, so
		// the pass count does not flip between runs on pass-length noise.
		elapsed := time.Since(start).Seconds()
		enough := elapsed+elapsed/float64(i+1)/2 > budget
		if cfg.passes > 0 {
			enough = len(walls) >= cfg.passes
		}
		if enough && (cfg.trace == 0 || len(traced) > 0) {
			break
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "set-up batches, mean ms per set-up:")
	for _, b := range st.batches {
		fmt.Fprintf(out, " %.4f", 1e3*b)
	}
	fmt.Fprintln(out)
	errorRate := float64(res.Failed) / float64(max(res.Attempted, 1))

	if cfg.trace == 0 {
		res.Metrics["setup_s"] = metric{median(st.batches), "s"}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["cold_plan_s"] = metric{median(colds), "s"}
		res.Metrics["op_ms"] = metric{inst.opMs(ops), "ms"}
		res.Metrics["peak_live_mb"] = metric{median(lives), "MB"}
		fmt.Fprintf(out, "passes %d, error_rate %g (%d of %d operations)\n", len(walls), errorRate, res.Failed, res.Attempted)
	} else {
		for _, name := range perLayerNames() {
			var xs []float64
			for _, lr := range layerRuns {
				xs = append(xs, lr[name])
			}
			res.Metrics[name] = metric{median(xs), perLayerUnit(name)}
		}
		res.Metrics["topology.build_s"] = metric{median(st.topoSelf), "s"}
		untraced, tracedWall := median(walls), median(traced)
		res.Metrics["trace.untraced_wall_s"] = metric{untraced, "s"}
		res.Metrics["trace.traced_wall_s"] = metric{tracedWall, "s"}
		res.Metrics["trace.overhead_share"] = metric{tracedWall/untraced - 1, "ratio"}
		if len(memHits) > 0 {
			res.Metrics["plancache.mem_hit_ns_p50"] = metric{percentile(memHits, 50), "ns"}
			res.Metrics["plancache.mem_hit_ns_p99"] = metric{percentile(memHits, 99), "ns"}
		}
		res.Metrics["plancache.mem_hit_samples"] = metric{float64(len(memHits)), "count"}
		fmt.Fprintf(out, "passes %d untraced + %d traced, error_rate %g (%d of %d operations), closure tolerance %.0f%%\n",
			len(walls), len(traced), errorRate, res.Failed, res.Attempted, 100*closureTolerance)
		if err := saveTrace(cfg, lastTrace); err != nil {
			return result{}, err
		}
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// setupTimer times a workload's set-up (see setupBatches).
type setupTimer struct {
	w        workload
	e        *env
	traced   bool
	batches  []float64 // mean set-up seconds, per batch
	topoSelf []float64 // topology.build self seconds, per traced set-up
}

// run times setupBatches batches of set-ups and returns the last instance
// set up, having closed the others.
func (st *setupTimer) run() (instance, error) {
	runtime.GC() // every series starts from the same heap state
	var last instance
	for b := 0; b < setupBatches; b++ {
		spent, n := 0.0, 0
		for spent < setupBatchSeconds {
			var tr *tracer
			if st.traced {
				tr = newTracer()
			}
			l := tr.newLane("bench.setup")
			start := time.Now()
			in, err := st.w.setup(st.e, l)
			spent += time.Since(start).Seconds()
			n++
			l.close()
			if err != nil {
				if last != nil {
					last.close()
				}
				return nil, fmt.Errorf("%s setup: %w", st.w.name, err)
			}
			if tr != nil {
				// Only the topology spans matter here; set-up is not
				// closure checked, as reading the references is no
				// layer's work.
				bd, _ := tr.breakdown()
				st.topoSelf = append(st.topoSelf, bd.self["topology.build"])
			}
			if last != nil {
				last.close()
			}
			last = in
		}
		st.batches = append(st.batches, spent/float64(n))
	}
	return last, nil
}

// saveTrace writes the last traced pass's spans once, at the end.
func saveTrace(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// buildDir is the checkout-local directory for the binary, the build
// cache, plan caches and traces (perfbench/run.sh); git ignores it.
const buildDir = ".bench_build"

// procSample is a point reading of the Go runtime and the OS counters.
type procSample struct {
	cpu             float64 // process CPU seconds
	maxRSS          float64 // process peak resident set so far, MB
	gcCPU, totalCPU float64
	pauseNs         uint64
	minorFaults     int64
}

func readProc() procSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		maxRSS:      float64(ru.Maxrss) / 1024,
		gcCPU:       floatValue(s[0].Value),
		totalCPU:    floatValue(s[1].Value),
		pauseNs:     ms.PauseTotalNs,
		minorFaults: ru.Minflt,
	}
}

// startMemSampler samples the live heap (the bytes the last collection
// found reachable) every 5 ms until the returned stop function is
// called, which returns the peak in MB.
func startMemSampler() (stop func() float64) {
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

func floatValue(v metrics.Value) float64 {
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// host is the record every result carries about where it was measured.
type host struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
}

func hostRecord(cfg config) (host, error) {
	commit, err := sourceDigest(cfg.root)
	if err != nil {
		return host{}, err
	}
	return host{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit,
	}, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code measured: the git commit when the
// root is a git checkout, else a sha256 over every Go source and go.mod
// under the root (benchmark checkouts are plain file trees).
func sourceDigest(root string) (string, error) {
	if b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(b))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if c, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return "git:" + strings.TrimSpace(string(c)), nil
			}
			return "git:" + name, nil
		}
		return "git:" + ref, nil
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
