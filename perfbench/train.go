package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"multitree/internal/accel"
	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/experiments"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/topology"
	"multitree/internal/topospec"
	"multitree/internal/training"
)

// trainJob is one checked row of a fluid-engine study: a Fig. 11 (model,
// algorithm) training iteration or a Fig. 10 (nodes, algorithm) point.
type trainJob struct {
	study string // "fig11b", "fig11a" or "fig10"
	label string // the row's reference key, for failure reports
	topo  *topology.Topology
	net   model.Network
	alg   experiments.AlgSpec
	bytes int64  // fig10 only
	want  string // committed cycles, formatted like got
}

// fig11Studies are the Fig. 11 panels in the order a pass runs them.
var fig11Studies = []string{"fig11b", "fig11a"}

// train runs Fig. 11b, Fig. 11a and Fig. 10 in that order on one
// goroutine. Untraced, each Fig. 11 study is one call of the program's
// experiments.Fig11 over the whole model zoo, and each Fig. 10 point one
// experiments.MeasureAllReduce, the call experiments.Fig10 makes per
// point. Traced, every row runs through the same layer calls with a span
// around each, the Fig. 11 rows in seed-shuffled order.
type train struct {
	topo   *topology.Topology           // torus-8x8, the Fig. 11 fabric
	ref11  map[string]map[string]string // study -> "model/algorithm" -> cycles
	traced []trainJob                   // the traced pass's Fig. 11 rows
	fig10  []trainJob                   // seed-shuffled
}

// trainSpec sizes a fluid-train instance; tests shrink it. models sizes
// only the traced pass, as experiments.Fig11 always runs the whole zoo.
type trainSpec struct {
	models     []model.Network
	fig10Nodes []int
}

func setupTrain(e *env, l *lane) (instance, error) {
	return newTrain(e, l, trainSpec{models: model.Zoo(), fig10Nodes: []int{16, 32, 64, 128, 256}})
}

func newTrain(e *env, l *lane, spec trainSpec) (*train, error) {
	var err error
	t := &train{ref11: map[string]map[string]string{}}
	l.call("topology.build", func() { t.topo, err = topospec.Parse("torus-8x8") })
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.seed))
	for _, study := range fig11Studies {
		rows, err := readCSV(e.root, "results/"+study+".csv")
		if err != nil {
			return nil, err
		}
		ref := map[string]string{}
		for _, row := range rows {
			ref[row["model"]+"/"+row["algorithm"]] = fmt.Sprintf("%s/%s/%s/%s/%s", row["compute_cycles"],
				row["comm_cycles"], row["exposed_cycles"], row["overlap_cycles"], row["total_cycles"])
		}
		t.ref11[study] = ref
		var jobs []trainJob
		for _, net := range spec.models {
			for _, alg := range experiments.Fig11Algorithms() {
				label := net.Name + "/" + alg.Name
				want, ok := ref[label]
				if !ok {
					return nil, fmt.Errorf("results/%s.csv: no row for %s", study, label)
				}
				jobs = append(jobs, trainJob{study: study, label: label, topo: t.topo, net: net, alg: alg, want: want})
			}
		}
		r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		t.traced = append(t.traced, jobs...)
	}
	rows, err := readCSV(e.root, "results/fig10.csv")
	if err != nil {
		return nil, err
	}
	ref := map[string]string{}
	for _, row := range rows {
		ref[row["nodes"]+"|"+row["algorithm"]+"|"+row["data_bytes"]] = row["cycles"]
	}
	for _, n := range spec.fig10Nodes {
		var topo *topology.Topology
		l.call("topology.build", func() { topo, err = topospec.TorusFor(n) })
		if err != nil {
			return nil, err
		}
		bytes := int64(375*n) << 10
		for _, alg := range fig10Algorithms {
			want, ok := ref[fmt.Sprintf("%d|%s|%d", n, alg.Name, bytes)]
			if !ok {
				return nil, fmt.Errorf("results/fig10.csv: no row for %d/%s/%d", n, alg.Name, bytes)
			}
			t.fig10 = append(t.fig10, trainJob{study: "fig10", label: fmt.Sprintf("%d/%s", n, alg.Name), topo: topo, alg: alg, bytes: bytes, want: want})
		}
	}
	r.Shuffle(len(t.fig10), func(i, j int) { t.fig10[i], t.fig10[j] = t.fig10[j], t.fig10[i] })
	return t, nil
}

// fig10Algorithms are the weak-scaling study's variants (experiments.Fig10).
var fig10Algorithms = []experiments.AlgSpec{
	{Name: "ring"},
	{Name: "2d-ring"},
	{Name: core.Algorithm + algorithms.MsgSuffix, Msg: true},
}

func (t *train) pass(e *env, tr *tracer) (passResult, error) {
	l := tr.newLane("bench.pass")
	c := checker{e: e}
	var p passResult
	start := time.Now()
	if l == nil {
		for _, study := range fig11Studies {
			opStart := time.Now()
			rows, err := experiments.Fig11(t.topo, study == "fig11b")
			if study == "fig11b" && len(rows) > 0 {
				p.opSeconds = append(p.opSeconds, time.Since(opStart).Seconds()/float64(len(rows)))
			}
			t.checkFig11(&c, study, rows, err)
		}
	} else {
		for _, j := range t.traced {
			got, err := t.fig11Row(l, j)
			l.call("bench.check", func() { c.check(j.study+" "+j.label+" cycles", err, got, j.want) })
		}
	}
	for _, j := range t.fig10 {
		got, err := t.fig10Point(l, j, &p.coldPlan)
		l.call("bench.check", func() { c.check("fig10 "+j.label+" cycles", err, got, j.want) })
	}
	p.wall = time.Since(start).Seconds()
	l.close()
	p.attempted, p.failed = c.attempted, c.failed
	return p, nil
}

// checkFig11 checks one experiments.Fig11 table against its reference:
// every committed row must come back, with the committed cycles.
func (t *train) checkFig11(c *checker, study string, rows []experiments.Fig11Row, err error) {
	got := map[string]string{}
	for _, r := range rows {
		got[r.Model+"/"+r.Algorithm] = fmt.Sprintf("%d/%d/%d/%d/%d", r.Compute, r.Comm, r.Exposed, r.Overlap, r.Total)
	}
	ref := t.ref11[study]
	labels := make([]string, 0, len(ref))
	for label := range ref {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		g, ok := got[label]
		if err == nil && !ok {
			g = "no row"
		}
		c.check(study+" "+label+" cycles", err, g, ref[label])
	}
	if err == nil && len(rows) != len(ref) {
		c.check(study+" row count", nil, len(rows), len(ref))
	}
}

// fig11Row simulates one training iteration the way experiments.Fig11
// does, through training.Config's injectable Build and Engine seams, so
// the traced pass can put spans around schedule builds and engine runs.
func (t *train) fig11Row(l *lane, j trainJob) (string, error) {
	cfg := training.Config{
		Topo:         j.topo,
		Accel:        accel.Default(),
		BatchPerNode: 16,
		Net:          network.DefaultConfig(),
		Build:        newTrainBuilder(l, j.alg.Name),
	}
	cfg.Net.MessageBased = j.alg.Msg
	cfg.Engine = func(s *collective.Schedule, nc network.Config) (*network.Result, error) {
		return fluidRun(l, s, nc)
	}
	var (
		b   training.Breakdown
		err error
	)
	l.call("training.iteration", func() {
		if j.study == "fig11b" {
			b, err = cfg.Overlapped(j.net)
		} else {
			b, err = cfg.NonOverlapped(j.net)
		}
	})
	return fmt.Sprintf("%d/%d/%d/%d/%d", b.Compute(), b.Comm, b.Exposed, b.Overlap, b.Total), err
}

// fig10Point is experiments.MeasureAllReduce on the fluid engine; traced,
// its registry build, engine set-up and run each get a span.
func (t *train) fig10Point(l *lane, j trainJob, cold *float64) (string, error) {
	if l == nil {
		p, err := experiments.MeasureAllReduce(j.topo, j.alg, j.bytes, experiments.Fluid)
		*cold += float64(p.PlanNanos) / 1e9
		return fmt.Sprint(p.Cycles), err
	}
	var (
		s   *collective.Schedule
		err error
	)
	l.call("algorithms.build", func() {
		s, err = algorithms.Build(j.topo, j.alg.Name, int(j.bytes/collective.WordSize), algorithms.Options{Observer: l.observer()})
	})
	if err != nil {
		return "", err
	}
	cfg := network.DefaultConfig()
	cfg.MessageBased = j.alg.Msg
	res, err := fluidRun(l, s, cfg)
	if err != nil {
		return "", err
	}
	return fmt.Sprint(uint64(res.Cycles)), nil
}

// fluidRun is network.SimulateFluid split into its set-up and run spans.
func fluidRun(l *lane, s *collective.Schedule, cfg network.Config) (*network.Result, error) {
	var (
		fs  *network.FluidSim
		res *network.Result
		err error
	)
	l.call("network.fluid_setup", func() { fs, err = network.NewFluidSim(s, cfg) })
	if err != nil {
		return nil, err
	}
	l.call("network.fluid_run", func() { res, err = fs.Run() })
	l.add("network.fluid_sims", 1)
	l.add("network.fluid_transfers", float64(len(s.Transfers)))
	return res, err
}

// newTrainBuilder mirrors experiments.Fig11's schedule builder, which is
// not exported, for the traced pass: registry builds for the baselines;
// for MultiTree, trees grown once per topology (per row, as Fig11 creates
// a builder per row) and lowered per request.
func newTrainBuilder(l *lane, name string) training.ScheduleBuilder {
	spec, _, err := algorithms.Resolve(name)
	if err != nil {
		return func(*topology.Topology, int) (*collective.Schedule, error) { return nil, err }
	}
	base := spec.Name
	trees := map[*topology.Topology][]*collective.Tree{}
	return func(topo *topology.Topology, elems int) (s *collective.Schedule, err error) {
		if base != core.Algorithm {
			l.call("algorithms.build", func() {
				s, err = algorithms.Build(topo, base, elems, algorithms.Options{Observer: l.observer()})
			})
			return s, err
		}
		ts, ok := trees[topo]
		if !ok {
			opts := core.DefaultOptions(topo)
			opts.Observer = l.observer()
			l.call("core.grow", func() { ts, err = core.BuildTrees(topo, opts) })
			if err != nil {
				return nil, err
			}
			trees[topo] = ts
		}
		l.call("collective.lower", func() { s, err = collective.TreesToSchedule(core.Algorithm, topo, elems, ts) })
		return s, err
	}
}

// opMs is the mean Fig. 11b row of an untraced pass (experiments.Fig11
// time over its rows), median over passes: one overlapped
// training-iteration simulation, which runs one all-reduce per layer.
func (t *train) opMs(ops [][]float64) float64 {
	var rows []float64
	for _, o := range ops {
		rows = append(rows, o...)
	}
	return 1e3 * median(rows)
}

func (t *train) close() {}
