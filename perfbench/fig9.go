package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/experiments"
	"multitree/internal/network"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// fig9MaxBytes ends the workload's size ladder. The committed sweeps go
// to 8 MiB; 32 KiB..256 KiB keeps a pass near 7 s on two cores, so a run
// holds several passes.
const fig9MaxBytes = 256 << 10

type fig9Panel struct {
	csv   string
	specs []string
}

// fig9Panels are the four Fig. 9 panels, as allreduce-bench -fig 9a..9d
// runs them.
var fig9Panels = []fig9Panel{
	{"results/fig9a.csv", []string{"torus-4x4", "torus-8x8"}},
	{"results/fig9b.csv", []string{"mesh-4x4", "mesh-8x8"}},
	{"results/fig9c.csv", []string{"fattree-16", "fattree-64"}},
	{"results/fig9d.csv", []string{"bigraph-32", "bigraph-64"}},
}

type fig9Job struct {
	topo  *topology.Topology
	alg   experiments.AlgSpec
	bytes int64
	want  string // committed cycles
}

// cost orders points by size: data bytes times nodes.
func (j fig9Job) cost() int64 { return j.bytes * int64(j.topo.Nodes()) }

// fig9 runs every applicable algorithm variant over the size ladder on
// the packet engine, on at most nproc workers.
type fig9 struct {
	jobs []fig9Job
}

func setupFig9(e *env, l *lane) (instance, error) {
	return newFig9(e, l, fig9Panels, experiments.Fig9Sizes(fig9MaxBytes))
}

func newFig9(e *env, l *lane, panels []fig9Panel, sizes []int64) (*fig9, error) {
	f := &fig9{}
	for _, p := range panels {
		rows, err := readCSV(e.root, p.csv)
		if err != nil {
			return nil, err
		}
		ref := map[string]string{}
		for _, r := range rows {
			ref[r["topology"]+"|"+r["algorithm"]+"|"+r["data_bytes"]] = r["cycles"]
		}
		for _, spec := range p.specs {
			var topo *topology.Topology
			l.call("topology.build", func() { topo, err = topospec.Parse(spec) })
			if err != nil {
				return nil, err
			}
			for _, alg := range experiments.Algorithms(topo) {
				for _, b := range sizes {
					want, ok := ref[fmt.Sprintf("%s|%s|%d", topo.Name(), alg.Name, b)]
					if !ok {
						return nil, fmt.Errorf("%s: no row for %s/%s/%d", p.csv, topo.Name(), alg.Name, b)
					}
					f.jobs = append(f.jobs, fig9Job{topo: topo, alg: alg, bytes: b, want: want})
				}
			}
		}
	}
	// The seed shuffles the points; largest first then keeps a pass from
	// ending on one worker with a big point left, which would make the
	// pass wall depend on the seed.
	r := rand.New(rand.NewSource(e.seed))
	r.Shuffle(len(f.jobs), func(i, j int) { f.jobs[i], f.jobs[j] = f.jobs[j], f.jobs[i] })
	sort.SliceStable(f.jobs, func(i, j int) bool { return f.jobs[i].cost() > f.jobs[j].cost() })
	return f, nil
}

// fig9Lane is one worker's share of a pass.
type fig9Lane struct {
	checker
	cold float64
	ops  []float64
}

func (f *fig9) pass(e *env, tr *tracer) (passResult, error) {
	workers := min(e.workers, len(f.jobs))
	lanes := make([]fig9Lane, workers)
	ch := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range lanes {
		lanes[w].e = e
		wg.Add(1)
		go func(o *fig9Lane) {
			defer wg.Done()
			l := tr.newLane("bench.worker")
			defer l.close()
			for i := range ch {
				f.point(l, f.jobs[i], o)
			}
		}(&lanes[w])
	}
	for i := range f.jobs {
		ch <- i
	}
	close(ch)
	wg.Wait()
	p := passResult{wall: time.Since(start).Seconds()}
	for _, o := range lanes {
		p.coldPlan += o.cold
		p.opSeconds = append(p.opSeconds, o.ops...)
		p.attempted += o.attempted
		p.failed += o.failed
	}
	return p, nil
}

// point measures one Fig. 9 point. Untraced it is the program's own
// experiments.MeasureAllReduceOpts; traced, the same three calls it makes
// (registry build, packet engine set-up, run), each inside a span.
func (f *fig9) point(l *lane, j fig9Job, o *fig9Lane) {
	what := fmt.Sprintf("fig9 %s/%s/%d cycles", j.topo.Name(), j.alg.Name, j.bytes)
	if l == nil {
		p, err := experiments.MeasureAllReduceOpts(j.topo, j.alg, j.bytes, experiments.Packet, algorithms.Options{})
		o.cold += float64(p.PlanNanos) / 1e9
		o.ops = append(o.ops, float64(p.WallNanos)/1e9)
		o.check(what, err, fmt.Sprint(p.Cycles), j.want)
		return
	}
	var (
		s   *collective.Schedule
		ps  *network.PacketSim
		res *network.Result
		err error
	)
	l.call("algorithms.build", func() {
		s, err = algorithms.Build(j.topo, j.alg.Name, int(j.bytes/collective.WordSize), algorithms.Options{Observer: l.observer()})
	})
	if err == nil {
		cfg := network.DefaultConfig()
		cfg.MessageBased = j.alg.Msg
		l.call("network.packet_setup", func() { ps, err = network.NewPacketSim(s, cfg) })
	}
	if err == nil {
		l.call("network.packet_run", func() { res, err = ps.Run() })
	}
	var cycles string
	if err == nil {
		cycles = fmt.Sprint(uint64(res.Cycles))
		l.add("network.packet_wire_kib", float64(res.WireBytes)/1024)
	}
	l.call("bench.check", func() { o.check(what, err, cycles, j.want) })
}

// opMs is the median Fig. 9 point (build plus packet simulation).
func (f *fig9) opMs(ops [][]float64) float64 {
	var all []float64
	for _, o := range ops {
		all = append(all, o...)
	}
	return 1e3 * median(all)
}

func (f *fig9) close() {}
