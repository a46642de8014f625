package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/ni"
	"multitree/internal/plancache"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// plan-serve requests, per fabric and pass.
const (
	warmRequests  = 3
	memHitBatches = 1000 // samples; p99 then has 10 samples beyond it
	memHitBatch   = 64   // hits timed together per sample
	memTierBytes  = 8 << 30
)

// serveSpecs are the fabrics plan-serve requests MultiTree plans for, in
// order; serveSizes the gradient sizes a seed picks from.
var (
	serveSpecs = []string{"mesh-32x32", "torus-32x32"}
	serveSizes = []int64{1 << 20, 4 << 20, 16 << 20}
)

// planRefsPath holds the recorded content hash and NI table size of every
// (fabric, size) plan; regenerate it with `perfbench record-plans`.
const planRefsPath = "perfbench/testdata/plans.csv"

type planRef struct {
	hash      string
	niEntries string
}

type serveFabric struct {
	spec string
	topo *topology.Topology
	want planRef
}

// serve is one client's stream of MultiTree plan requests: per fabric a
// cold request against an empty disk cache, an NI compile of that plan,
// warm requests through the disk tier (each with a fresh memory tier),
// and memory-tier hits.
type serve struct {
	fabrics []serveFabric
	bytes   int64
	dir     string // the run's plan-cache root
	passes  int
}

func setupServe(e *env, l *lane) (instance, error) {
	return newServe(e, l, serveSpecs, serveSizes)
}

func newServe(e *env, l *lane, specs []string, sizes []int64) (*serve, error) {
	refs, err := readPlanRefs(e.root)
	if err != nil {
		return nil, err
	}
	s := &serve{bytes: sizes[rand.New(rand.NewSource(e.seed)).Intn(len(sizes))]}
	for _, spec := range specs {
		var topo *topology.Topology
		l.call("topology.build", func() { topo, err = topospec.Parse(spec) })
		if err != nil {
			return nil, err
		}
		want, ok := refs[fmt.Sprintf("%s|%d", spec, s.bytes)]
		if !ok {
			return nil, fmt.Errorf("%s: no row for %s/%d", planRefsPath, spec, s.bytes)
		}
		s.fabrics = append(s.fabrics, serveFabric{spec: spec, topo: topo, want: want})
	}
	s.dir, err = os.MkdirTemp(e.work, "plancache-")
	if err != nil {
		return nil, err
	}
	return s, nil
}

func readPlanRefs(root string) (map[string]planRef, error) {
	rows, err := readCSV(root, planRefsPath)
	if err != nil {
		return nil, err
	}
	refs := map[string]planRef{}
	for _, r := range rows {
		refs[r["fabric"]+"|"+r["data_bytes"]] = planRef{hash: r["sha256"], niEntries: r["ni_entries"]}
	}
	return refs, nil
}

func (s *serve) pass(e *env, tr *tracer) (passResult, error) {
	l := tr.newLane("bench.pass")
	defer l.close()
	c := checker{e: e}
	var (
		p        passResult
		benchSec float64
	)
	// bench runs the benchmark's own work (checks, forced collections,
	// cache directories) in a span and keeps it out of wall_s.
	bench := func(name string, f func()) {
		start := time.Now()
		l.call("bench."+name, f)
		benchSec += time.Since(start).Seconds()
	}
	elems := int(s.bytes / collective.WordSize)
	start := time.Now()
	for _, fab := range s.fabrics {
		what := fmt.Sprintf("plan-serve %s/%d", fab.spec, s.bytes)
		dir := filepath.Join(s.dir, fmt.Sprintf("pass%d-%s", s.passes, fab.spec))
		var (
			cache *plancache.Cache
			err   error
		)
		bench("cache_open", func() { cache, err = plancache.Open(dir, 0) })
		if err != nil {
			return p, err
		}
		opts := algorithms.Options{Workers: e.workers, Cache: cache, Observer: l.observer()}
		request := func() (*collective.Schedule, *plancache.MemCache, float64, error) {
			bench("gc", runtime.GC)
			opts.MemCache = plancache.NewMemCache(memTierBytes)
			start := time.Now()
			var plan *collective.Schedule
			l.call("algorithms.build", func() { plan, err = algorithms.Build(fab.topo, core.Algorithm, elems, opts) })
			return plan, opts.MemCache, time.Since(start).Seconds(), err
		}

		plan, _, sec, err := request()
		p.coldPlan += sec
		bench("check", func() { c.check(what+" cold plan sha256", err, planHash(plan), fab.want.hash) })
		if err == nil {
			bench("gc", runtime.GC)
			var tables *ni.Tables
			l.call("ni.compile", func() { tables, err = ni.CompileScheduleObserved(plan, l.observer()) })
			bench("check", func() { c.check(what+" NI table entries", err, tableEntries(tables), fab.want.niEntries) })
		}
		plan = nil

		var mem *plancache.MemCache
		for i := 0; i < warmRequests; i++ {
			plan, mem, sec, err = request()
			p.opSeconds = append(p.opSeconds, sec)
			bench("check", func() { c.check(what+" warm plan sha256", err, planHash(plan), fab.want.hash) })
		}

		key := plancache.Key(fab.topo, core.Algorithm, elems, 0)
		hits := 0
		l.call("plancache.mem_get", func() {
			for b := 0; b < memHitBatches; b++ {
				start := time.Now()
				for i := 0; i < memHitBatch; i++ {
					if got, ok := mem.Get(key); ok && got == plan {
						hits++
					}
				}
				p.memHitNs = append(p.memHitNs, float64(time.Since(start).Nanoseconds())/memHitBatch)
			}
		})
		bench("check", func() { c.check(what+" memory-tier hits", nil, hits, memHitBatches*memHitBatch) })
		bench("cache_remove", func() { err = os.RemoveAll(dir) })
		if err != nil {
			return p, err
		}
	}
	s.passes++
	p.wall = time.Since(start).Seconds() - benchSec
	p.attempted, p.failed = c.attempted, c.failed
	return p, nil
}

// planHash is the sha256 of the plan's binary IR export; equal plans
// export byte-identically.
func planHash(s *collective.Schedule) string {
	if s == nil {
		return ""
	}
	h := sha256.New()
	if err := collective.ExportBinary(h, s); err != nil {
		return "export failed: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tableEntries counts the compiled NI table rows (NOPs included).
func tableEntries(t *ni.Tables) string {
	if t == nil {
		return ""
	}
	n := 0
	for _, tb := range t.PerNode {
		n += len(tb.Entries)
	}
	return strconv.Itoa(n)
}

// opMs is the median warm request per fabric, summed over the fabrics.
func (s *serve) opMs(ops [][]float64) float64 {
	total := 0.0
	for f := range s.fabrics {
		var xs []float64
		for _, o := range ops {
			xs = append(xs, o[f*warmRequests:(f+1)*warmRequests]...)
		}
		total += median(xs)
	}
	return 1e3 * total
}

func (s *serve) close() { os.RemoveAll(s.dir) }

// recordPlansMain prints the plan reference table: for every plan-serve
// fabric and size, and the mesh-8x8 test fabric, the sha256 of the plan's
// binary IR and its NI table size.
func recordPlansMain(args []string, stdout, stderr io.Writer) int {
	w := csv.NewWriter(stdout)
	w.Write([]string{"fabric", "data_bytes", "sha256", "ni_entries"})
	for _, spec := range append([]string{"mesh-8x8"}, serveSpecs...) {
		topo, err := topospec.Parse(spec)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, b := range serveSizes {
			plan, err := algorithms.Build(topo, core.Algorithm, int(b/collective.WordSize), algorithms.Options{Workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			tables, err := ni.CompileSchedule(plan)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			w.Write([]string{spec, strconv.FormatInt(b, 10), planHash(plan), tableEntries(tables)})
			w.Flush()
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
