package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"multitree/internal/model"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = ".."

func testEnv(t *testing.T, root string) (*env, *bytes.Buffer) {
	var log bytes.Buffer
	return &env{root: root, work: t.TempDir(), seed: 7, workers: 2, log: &log}, &log
}

// tinyInstances are one small instance of each workload: torus-4x4 at
// 32 and 256 KiB, one zoo model with one Fig. 10 point, and a mesh-8x8
// plan. The Fig. 9 instance has a 256 KiB point so a traced pass lasts
// long enough (about 0.1 s) that one scheduling hiccup between spans
// cannot fail the closure check. Untraced fluid-train passes run the
// program's whole Fig. 11, as experiments.Fig11 takes no model list.
func tinyInstances(t *testing.T) map[string]func(e *env, l *lane) (instance, error) {
	alexNet, err := model.ByName("AlexNet")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(e *env, l *lane) (instance, error){
		"fig9-packet": func(e *env, l *lane) (instance, error) {
			return newFig9(e, l, []fig9Panel{{"results/fig9a.csv", []string{"torus-4x4"}}}, []int64{32 << 10, 256 << 10})
		},
		"fluid-train": func(e *env, l *lane) (instance, error) {
			return newTrain(e, l, trainSpec{models: []model.Network{alexNet}, fig10Nodes: []int{16}})
		},
		"plan-serve": func(e *env, l *lane) (instance, error) {
			return newServe(e, l, []string{"mesh-8x8"}, []int64{1 << 20})
		},
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	spec, err := readSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(ms map[string]metric) []string {
	var out []string
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestTinyWorkloads runs each workload's tiny instance untraced and
// traced: every operation must pass the reference gate, and each mode
// must emit exactly the metrics BENCHMARK.json declares for it.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for name, setup := range tinyInstances(t) {
		for trace, want := range map[int][]string{0: endToEnd, 1: perLayer} {
			var out bytes.Buffer
			cfg := config{workload: name, seed: 3, trace: trace, root: repoRoot, work: t.TempDir(), setup: setup, passes: 1}
			res, err := execute(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace %d metrics:\n got %v\nwant %v", name, trace, got, want)
			}
			for _, n := range endToEnd {
				if m, ok := res.Metrics[n]; trace == 0 && ok && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

// TestTracedLayers checks that each tiny workload's traced pass reports
// time in the layers it exercises, and closes.
func TestTracedLayers(t *testing.T) {
	exercised := map[string][]string{
		"fig9-packet": {"network.packet_setup_s", "network.packet_run_s", "network.packet_run_ns_per_wire_kib", "algorithms.build_s", "core.grow_s", "collective.lower_s"},
		"fluid-train": {"network.fluid_setup_s", "network.fluid_run_s", "network.fluid_sims", "network.fluid_run_ns_per_transfer", "algorithms.build_s", "collective.lower_s", "collective.transfers", "training.self_s"},
		"plan-serve":  {"core.grow_s", "collective.lower_s", "plancache.store_s", "plancache.bytes_written", "plancache.disk_get_s", "collective.load_s", "collective.decode_s", "collective.verify_s", "plancache.bytes_read", "ni.compile_s", "ni.table_entries", "plancache.mem_get_s", "runtime.heap_peak_mb"},
	}
	for name, setup := range tinyInstances(t) {
		e, log := testEnv(t, repoRoot)
		inst, err := setup(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		before := readProc()
		stop := startMemSampler()
		p, err := inst.pass(e, tr)
		livePeak := stop()
		inst.close()
		if err != nil || p.failed != 0 {
			t.Fatalf("%s: err=%v failed=%d\n%s", name, err, p.failed, log.String())
		}
		m, err := layerMetrics(tr, before, readProc(), livePeak)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range exercised[name] {
			if !(m[k] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, k, m[k])
			}
		}
		if m["trace.unaccounted_share"] > closureTolerance {
			t.Errorf("%s: unaccounted share %v", name, m["trace.unaccounted_share"])
		}
	}
}

// copyRoot makes a repository root holding copies of the reference
// files, with edit applied to the file at rel.
func copyRoot(t *testing.T, rel string, edit func(string) string) string {
	root := t.TempDir()
	for _, f := range []string{"results/fig9a.csv", "results/fig10.csv", "results/fig11a.csv", "results/fig11b.csv", planRefsPath} {
		b, err := os.ReadFile(filepath.Join(repoRoot, f))
		if err != nil {
			t.Fatal(err)
		}
		s := string(b)
		if f == rel {
			s = edit(s)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCorruptReferenceFails checks that a reference row that disagrees
// with the program is counted as a failed operation, never as a pass.
func TestCorruptReferenceFails(t *testing.T) {
	cases := []struct {
		workload, file, old, new string
	}{
		{"fig9-packet", "results/fig9a.csv", "torus-4x4,ring,32768,8580,", "torus-4x4,ring,32768,8581,"},
		{"fluid-train", "results/fig11b.csv", "AlexNet,ring,3446272,2054808,", "AlexNet,ring,3446272,2054809,"},
		{"fluid-train", "results/fig10.csv", "16,ring,6144000,769500,", "16,ring,6144000,769501,"},
		{"plan-serve", planRefsPath, "mesh-8x8,1048576,da0f", "mesh-8x8,1048576,00f0"},
	}
	tiny := tinyInstances(t)
	for _, c := range cases {
		root := copyRoot(t, c.file, func(s string) string {
			if !strings.Contains(s, c.old) {
				t.Fatalf("%s has no %q", c.file, c.old)
			}
			return strings.Replace(s, c.old, c.new, 1)
		})
		e, log := testEnv(t, root)
		inst, err := tiny[c.workload](e, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := inst.pass(e, nil)
		inst.close()
		if err != nil {
			t.Fatal(err)
		}
		if p.failed == 0 || !strings.Contains(log.String(), "FAIL") {
			t.Errorf("%s with corrupted %s: failed=%d of %d, want a failure\n%s", c.workload, c.file, p.failed, p.attempted, log.String())
		}
	}
}

// TestRunExitsNonZeroOnMismatch drives the command: a corrupted
// reference makes it print correct=false and exit non-zero.
func TestRunExitsNonZeroOnMismatch(t *testing.T) {
	root := copyRoot(t, "results/fig10.csv", func(s string) string {
		return strings.Replace(s, "16,ring,6144000,769500,", "16,ring,6144000,1,", 1)
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fluid-train", "--seconds", "0", "--root", root}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 with a corrupted reference\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("result %+v, want correct=false with failures", res)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompareVerdicts checks the compare mode against saved runs: a pair
// of sets is judged on the shift of the median, a single set on its
// spread, setup_s included.
func TestCompareVerdicts(t *testing.T) {
	save := func(dir string, i int, wall, setup float64) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		h, _ := json.Marshal(host{Workload: "fig9-packet", Seed: int64(i)})
		r, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {wall, "s"}, "setup_s": {setup, "s"}}})
		content := "host " + string(h) + "\n" + string(r) + "\n"
		if err := os.WriteFile(filepath.Join(dir, "run"+string(rune('a'+i))), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := t.TempDir()
	a, same, slow, noisy := filepath.Join(base, "a"), filepath.Join(base, "same"), filepath.Join(base, "slow"), filepath.Join(base, "noisy")
	for i := 0; i < 5; i++ {
		save(a, i, 10+0.1*float64(i), 1)
		save(same, i, 10.1+0.1*float64(i), 1)
		save(slow, i, 13+0.1*float64(i), 1)
		save(noisy, i, 10, 1+0.5*float64(i))
	}
	spec := filepath.Join(base, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1},`+
		`{"name":"setup_s","unit":"s","better":"lower","bound":0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sets []string
		code int
		word string
	}{
		{[]string{a, same}, 0, "within bound"},
		{[]string{a, slow}, 1, "REGRESSED"},
		{[]string{a}, 0, "ok (bound"},
		{[]string{noisy}, 1, "NOISY"},
	} {
		var out, errOut bytes.Buffer
		args := append([]string{"compare", "-spec", spec}, c.sets...)
		if code := run(args, &out, &errOut); code != c.code {
			t.Errorf("compare %v: exit %d, want %d\n%s%s", c.sets, code, c.code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), c.word) {
			t.Errorf("compare %v: no %q in\n%s", c.sets, c.word, out.String())
		}
	}
}
