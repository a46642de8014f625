package multitree

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"multitree/internal/model"
	"multitree/internal/obs"
)

// TestSimulateTraced runs the public tracing path end to end: build,
// simulate with recording, export Chrome-trace JSON and the link CSV, and
// check both artifacts are well formed and consistent with the result.
func TestSimulateTraced(t *testing.T) {
	topo := NewTorus(4, 4)
	s, err := BuildSchedule(topo, MultiTree, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []SimOptions{{}, {PacketLevel: true}} {
		res, tr, err := s.SimulateTraced(opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Simulate(opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != plain.Cycles {
			t.Fatalf("tracing changed the simulation: %d vs %d cycles", res.Cycles, plain.Cycles)
		}
		if tr.Events() == 0 {
			t.Fatalf("no events recorded")
		}

		var js bytes.Buffer
		if err := tr.WriteChromeTrace(&js); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
			t.Fatalf("Chrome trace is not valid JSON: %v", err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("Chrome trace has no events")
		}

		var csv bytes.Buffer
		if err := tr.WriteLinkStats(&csv, 1000); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "link,name,") {
			t.Fatalf("bad link CSV:\n%s", csv.String())
		}
	}
}

// TestBuildScheduleProfiled: the public profiled build produces the
// same schedule as the plain one and a usable phase breakdown.
func TestBuildScheduleProfiled(t *testing.T) {
	topo := NewTorus(4, 4)
	plain, err := BuildSchedule(topo, MultiTree, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanProfile()
	prof, err := BuildScheduleProfiled(topo, MultiTree, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Steps() != prof.Steps() || plain.Transfers() != prof.Transfers() {
		t.Errorf("profiled build differs: %d/%d steps, %d/%d transfers",
			plain.Steps(), prof.Steps(), plain.Transfers(), prof.Transfers())
	}
	if p.TotalWallNanos() <= 0 {
		t.Error("profile recorded no planner wall time")
	}
	if done, total := p.Progress(); total == 0 || done != total {
		t.Errorf("pipeline incomplete after build: %d/%d", done, total)
	}
	var csv strings.Builder
	if err := p.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "tree-growth") {
		t.Errorf("profile CSV missing tree-growth phase:\n%s", csv.String())
	}
}

// TestSimOptionsMetrics checks the Metrics field collects without a Tracer
// and composes with one.
func TestSimOptionsMetrics(t *testing.T) {
	topo := NewTorus(4, 4)
	s, err := BuildSchedule(topo, Ring, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics(0)
	rec := &obs.Recorder{}
	if _, err := s.Simulate(SimOptions{Metrics: met, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	if met.Events() == 0 || int64(len(rec.Events)) != met.Events() {
		t.Fatalf("metrics saw %d events, recorder %d", met.Events(), len(rec.Events))
	}
	if met.StepEnters() == 0 {
		t.Fatalf("no lockstep step entries observed")
	}
	busy := met.LinkBusy()
	total := 0.0
	for _, b := range busy {
		total += b
	}
	if total == 0 {
		t.Fatalf("no link busy time collected")
	}
}

// TestSimulateTrainingMetricsSeeEveryLayer: attached Metrics bypass the
// training loop's per-size memo, so an overlapped iteration records the
// same per-link busy totals as a plain loop simulating every non-empty
// layer's all-reduce in back-propagation order.
func TestSimulateTrainingMetricsSeeEveryLayer(t *testing.T) {
	topo := NewTorus(4, 4)
	const name = "GoogLeNet"
	net, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ref := obs.NewMetrics(0)
	sizes := map[int64]bool{}
	layers := 0
	for i := len(net.Layers) - 1; i >= 0; i-- {
		p := net.Layers[i].Params()
		if p == 0 {
			continue
		}
		sizes[p] = true
		layers++
		s, err := BuildSchedule(topo, Ring, p*4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Simulate(SimOptions{Metrics: ref}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sizes) == layers {
		t.Fatalf("%s repeats no layer size; the memo bypass would go untested", name)
	}
	got := obs.NewMetrics(0)
	if _, err := SimulateTraining(topo, Ring, name, TrainingOptions{
		Overlapped: true, Sim: SimOptions{Metrics: got},
	}); err != nil {
		t.Fatal(err)
	}
	if got.Events() != ref.Events() {
		t.Errorf("training recorded %d events, the per-layer loop %d", got.Events(), ref.Events())
	}
	gb, rb := got.LinkBusy(), ref.LinkBusy()
	if len(gb) != len(rb) {
		t.Fatalf("busy totals for %d links, want %d", len(gb), len(rb))
	}
	for l := range rb {
		if gb[l] != rb[l] {
			t.Errorf("link %d busy %v, per-layer loop %v", l, gb[l], rb[l])
		}
	}
}
