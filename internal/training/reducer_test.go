package training_test

import (
	"testing"

	"multitree/internal/accel"
	"multitree/internal/collective"
	"multitree/internal/experiments"
	"multitree/internal/model"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/sim"
	"multitree/internal/topology"
	"multitree/internal/training"
)

// reference recomputes one iteration the memo-free way: a fresh schedule
// build and a fresh SimulateFluid for every layer all-reduce, queued FIFO
// behind back-propagation exactly as Config.Overlapped documents.
func reference(t *testing.T, c training.Config, net model.Network, overlapped bool) training.Breakdown {
	t.Helper()
	allReduce := func(elems int64) sim.Time {
		s, err := c.Build(c.Topo, int(elems))
		if err != nil {
			t.Fatal(err)
		}
		res, err := network.SimulateFluid(s, c.Net)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	var b training.Breakdown
	b.Forward = sim.Time(c.Accel.NetworkForwardCycles(net, c.BatchPerNode))
	if !overlapped {
		b.Backward = sim.Time(c.Accel.NetworkBackwardCycles(net, c.BatchPerNode))
		b.Comm = allReduce(net.Params())
		b.Exposed = b.Comm
		b.Total = b.Forward + b.Backward + b.Comm
		return b
	}
	now, commFree := b.Forward, b.Forward
	for i := len(net.Layers) - 1; i >= 0; i-- {
		l := net.Layers[i]
		now += sim.Time(c.Accel.BackwardCycles(l, c.BatchPerNode, i == 0))
		if l.Params() == 0 {
			continue
		}
		d := allReduce(l.Params())
		commFree = max(commFree, now) + d
		b.Comm += d
	}
	b.Backward = now - b.Forward
	b.Total = max(now, commFree)
	b.Exposed = b.Total - now
	b.Overlap = b.Comm - b.Exposed
	return b
}

func fig11Config(topo *topology.Topology, alg experiments.AlgSpec) training.Config {
	cfg := training.Config{
		Topo:         topo,
		Accel:        accel.Default(),
		BatchPerNode: 16,
		Net:          network.DefaultConfig(),
		Build:        experiments.TrainingBuilder(alg.Name),
	}
	cfg.Net.MessageBased = alg.Msg
	return cfg
}

// TestIterationMatchesMemoFreeReference: memoizing per gradient size and
// rebinding one FluidSim change no cycle of any zoo model under any Fig. 11
// algorithm, overlapped or not.
func TestIterationMatchesMemoFreeReference(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	for _, net := range model.Zoo() {
		for _, alg := range experiments.Fig11Algorithms() {
			cfg := fig11Config(topo, alg)
			for _, overlapped := range []bool{false, true} {
				var (
					got training.Breakdown
					err error
				)
				if overlapped {
					got, err = cfg.Overlapped(net)
				} else {
					got, err = cfg.NonOverlapped(net)
				}
				if err != nil {
					t.Fatal(err)
				}
				if want := reference(t, cfg, net, overlapped); got != want {
					t.Errorf("%s/%s overlapped=%v: got %v, want %v", net.Name, alg.Name, overlapped, got, want)
				}
			}
		}
	}
}

// countingEngine is the fluid engine with a call counter.
func countingEngine(calls *int) training.Engine {
	return func(s *collective.Schedule, c network.Config) (*network.Result, error) {
		*calls++
		return network.SimulateFluid(s, c)
	}
}

type nopTracer struct{}

func (nopTracer) Emit(obs.Event) {}

// TestOverlappedSimulatesEachSizeOnce: an overlapped iteration runs the
// engine once per distinct layer gradient size — unless a Tracer is
// attached, when every non-empty layer is simulated so it emits its
// events.
func TestOverlappedSimulatesEachSizeOnce(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	for _, net := range model.Zoo() {
		sizes := map[int64]bool{}
		layers := 0
		for _, l := range net.Layers {
			if l.Params() > 0 {
				sizes[l.Params()] = true
				layers++
			}
		}
		for _, traced := range []bool{false, true} {
			calls := 0
			cfg := fig11Config(topo, experiments.AlgSpec{Name: "ring"})
			cfg.Engine = countingEngine(&calls)
			want := len(sizes)
			if traced {
				cfg.Net.Tracer = nopTracer{}
				want = layers
			}
			if _, err := cfg.Overlapped(net); err != nil {
				t.Fatal(err)
			}
			if calls != want {
				t.Errorf("%s traced=%v: %d engine calls, want %d", net.Name, traced, calls, want)
			}
		}
	}
}
