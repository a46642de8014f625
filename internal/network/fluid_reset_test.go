package network

// Tests for rebinding one FluidSim across schedules with Reset: results
// identical to a fresh simulator, zero allocations once warm, and the
// CSR successor lists and counting-sorted lockstep step lists matching
// straightforward per-transfer references.

import (
	"reflect"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/sim"
	"multitree/internal/topology"
)

// copyResult detaches a Result from the simulator that owns it.
func copyResult(r *Result) Result {
	c := *r
	c.TransferDone = append([]sim.Time(nil), r.TransferDone...)
	c.LinkBusy = append([]sim.Time(nil), r.LinkBusy...)
	return c
}

// TestFluidSimResetMatchesFresh: one FluidSim rebound across sizes,
// algorithms and topologies (growing, then shrinking), lockstep on and
// off, and a fault plan returns exactly what a fresh SimulateFluid does.
func TestFluidSimResetMatchesFresh(t *testing.T) {
	torus4, torus8 := fluidTorus(), topology.Torus(8, 8, topology.DefaultLinkConfig())
	mesh := topology.Mesh(3, 5, topology.DefaultLinkConfig())
	fat := topology.FatTree(4, 4, 2, topology.DefaultLinkConfig())
	plan, err := faults.ParseSpec("link:0-1:bw=0.5,link:5-6@t=2000:bw=0.25,link:2-3:lat+100")
	if err != nil {
		t.Fatal(err)
	}
	noLockstep := func(c *Config) { c.Lockstep, c.StepPriority = false, false }
	withFaults := func(c *Config) { c.Faults = plan }
	message := func(c *Config) { c.MessageBased = true }
	cases := []struct {
		topo  *topology.Topology
		alg   string
		elems int
		cfg   func(*Config)
	}{
		{torus4, "ring", 1 << 10, nil},
		{torus4, "ring", 64 << 10, nil},
		{torus8, "2d-ring", 256 << 10, nil}, // grow: more nodes, links, transfers
		{torus8, "dbtree", 100003, message},
		{mesh, "dbtree", 4 << 10, noLockstep}, // shrink
		{fat, "ring", 16 << 10, nil},
		{torus4, "2d-ring", 8 << 10, withFaults},
		{torus4, "ring", 1 << 10, noLockstep},
		{torus8, "ring", 3, nil}, // grow again, to a schedule of tiny flows
		{torus4, "dbtree", 1, withFaults},
	}
	var fs FluidSim
	for i, c := range cases {
		s, err := buildRegistry(c.topo, c.alg, c.elems)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		if c.cfg != nil {
			c.cfg(&cfg)
		}
		want, err := SimulateFluid(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Reset(s, cfg); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			got, err := fs.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(copyResult(got), copyResult(want)) {
				t.Fatalf("case %d (%s %s %d) run %d: Reset result differs from a fresh SimulateFluid: %d vs %d cycles",
					i, c.topo.Name(), c.alg, c.elems, run, got.Cycles, want.Cycles)
			}
		}
	}
}

// TestFluidSimResetErrorKeepsBinding: a rejected configuration leaves the
// previous binding in place, and an unbound simulator refuses to run.
func TestFluidSimResetErrorKeepsBinding(t *testing.T) {
	var fs FluidSim
	if _, err := fs.Run(); err == nil {
		t.Fatal("Run on an unbound FluidSim succeeded")
	}
	s, err := buildRegistry(fluidTorus(), "ring", 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Reset(s, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	res, err := fs.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := res.Cycles
	bad := DefaultConfig()
	bad.FlitBytes = 0
	other, err := buildRegistry(fluidTorus(), "dbtree", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Reset(other, bad); err == nil {
		t.Fatal("Reset accepted a zero flit size")
	}
	if res, err := fs.Run(); err != nil || res.Cycles != want {
		t.Fatalf("after a failed Reset: %v cycles, err %v; want the old binding's %d", res.Cycles, err, want)
	}
}

// pinPaths gives every transfer its routed path explicitly, as lowered
// MultiTree schedules carry them, so binding the schedule does not call
// the topology's router.
func pinPaths(s *collective.Schedule) *collective.Schedule {
	for i := range s.Transfers {
		t := &s.Transfers[i]
		t.Path = s.Topo.Route(t.Src, t.Dst)
	}
	return s
}

// TestFluidSimResetSteadyStateAllocs: rebinding a warm simulator to a
// same-shape schedule and running it allocates nothing.
func TestFluidSimResetSteadyStateAllocs(t *testing.T) {
	var scheds [2]*collective.Schedule
	for i, elems := range []int{16 << 10, 48 << 10} {
		s, err := buildRegistry(fluidTorus(), "2d-ring", elems)
		if err != nil {
			t.Fatal(err)
		}
		scheds[i] = pinPaths(s)
	}
	cfg := DefaultConfig()
	var fs FluidSim
	var want [2]sim.Time
	for i, s := range scheds { // warm-up: grow every array to its high-water mark
		if err := fs.Reset(s, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := fs.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Cycles
	}
	k := 0
	allocs := testing.AllocsPerRun(4, func() {
		if err := fs.Reset(scheds[k%2], cfg); err != nil {
			t.Fatal(err)
		}
		res, err := fs.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != want[k%2] {
			t.Fatalf("rebinding %d finished in %d cycles, want %d", k, res.Cycles, want[k%2])
		}
		k++
	})
	if allocs != 0 {
		t.Errorf("Reset+Run on a same-shape schedule allocates %.1f per run, want 0", allocs)
	}
}

// TestFluidInitGraphs: the CSR successor lists and the lockstep step
// lists equal per-transfer references — successors appended in id order,
// each node's distinct send steps with their counts — including a
// schedule whose step span exceeds its transfer count (the
// comparison-sort fallback) and rebinding from a larger schedule.
func TestFluidInitGraphs(t *testing.T) {
	sparse := collective.NewSchedule("sparse", fluidTorus(), 64, 2)
	a := sparse.Add(collective.Transfer{Src: 3, Dst: 2, Op: collective.Reduce, Flow: 0, Step: 900})
	sparse.Add(collective.Transfer{Src: 1, Dst: 2, Op: collective.Reduce, Flow: 1, Step: 7})
	sparse.Add(collective.Transfer{Src: 3, Dst: 0, Op: collective.Gather, Flow: 0, Step: 901, Deps: []collective.TransferID{a}})
	sparse.Add(collective.Transfer{Src: 3, Dst: 7, Op: collective.Gather, Flow: 1, Step: 7})
	var schedules []*collective.Schedule
	for _, alg := range []string{"2d-ring", "ring", "dbtree"} {
		s, err := buildRegistry(topology.Torus(4, 6, topology.DefaultLinkConfig()), alg, 5000)
		if err != nil {
			t.Fatal(err)
		}
		schedules = append(schedules, s)
	}
	schedules = append(schedules, sparse)
	var st fluidState
	for _, s := range schedules {
		st.init(s, DefaultConfig(), nil)
		n := len(s.Transfers)
		wantSucc := make([][]int32, n)
		for i := range s.Transfers {
			for _, d := range s.Transfers[i].Deps {
				wantSucc[d] = append(wantSucc[d], int32(i))
			}
		}
		for i := 0; i < n; i++ {
			got := st.succ[st.succOff[i]:st.succOff[i+1]]
			if len(got) != len(wantSucc[i]) || (len(got) > 0 && !reflect.DeepEqual(got, wantSucc[i])) {
				t.Fatalf("%s: successors of t%d = %v, want %v", s.Algorithm, i, got, wantSucc[i])
			}
		}
		counts := make([]map[int]int, s.Topo.Nodes())
		for i := range counts {
			counts[i] = map[int]int{}
		}
		for i := range s.Transfers {
			counts[s.Transfers[i].Src][s.Transfers[i].Step]++
		}
		for node, c := range st.clocks {
			if len(c.steps) != len(counts[node]) || len(c.stepCnt) != len(c.steps) {
				t.Fatalf("%s: node %d has %d steps, want %d", s.Algorithm, node, len(c.steps), len(counts[node]))
			}
			for k, step := range c.steps {
				if k > 0 && step <= c.steps[k-1] {
					t.Fatalf("%s: node %d steps not increasing: %v", s.Algorithm, node, c.steps)
				}
				if c.stepCnt[k] != counts[node][step] {
					t.Fatalf("%s: node %d step %d has %d sends, want %d",
						s.Algorithm, node, step, c.stepCnt[k], counts[node][step])
				}
			}
		}
	}
}
