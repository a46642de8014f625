package hdrm

import (
	"math/bits"
	"testing"
	"testing/quick"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

func cfg() topology.LinkConfig { return topology.DefaultLinkConfig() }

func TestRejectsNonPowerOfTwo(t *testing.T) {
	topo := topology.Mesh(3, 3, cfg())
	if _, err := Build(topo, 100); err == nil {
		t.Error("9 nodes accepted by halving-doubling")
	}
}

// TestLogSteps: halving-doubling finishes in 2*log2(N) steps.
func TestLogSteps(t *testing.T) {
	topo := topology.BiGraph(4, 4, cfg()) // 32 nodes
	s, err := Build(topo, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if s.Steps != 10 {
		t.Errorf("steps = %d, want 2*log2(32) = 10", s.Steps)
	}
}

// TestBandwidthOptimal: total communicated volume is 2(N-1)/N * S per
// node.
func TestBandwidthOptimal(t *testing.T) {
	topo := topology.BiGraph(4, 4, cfg())
	s, err := Build(topo, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	a := collective.Analyze(s)
	if ov := a.BandwidthOverhead(); ov < 0.99 || ov > 1.01 {
		t.Errorf("bandwidth overhead = %.3f, want 1.0", ov)
	}
}

// TestLayerCrossing: with the popcount rank mapping, every communication
// pair connects an upper-layer node with a lower-layer node (the EFLOPS
// property that each pair crosses exactly one bipartite link).
func TestLayerCrossing(t *testing.T) {
	topo := topology.BiGraph(4, 4, cfg())
	s, err := Build(topo, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if tr.Src%2 == tr.Dst%2 {
			t.Fatalf("transfer %d connects same-layer nodes %d and %d", i, tr.Src, tr.Dst)
		}
	}
}

// TestContentionFreeOnBiGraph: after the slot refinement no two same-step
// transfers share an inter-switch link.
func TestContentionFreeOnBiGraph(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.BiGraph(4, 4, cfg()),
		topology.BiGraph(8, 4, cfg()),
	} {
		s, err := Build(topo, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		if a := collective.Analyze(s); !a.ContentionFree() {
			t.Errorf("%s: hdrm contended (overlap %d)", topo.Name(), a.MaxLinkOverlap)
		}
	}
}

// TestPopcountMappingProperty: flipping any single bit of a rank flips the
// popcount parity — the invariant the layer split relies on.
func TestPopcountMappingProperty(t *testing.T) {
	f := func(r uint8, k uint8) bool {
		bit := uint(1) << (k % 8)
		a := bits.OnesCount(uint(r)) % 2
		b := bits.OnesCount(uint(r)^bit) % 2
		return a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCorrectnessProperty covers sizes including ones not divisible by N.
func TestCorrectnessProperty(t *testing.T) {
	topo := topology.BiGraph(4, 4, cfg())
	f := func(e uint16) bool {
		elems := 1 + int(e)%4000
		s, err := Build(topo, elems)
		if err != nil {
			return false
		}
		return collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), elems)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestWorksOnOtherPowerOfTwoTopologies: HDRM degrades to identity-mapped
// halving-doubling elsewhere but stays correct.
func TestWorksOnOtherPowerOfTwoTopologies(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Torus(4, 4, cfg()),
		topology.FatTree(4, 4, 4, cfg()),
	} {
		s, err := Build(topo, 777)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if err := collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), 777)); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

// TestRankMappingPinned: the refinement's search result on the Fig. 9
// BiGraph fabrics is pinned, so a change to how swaps are scored cannot
// silently change the schedule HDRM builds.
func TestRankMappingPinned(t *testing.T) {
	for _, tc := range []struct {
		perLayer int
		want     []topology.NodeID
	}{
		{4, []topology.NodeID{24, 27, 3, 20, 25, 16, 28, 7, 19, 26, 30, 13, 2, 17, 15, 4, 11, 18, 8, 9, 12, 21, 23, 22, 0, 31, 1, 14, 29, 10, 6, 5}},
		{8, []topology.NodeID{56, 59, 55, 54, 63, 40, 60, 35, 45, 52, 58, 31, 34, 51, 15, 24, 1, 16, 48, 9, 12, 5, 11, 22, 50, 25, 17, 0, 21, 20, 30, 53, 7, 4, 10, 19, 28, 37, 13, 14, 32, 41, 33, 42, 3, 62, 36, 27, 18, 49, 39, 8, 23, 26, 46, 29, 57, 6, 2, 43, 38, 61, 47, 44}},
	} {
		topo := topology.BiGraph(tc.perLayer, 4, cfg()) // bigraph-32, bigraph-64
		got := rankMapping(topo)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: mapping has %d ranks, want %d", topo.Name(), len(got), len(tc.want))
		}
		for r := range got {
			if got[r] != tc.want[r] {
				t.Fatalf("%s: rank %d -> node %d, want %d\ngot  %v\nwant %v",
					topo.Name(), r, got[r], tc.want[r], got, tc.want)
			}
		}
	}
}
