package core

import (
	"bytes"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/topology"
)

// TestParallelGrowthIdenticalSchedules pins the determinism contract of
// Workers: tree growth stays sequential, and for any worker count the
// parallel lowering and eccentricity pass make Build emit a schedule
// byte-identical (through the binary IR encoding) to the sequential
// one, on grid, switch-based and degraded custom fabrics, under both
// tree orders and both allocation strategies.
func TestParallelGrowthIdenticalSchedules(t *testing.T) {
	cfgs := []struct {
		name string
		topo *topology.Topology
		opts func(*topology.Topology) Options
	}{
		{"torus-4x4", topology.Torus(4, 4, cfg()), DefaultOptions},
		{"mesh-4x4", topology.Mesh(4, 4, cfg()), DefaultOptions},
		{"mesh-8x8", topology.Mesh(8, 8, cfg()), DefaultOptions},
		{"mesh-16x16", topology.Mesh(16, 16, cfg()), DefaultOptions},
		{"torus-8x8", topology.Torus(8, 8, cfg()), DefaultOptions},
		{"torus-8x8-faulted", degradedTorus8x8(t), DefaultOptions},     // custom rebuild: no grid coords
		{"bigraph-4x4", topology.BiGraph(4, 4, cfg()), DefaultOptions}, // Auto: both variants + scoring
		{"fattree", topology.FatTree(4, 4, 4, cfg()), DefaultOptions},
		{"torus-4x4-byheight", topology.Torus(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{Order: ByRemainingHeight}
		}},
		{"torus-8x8-byheight", topology.Torus(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{Order: ByRemainingHeight}
		}},
		{"mesh-4x4-reverse", topology.Mesh(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ReverseNeighborOrder: true}
		}},
		{"mesh-8x8-reverse", topology.Mesh(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{ReverseNeighborOrder: true}
		}},
		{"bigraph-shortest", topology.BiGraph(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ShortestPathFirst: true}
		}},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			want := exportBinaryBuild(t, tc.topo, tc.opts(tc.topo), 0)
			for _, workers := range []int{2, 3, 8} {
				got := exportBinaryBuild(t, tc.topo, tc.opts(tc.topo), workers)
				if !bytes.Equal(want, got) {
					t.Fatalf("workers=%d schedule differs from sequential build", workers)
				}
			}
		})
	}
}

// degradedTorus8x8 applies a non-disconnecting fault plan to a torus-8x8
// and returns the rebuilt (custom, coordinate-free) fabric, the shape a
// re-plan after faults.Apply sees.
func degradedTorus8x8(t testing.TB) *topology.Topology {
	plan, err := faults.ParseSpec("link:0-1:down,link:9-10:down,node:63:down")
	if err != nil {
		t.Fatal(err)
	}
	d, err := faults.Apply(topology.Torus(8, 8, cfg()), plan)
	if err != nil {
		t.Fatal(err)
	}
	return d.Topo
}

func exportBinaryBuild(t *testing.T, topo *topology.Topology, opts Options, workers int) []byte {
	t.Helper()
	opts.Workers = workers
	s, err := Build(topo, 1<<12, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestParallelGrowthTreesMatch checks BuildTrees (the no-lowering entry
// point) too: with Workers set, edges, steps and pinned paths must match
// the sequential trees exactly.
func TestParallelGrowthTreesMatch(t *testing.T) {
	topo := topology.Torus(6, 6, cfg())
	opts := DefaultOptions(topo)
	seq, err := BuildTrees(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par, err := BuildTrees(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("tree count %d != %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i].String() != par[i].String() {
			t.Fatalf("tree %d differs:\nsequential %s\nparallel   %s", i, seq[i], par[i])
		}
		for node, p := range seq[i].Path {
			got := par[i].Path[node]
			if len(got) != len(p) {
				t.Fatalf("tree %d node %d path length differs", i, node)
			}
			for j := range p {
				if got[j] != p[j] {
					t.Fatalf("tree %d node %d path differs", i, node)
				}
			}
		}
	}
}
