package core

import (
	"bytes"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/topology"
)

// TestParallelGrowthIdenticalSchedules pins the determinism contract of
// Workers: tree growth stays sequential, and for any worker count the
// parallel lowering and eccentricity pass make Build emit a schedule
// byte-identical (through the canonical IR encoding) to the sequential
// one, on direct and switch-based fabrics, under both tree orders and
// both allocation strategies. Sharded growth has its own contract in
// TestShardedGrowthIdenticalSchedules.
func TestParallelGrowthIdenticalSchedules(t *testing.T) {
	cfgs := []struct {
		name string
		topo *topology.Topology
		opts func(*topology.Topology) Options
	}{
		{"torus-4x4", topology.Torus(4, 4, cfg()), DefaultOptions},
		{"mesh-4x4", topology.Mesh(4, 4, cfg()), DefaultOptions},
		{"mesh-8x8", topology.Mesh(8, 8, cfg()), DefaultOptions},
		{"bigraph-4x4", topology.BiGraph(4, 4, cfg()), DefaultOptions}, // Auto: both variants + scoring
		{"fattree", topology.FatTree(4, 4, 4, cfg()), DefaultOptions},
		{"torus-4x4-byheight", topology.Torus(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{Order: ByRemainingHeight}
		}},
		{"mesh-4x4-reverse", topology.Mesh(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ReverseNeighborOrder: true}
		}},
		{"bigraph-shortest", topology.BiGraph(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ShortestPathFirst: true}
		}},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			want := exportBuild(t, tc.topo, tc.opts(tc.topo), 0)
			for _, workers := range []int{2, 3, 8} {
				got := exportBuild(t, tc.topo, tc.opts(tc.topo), workers)
				if !bytes.Equal(want, got) {
					t.Fatalf("workers=%d schedule differs from sequential build", workers)
				}
			}
		})
	}
}

func exportBuild(t *testing.T, topo *topology.Topology, opts Options, workers int) []byte {
	t.Helper()
	opts.Workers = workers
	s, err := Build(topo, 1<<12, opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := collective.Export(&buf, s); err != nil {
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
