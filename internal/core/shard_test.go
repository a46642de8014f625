package core

import (
	"bytes"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/faults"
	"multitree/internal/topology"
)

// TestShardedGrowthIdenticalSchedules pins the determinism contract of
// sharded tree growth: for any shard count, Build emits a schedule
// byte-identical (through the canonical binary IR encoding) to the
// unsharded one — on grid fabrics (tile assignment), switch fabrics and
// degraded custom fabrics (band assignment), under both tree orders and
// both allocation strategies.
func TestShardedGrowthIdenticalSchedules(t *testing.T) {
	cfgs := []struct {
		name string
		topo *topology.Topology
		opts func(*topology.Topology) Options
	}{
		{"mesh-16x16", topology.Mesh(16, 16, cfg()), DefaultOptions},
		{"mesh-4x4", topology.Mesh(4, 4, cfg()), DefaultOptions},
		{"torus-8x8", topology.Torus(8, 8, cfg()), DefaultOptions},
		{"torus-8x8-byheight", topology.Torus(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{Order: ByRemainingHeight}
		}},
		{"mesh-8x8-reverse", topology.Mesh(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{ReverseNeighborOrder: true}
		}},
		{"bigraph-4x4", topology.BiGraph(4, 4, cfg()), DefaultOptions}, // Auto + band assignment
		{"bigraph-shortest", topology.BiGraph(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ShortestPathFirst: true}
		}},
		{"fattree", topology.FatTree(4, 4, 4, cfg()), DefaultOptions},
		{"torus-8x8-faulted", degradedTorus8x8(t), DefaultOptions}, // custom rebuild: no grid coords
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			want := exportBinaryBuild(t, tc.topo, tc.opts(tc.topo), 0, 0)
			for _, shards := range []int{1, 2, 4, 16} {
				got := exportBinaryBuild(t, tc.topo, tc.opts(tc.topo), 0, shards)
				if !bytes.Equal(want, got) {
					t.Fatalf("shards=%d schedule differs from unsharded build", shards)
				}
			}
			// Shards drives the growth rounds and Workers the lowering
			// and eccentricities; the combination must stay
			// byte-identical too.
			got := exportBinaryBuild(t, tc.topo, tc.opts(tc.topo), 2, 4)
			if !bytes.Equal(want, got) {
				t.Fatalf("workers=2 shards=4 schedule differs from unsharded build")
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

func exportBinaryBuild(t *testing.T, topo *topology.Topology, opts Options, workers, shards int) []byte {
	t.Helper()
	opts.Workers = workers
	opts.Shards = shards
	s, err := Build(topo, 1<<12, opts)
	if err != nil {
		t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
	}
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestShardAssignGrid pins the geometric partition: four shards on a
// mesh are its quadrants, and every shard is non-empty.
func TestShardAssignGrid(t *testing.T) {
	topo := topology.Mesh(8, 8, cfg())
	of := shardAssign(topo, 64, 4)
	counts := make([]int, 4)
	for i, s := range of {
		c, ok := topo.NodeCoord(topology.NodeID(i))
		if !ok {
			t.Fatalf("node %d has no coord", i)
		}
		want := 0
		if c.X >= 4 {
			want++
		}
		if c.Y >= 4 {
			want += 2
		}
		if s != want {
			t.Fatalf("node %d (%d,%d): shard %d, want quadrant %d", i, c.X, c.Y, s, want)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n != 16 {
			t.Fatalf("quadrant %d holds %d roots, want 16", s, n)
		}
	}
}

// TestShardAssignBands covers the fallback for fabrics without grid
// coordinates: contiguous id bands, all shards populated.
func TestShardAssignBands(t *testing.T) {
	topo := degradedTorus8x8(t)
	k := topo.Nodes()
	of := shardAssign(topo, k, 4)
	last := 0
	counts := make([]int, 4)
	for i, s := range of {
		if s < last || s > 3 {
			t.Fatalf("root %d: shard %d not a monotone band", i, s)
		}
		last = s
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("band %d empty", s)
		}
	}
}
