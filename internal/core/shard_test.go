package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"multitree/internal/topology"
)

// TestShardedGrowthIdenticalSchedules pins that removing sharded
// speculative growth left every schedule byte-identical. Each digest is
// the sha256 of the binary IR export recorded while the sharded path
// still existed, when unsharded builds and sharded builds (shards 1, 2,
// 4, 16, and workers 2 with shards 4) were checked equal to each other:
// grid fabrics, switch fabrics and a degraded custom fabric, under both
// tree orders and both allocation strategies. Sequential growth must
// reproduce them at any worker count.
func TestShardedGrowthIdenticalSchedules(t *testing.T) {
	cfgs := []struct {
		name   string
		topo   *topology.Topology
		opts   func(*topology.Topology) Options
		sha256 string
	}{
		{"mesh-16x16", topology.Mesh(16, 16, cfg()), DefaultOptions,
			"8e82e36007bb7786597af7a0ba3876ef852fea905155855ad4804e5118b0305b"},
		{"mesh-4x4", topology.Mesh(4, 4, cfg()), DefaultOptions,
			"3ed19405e8c1b9387ab198be21e4f2cc73655c7b649c8dae897a2621e5df20fa"},
		{"torus-8x8", topology.Torus(8, 8, cfg()), DefaultOptions,
			"a00d71cd63eb66f84864b366e323031142a28dbe1080ec57b0f3680a9e137759"},
		{"torus-8x8-byheight", topology.Torus(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{Order: ByRemainingHeight}
		}, "a00d71cd63eb66f84864b366e323031142a28dbe1080ec57b0f3680a9e137759"},
		{"mesh-8x8-reverse", topology.Mesh(8, 8, cfg()), func(*topology.Topology) Options {
			return Options{ReverseNeighborOrder: true}
		}, "6e5988faea71576b19be07fea467ad2b15fcc1baf200656c623484e56e4a1724"},
		{"bigraph-4x4", topology.BiGraph(4, 4, cfg()), DefaultOptions, // Auto: both variants + scoring
			"045b5bab4b5faa6cb08739bd5e8b85b0f7fa13a5cb454ebdbf8b65835ad9384a"},
		{"bigraph-shortest", topology.BiGraph(4, 4, cfg()), func(*topology.Topology) Options {
			return Options{ShortestPathFirst: true}
		}, "1754ccd5161b097d681359ac353d9ba641b5db2f17d77428d9d8d86e0f684e2a"},
		{"fattree", topology.FatTree(4, 4, 4, cfg()), DefaultOptions,
			"922ed51bc1606413e72286cdaa394c5eb69dc22b578e72112926259dae5cfce3"},
		{"torus-8x8-faulted", degradedTorus8x8(t), DefaultOptions, // custom rebuild: no grid coords
			"25b1a6f3f6bb6225d7105aeb938a3a5a4c892a42e0f296b700ea8ee5a54099c6"},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 2} {
				sum := sha256.Sum256(exportBinaryBuild(t, tc.topo, tc.opts(tc.topo), workers))
				if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
					t.Fatalf("workers=%d: export sha256 %s, want %s", workers, got, tc.sha256)
				}
			}
		})
	}
}
