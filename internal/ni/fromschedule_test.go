package ni_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"multitree/internal/algorithms"
	_ "multitree/internal/algorithms/all"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/hdrm"
	"multitree/internal/ni"
	"multitree/internal/ring"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

// digestElems is the gradient size of the pinned cases: 1 MiB.
const digestElems = (1 << 20) / collective.WordSize

// compileDigest compiles s, checks that the Fig. 6 machine drives the
// tables alone to a complete all-reduce, and returns the sha256 of the
// tables' binary image.
func compileDigest(t *testing.T, s *collective.Schedule) string {
	t.Helper()
	tables, err := ni.CompileSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.NewMachine(tables, len(s.Flows)).Run(); err != nil {
		t.Fatalf("machine run: %v", err)
	}
	blob, err := tables.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func parseTopo(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	topo, err := topospec.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestCompileScheduleDigests pins the table images compiled from every
// registry algorithm on the direct-network matrix (only MultiTree has a
// Fig. 5 encoding; every other algorithm is rejected), from the core
// option variants on the indirect fabrics (first-parent fat-tree trees
// chain Reduce entries past MaxChildren), and from the 1024-node grids.
// The digests were recorded from the tree-input compiler these tables
// replaced, so they show the direct compile byte-identical to it.
func TestCompileScheduleDigests(t *testing.T) {
	grid := map[string]string{
		"torus-4x4":  "a9cc56cb180c5a23870c8e0bc5fb78de08d28cdf790671163727bf22d726d4c6",
		"mesh-4x4":   "1089eec9c90768b25d76f66a78518a51f034152a959dcee09e50b7531bca259b",
		"mesh-8x8":   "4aca829a48de5a798862a7d2f7d7e39a3a56546bc0717c436403872f26814019",
		"torus-8x8":  "630b74154997b72ce06c09ddd7315037fa09150508398d1bbb534e3b9356da98",
		"mesh-16x16": "6bf7e974a280fab9103f42225c14868e5b7b25e00bd65409f857e46a080a2901",
	}
	for spec, want := range grid {
		t.Run(spec, func(t *testing.T) {
			topo := parseTopo(t, spec)
			for _, name := range algorithms.Names() {
				s, err := algorithms.Build(topo, name, digestElems, algorithms.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if name != core.Algorithm {
					if _, err := ni.CompileSchedule(s); err == nil {
						t.Errorf("%s schedule compiled to NI tables", name)
					}
					continue
				}
				if got := compileDigest(t, s); got != want {
					t.Errorf("%s tables sha256 %s, want %s", name, got, want)
				}
			}
		})
	}

	for _, tc := range []struct {
		spec, variant string
		opts          func(*topology.Topology) core.Options
		want          string
	}{
		{"fattree-16", "first-parent", func(*topology.Topology) core.Options { return core.Options{} },
			"dbc2fe53375dda06d44acc562c1ee9ddbaba5a3666b597eb81f000f8b8b76964"},
		{"fattree-16", "default", core.DefaultOptions,
			"dbc2fe53375dda06d44acc562c1ee9ddbaba5a3666b597eb81f000f8b8b76964"},
		{"fattree-16", "byheight", func(*topology.Topology) core.Options { return core.Options{Order: core.ByRemainingHeight} },
			"dbc2fe53375dda06d44acc562c1ee9ddbaba5a3666b597eb81f000f8b8b76964"},
		{"fattree-16", "trees5", func(*topology.Topology) core.Options { return core.Options{Trees: 5} },
			"8c4b72ff91ff88a0e65f7ca303ba03fd02f9529ffc559c7d4281aa12de4ffcf1"},
		{"bigraph-32", "first-parent", func(*topology.Topology) core.Options { return core.Options{} },
			"11df9c8819b48dcff3a34362038862ec00df89e1fcfe00bb520543fdba1f6e67"},
		{"bigraph-32", "default", core.DefaultOptions,
			"4a6c4d910e15add9acbc4838ab1dde908c5bad75718a263ab239e75da85a1443"},
		{"bigraph-32", "byheight", func(*topology.Topology) core.Options { return core.Options{Order: core.ByRemainingHeight} },
			"57662c6efab58ac9a7e175c1976123acddd77c0f90e08fb3eb360fe3f8f02b24"},
		{"bigraph-32", "trees5", func(*topology.Topology) core.Options { return core.Options{Trees: 5} },
			"758ac7986eaec56a7a1fb13b3a73ba1ac8491846dec3ca323c2d2b5e4cb0707a"},
		{"mesh-32x32", "default", core.DefaultOptions,
			"b53ce6b1a7e786fec7753d8fd58c079f3cc6d3b3f93b4ed65492a24b5557740f"},
		{"torus-32x32", "default", core.DefaultOptions,
			"8ebdbd0203c4a0a6b0dc78baeb4e6122fb148fc085565e6f01b31f50bf7da4bf"},
	} {
		t.Run(tc.spec+"/"+tc.variant, func(t *testing.T) {
			topo := parseTopo(t, tc.spec)
			s, err := core.Build(topo, digestElems, tc.opts(topo))
			if err != nil {
				t.Fatal(err)
			}
			if got := compileDigest(t, s); got != tc.want {
				t.Errorf("tables sha256 %s, want %s", got, tc.want)
			}
		})
	}
}

// TestCompileScheduleImported: an IR file that crossed the export/import
// boundary still compiles to runnable tables — the end-to-end NI path for
// external schedules.
func TestCompileScheduleImported(t *testing.T) {
	topo := topology.Mesh(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, 640, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := collective.Export(&buf, s); err != nil {
		t.Fatal(err)
	}
	imp, err := collective.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := ni.CompileSchedule(imp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.NewMachine(tables, len(imp.Flows)).Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCompileScheduleSurvivesExport: a schedule that went through the IR
// file format compiles to the same table image as the in-memory schedule
// it was exported from.
func TestCompileScheduleSurvivesExport(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	orig, err := core.Build(topo, 64, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := collective.Export(&buf, orig); err != nil {
		t.Fatal(err)
	}
	imp, err := collective.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := compileDigest(t, imp), compileDigest(t, orig); got != want {
		t.Fatalf("imported schedule compiles to tables sha256 %s, in-memory one to %s", got, want)
	}
}

// TestCompileScheduleRejectsRing: ring's all-gather continues around the
// ring instead of retracing its reduce path, so its gathers have no
// mirrored reduce.
func TestCompileScheduleRejectsRing(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	if _, err := ni.CompileSchedule(ring.Build(topo, 256)); err == nil {
		t.Fatal("ring schedule compiled to NI tables")
	} else if !strings.Contains(err.Error(), "mirror") {
		t.Fatalf("ring rejection should mention the missing mirror, got: %v", err)
	}
}

// tx is one hand-built transfer.
type tx struct {
	op             collective.Op
	flow, src, dst int
	step           int
}

// tree returns the transfers of tree edges {src, dst, ag} of one flow in a
// schedule whose phases are half steps long: the gather src->dst at step
// half+ag and its mirrored reduce dst->src at step half-ag+1.
func tree(flow, half int, edges ...[3]int) []tx {
	var out []tx
	for _, e := range edges {
		out = append(out,
			tx{collective.Gather, flow, e[0], e[1], half + e[2]},
			tx{collective.Reduce, flow, e[1], e[0], half - e[2] + 1})
	}
	return out
}

// handSchedule builds a schedule over topo with the given flow count,
// step count and transfers, exactly as written.
func handSchedule(topo *topology.Topology, flows, steps int, txs ...[]tx) *collective.Schedule {
	s := collective.NewSchedule("hand", topo, 64*flows, flows)
	for _, group := range txs {
		for _, x := range group {
			s.Transfers = append(s.Transfers, collective.Transfer{
				ID: collective.TransferID(len(s.Transfers)), Op: x.op, Flow: x.flow,
				Src: topology.NodeID(x.src), Dst: topology.NodeID(x.dst), Step: x.step,
			})
		}
	}
	s.Steps = steps
	return s
}

// TestCompileScheduleRejects: every schedule that is not one mirrored
// tree per flow over every node is an error, never a mis-compiled table:
// imported IR files are outside input.
func TestCompileScheduleRejects(t *testing.T) {
	mesh := topology.Mesh(3, 2, topology.DefaultLinkConfig()) // 6 nodes
	// A valid tree of height 3 over the 6 nodes.
	valid := [][3]int{{0, 1, 1}, {0, 2, 1}, {1, 3, 2}, {2, 4, 2}, {3, 5, 3}}
	if _, err := ni.CompileSchedule(handSchedule(mesh, 1, 6, tree(0, 3, valid...))); err != nil {
		t.Fatalf("valid hand-built tree rejected: %v", err)
	}
	without := func(drop tx) []tx {
		var out []tx
		for _, x := range tree(0, 3, valid...) {
			if x != drop {
				out = append(out, x)
			}
		}
		return out
	}
	subset, err := core.BuildSubset(topology.Mesh(4, 4, topology.DefaultLinkConfig()),
		[]topology.NodeID{0, 1, 4, 5}, 256, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := hdrm.Build(topology.BiGraph(4, 4, topology.DefaultLinkConfig()), 256)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		s    *collective.Schedule
		want string
	}{
		{"hdrm", hs, ""},
		{"subset-build", subset, "subset schedules"},
		{"odd-steps", handSchedule(mesh, 1, 7, tree(0, 3, valid...)), "even two-phase"},
		{"flow-without-gathers", handSchedule(mesh, 2, 6, tree(0, 3, valid...)), "flow 1 does not reach node 0"},
		{"gather-outside-phase", handSchedule(mesh, 1, 6, tree(0, 3, valid...),
			[]tx{{collective.Gather, 0, 5, 4, 2}}), "outside the all-gather phase"},
		{"two-gathers-into-node", handSchedule(mesh, 1, 6, tree(0, 3, valid...),
			tree(0, 3, [3]int{2, 3, 2})), "receives two all-gather"},
		{"unmirrored-gather", handSchedule(mesh, 1, 6,
			without(tx{collective.Reduce, 0, 5, 3, 1})), "has no mirrored reduce"},
		{"duplicate-reduce", handSchedule(mesh, 1, 6, tree(0, 3, valid...),
			[]tx{{collective.Reduce, 0, 5, 3, 1}}), "mirrors no all-gather edge"},
		{"reduce-in-gather-phase", handSchedule(mesh, 1, 6, tree(0, 3, valid...),
			[]tx{{collective.Reduce, 0, 5, 3, 5}}), "mirrors no all-gather edge"},
		{"two-roots", handSchedule(mesh, 1, 6,
			tree(0, 3, [3]int{0, 1, 1}, [3]int{0, 2, 2}, [3]int{3, 4, 1}, [3]int{3, 5, 2})), "two roots (n0 and n3)"},
		{"subset-flow", handSchedule(mesh, 1, 6,
			tree(0, 3, [3]int{0, 1, 1}, [3]int{0, 2, 2})), "does not reach node 3"},
		// Steps strictly fall up every parent chain, so a cycle always
		// has an edge that attaches no later than its parent's.
		{"cycle", handSchedule(mesh, 1, 6,
			tree(0, 3, [3]int{0, 4, 1}, [3]int{0, 5, 1}, [3]int{1, 2, 1}, [3]int{2, 3, 2}, [3]int{3, 1, 3})), "attaches no later"},
		{"parent-attaches-later", handSchedule(mesh, 1, 6,
			tree(0, 3, [3]int{0, 1, 2}, [3]int{1, 2, 1}, [3]int{0, 3, 1}, [3]int{3, 4, 2}, [3]int{4, 5, 3})), "attaches no later"},
		{"too-many-same-step-children", handSchedule(mesh, 1, 2,
			tree(0, 1, [3]int{0, 1, 1}, [3]int{0, 2, 1}, [3]int{0, 3, 1}, [3]int{0, 4, 1}, [3]int{0, 5, 1})), "same-step children"},
		{"flow-out-of-range", handSchedule(mesh, 1, 6, tree(0, 3, valid...),
			[]tx{{collective.Gather, 1, 0, 1, 4}}), "outside the schedule"},
		{"taller-than-step-counter", handSchedule(mesh, 1, 80000,
			tree(0, 40000, [3]int{0, 1, 40000})), "overflows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, err := ni.CompileSchedule(tc.s)
			if err == nil {
				t.Fatalf("compiled to %d-step tables", ts.Steps)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileScheduleAllocs: the compile allocates a fixed set of
// arrays — the (flow, node) index, the slot counts and one entry arena —
// however many entries the tables hold, so its allocations stay within a
// bound linear in the node count; one allocation per entry would not.
func TestCompileScheduleAllocs(t *testing.T) {
	topo := topology.Mesh(16, 16, topology.DefaultLinkConfig())
	s, err := core.Build(topo, digestElems, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ni.CompileSchedule(s); err != nil {
			t.Fatal(err)
		}
	})
	if bound := float64(4*topo.Nodes() + 64); allocs > bound {
		t.Fatalf("CompileSchedule made %.0f allocations, want <= %.0f (4 per node + 64)", allocs, bound)
	}
}
