package collective_test

import (
	"bytes"
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/topology"
)

// chainTree builds a unary tree root -> 1 -> 2 -> 3 on the 2x2 mesh.
func chainTree() *collective.Tree {
	tr := collective.NewTree(0, 0, 4)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(1, 3, 2)
	tr.SetEdge(3, 2, 3)
	return tr
}

func TestTreeValidateAccepts(t *testing.T) {
	if err := chainTree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeValidateRejectsDisconnected(t *testing.T) {
	tr := collective.NewTree(0, 0, 4)
	tr.SetEdge(0, 1, 1)
	if err := tr.Validate(); err == nil {
		t.Error("tree missing nodes validated")
	}
}

func TestTreeValidateRejectsNonMonotoneSteps(t *testing.T) {
	tr := collective.NewTree(0, 0, 3)
	tr.SetEdge(0, 1, 2)
	tr.SetEdge(1, 2, 1) // child attaches before its parent
	if err := tr.Validate(); err == nil {
		t.Error("non-monotone steps validated")
	}
}

func TestTreeValidateRejectsCycle(t *testing.T) {
	tr := collective.NewTree(0, 0, 3)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(2, 2, 2) // self-parent cycle (never reaches root)
	if err := tr.Validate(); err == nil {
		t.Error("cycle validated")
	}
}

func TestTreeHeight(t *testing.T) {
	tr := collective.NewTree(0, 0, 4)
	tr.SetEdge(0, 3, 2)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(0, 2, 1)
	if tr.Height() != 2 {
		t.Errorf("height = %d, want 2", tr.Height())
	}
}

func TestTreeString(t *testing.T) {
	s := chainTree().String()
	for _, want := range []string{"tree 0 root n0", "t1: n0->n1", "t3: n3->n2"} {
		if !strings.Contains(s, want) {
			t.Errorf("tree rendering missing %q: %s", want, s)
		}
	}
}

// TestTreesToScheduleStructure lowers one chain tree and checks phases,
// steps and dependencies.
func TestTreesToScheduleStructure(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	s, err := collective.TreesToSchedule("unit", topo, 400, []*collective.Tree{chainTree()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 reduce + 3 gather transfers; reduce steps 1..3, gather 4..6.
	if len(s.Transfers) != 6 || s.Steps != 6 {
		t.Fatalf("%d transfers %d steps, want 6 and 6", len(s.Transfers), s.Steps)
	}
	var reduceSteps, gatherSteps []int
	for i := range s.Transfers {
		tr := &s.Transfers[i]
		if tr.Op == collective.Reduce {
			reduceSteps = append(reduceSteps, tr.Step)
			// Reduce direction is child -> parent: deepest node 2 sends
			// first.
			if tr.Step == 1 && tr.Src != 2 {
				t.Errorf("first reduce from node %d, want 2", tr.Src)
			}
		} else {
			gatherSteps = append(gatherSteps, tr.Step)
		}
	}
	for _, st := range reduceSteps {
		if st < 1 || st > 3 {
			t.Errorf("reduce step %d out of phase", st)
		}
	}
	for _, st := range gatherSteps {
		if st < 4 || st > 6 {
			t.Errorf("gather step %d out of phase", st)
		}
	}
	// Semantics: all-reduce for flow 0's segment only. With one tree the
	// whole vector is flow 0, so this is a full all-reduce.
	if err := collective.VerifyAllReduce(s, collective.RampInputs(4, 400)); err != nil {
		t.Fatal(err)
	}
}

// TestTreesToSchedulePinnedPaths checks that reduce transfers use the
// reversed allocated path.
func TestTreesToSchedulePinnedPaths(t *testing.T) {
	topo := topology.FatTree(2, 2, 2, topology.DefaultLinkConfig())
	tr := collective.NewTree(0, 0, 4)
	tr.SetEdge(0, 1, 1)
	tr.SetEdge(0, 2, 2)
	tr.SetEdge(2, 3, 3)
	tr.Path[1] = topo.Route(0, 1)
	tr.Path[2] = topo.Route(0, 2)
	tr.Path[3] = topo.Route(2, 3)
	s, err := collective.TreesToSchedule("unit", topo, 100, []*collective.Tree{tr})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Transfers {
		tf := &s.Transfers[i]
		if tf.Path == nil {
			t.Fatalf("transfer %d lost its pinned path", i)
		}
		cur := int(tf.Src)
		for _, id := range tf.Path {
			l := topo.Link(id)
			if l.Src != cur {
				t.Fatalf("transfer %d path discontiguous", i)
			}
			cur = l.Dst
		}
		if cur != int(tf.Dst) {
			t.Fatalf("transfer %d path ends at %d, want %d", i, cur, tf.Dst)
		}
	}
}

func TestTreesToScheduleRejectsBadTree(t *testing.T) {
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	bad := collective.NewTree(0, 0, 4)
	if _, err := collective.TreesToSchedule("unit", topo, 100, []*collective.Tree{bad}); err == nil {
		t.Error("disconnected tree lowered without error")
	}
}

// TestTreesToScheduleParallelDeterministic: the lowered schedule — and
// therefore its binary IR, content hash included — is byte-identical at
// every worker count.
func TestTreesToScheduleParallelDeterministic(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	trees, err := core.BuildTrees(topo, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, workers := range []int{1, 2, 3, 8, 64} {
		s, err := collective.TreesToScheduleParallel(core.Algorithm, topo, 1<<12, trees, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := collective.ExportBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = buf
			continue
		}
		if !bytes.Equal(want.Bytes(), buf.Bytes()) {
			t.Fatalf("workers=%d lowers to different bytes than workers=1", workers)
		}
	}
}
