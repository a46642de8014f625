package ni_test

import (
	"reflect"
	"testing"

	"multitree/internal/core"
	"multitree/internal/ni"
	"multitree/internal/topology"
)

// TestTableRoundTrip: tables survive the binary load/store path a host
// driver would use, and the reloaded image still drives a correct
// all-reduce through the Fig. 6 machine.
func TestTableRoundTrip(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, 12345, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := ni.CompileSchedule(s)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := tables.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var loaded ni.Tables
	if err := loaded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tables, &loaded) {
		t.Fatal("tables changed across the binary round trip")
	}
	m := ni.NewMachine(&loaded, topo.Nodes())
	if _, err := m.Run(); err != nil {
		t.Fatalf("reloaded tables misbehave: %v", err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var ts ni.Tables
	if err := ts.UnmarshalBinary(nil); err == nil {
		t.Error("empty blob accepted")
	}
	if err := ts.UnmarshalBinary([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err == nil {
		t.Error("wrong magic accepted")
	}
	// Valid header, truncated body.
	topo := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	s, err := core.Build(topo, topo.Nodes()*64, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := ni.CompileSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := tables.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.UnmarshalBinary(blob[:len(blob)-5]); err == nil {
		t.Error("truncated blob accepted")
	}
}
