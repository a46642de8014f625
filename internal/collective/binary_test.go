package collective_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/ring"
	"multitree/internal/topology"
)

// TestBinaryRoundTrip: the binary IR is lossless against the JSON
// interchange IR — a schedule sent through ExportBinary/ImportBinaryInto
// re-exports to JSON byte-identically, which is what lets the plan cache
// serve an entry in place of a fresh build without changing any -export
// file downstream.
func TestBinaryRoundTrip(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	const elems = 1 << 12
	for _, build := range []func() (*collective.Schedule, error){
		func() (*collective.Schedule, error) { return ring.Build(topo, elems), nil },
		func() (*collective.Schedule, error) { return core.Build(topo, elems, core.DefaultOptions(topo)) },
	} {
		orig, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		if err := collective.ExportBinary(&bin, orig); err != nil {
			t.Fatal(err)
		}
		imp, err := collective.ImportBinaryInto(bytes.NewReader(bin.Bytes()), topo)
		if err != nil {
			t.Fatalf("%s: binary import: %v", orig.Algorithm, err)
		}
		if imp.Topo != topo {
			t.Fatalf("%s: ImportBinaryInto did not keep the provided topology", orig.Algorithm)
		}
		var wantJSON, haveJSON bytes.Buffer
		if err := collective.Export(&wantJSON, orig); err != nil {
			t.Fatal(err)
		}
		if err := collective.Export(&haveJSON, imp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON.Bytes(), haveJSON.Bytes()) {
			t.Fatalf("%s: JSON export differs after a binary round trip", orig.Algorithm)
		}
		if err := collective.VerifyAllReduce(imp, collective.RampInputs(topo.Nodes(), elems)); err != nil {
			t.Fatalf("%s: binary-imported schedule fails correctness: %v", orig.Algorithm, err)
		}
	}
}

// TestBinaryStreamMatchesBuffered: the seekable hash-while-write path
// (what the plan cache's Put drives through an *os.File) must produce
// exactly the bytes of the buffered path — same digest field included —
// and import cleanly. The two paths share the body encoder; this pins
// the header/hash-patching plumbing around it.
func TestBinaryStreamMatchesBuffered(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	const elems = 1 << 12
	s, err := core.Build(topo, elems, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	var buffered bytes.Buffer
	if err := collective.ExportBinary(&buffered, s); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "stream-*.plan")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := collective.ExportBinary(f, s); err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), streamed) {
		t.Fatal("streaming export bytes differ from buffered export")
	}
	if _, err := collective.ImportBinaryInto(bytes.NewReader(streamed), topo); err != nil {
		t.Fatalf("streamed export does not import: %v", err)
	}
}

// TestBinaryImportRejects covers the rejection paths that matter for a
// cache that must never serve a wrong plan: foreign files, version
// drift, topology mismatch, and truncation anywhere in the stream.
func TestBinaryImportRejects(t *testing.T) {
	torus := topology.Torus(4, 4, topology.DefaultLinkConfig())
	mesh := topology.Mesh(4, 4, topology.DefaultLinkConfig())
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, ring.Build(torus, 256)); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()

	if _, err := collective.ImportBinaryInto(bytes.NewReader(file), torus); err != nil {
		t.Fatalf("baseline file rejected: %v", err)
	}
	if _, err := collective.ImportBinaryInto(bytes.NewReader(file), mesh); err == nil {
		t.Fatal("accepted a mesh for a torus schedule")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := collective.ImportBinaryInto(bytes.NewReader([]byte(`{"version": 1}`)), torus); err == nil {
		t.Fatal("accepted a JSON file as binary")
	}
	// Versions 1 and 2 are retired encodings and 99 is from the future:
	// the version check itself must refuse all three, before decoding.
	for _, v := range []byte{1, 2, 99} {
		wrongVersion := append([]byte(nil), file...)
		wrongVersion[4] = v // version varint follows the 4-byte magic
		if _, err := collective.ImportBinaryInto(bytes.NewReader(wrongVersion), torus); err == nil {
			t.Fatalf("accepted format version %d", v)
		} else if !strings.Contains(err.Error(), "unsupported binary schedule version") {
			t.Fatalf("version %d: unexpected error: %v", v, err)
		}
	}
	for _, cut := range []int{len(file) / 4, len(file) / 2, len(file) - 1} {
		if _, err := collective.ImportBinaryInto(bytes.NewReader(file[:cut]), torus); err == nil {
			t.Fatalf("accepted a file truncated to %d bytes", cut)
		}
	}
}
