package collective_test

import (
	"bytes"
	"testing"

	"multitree/internal/algorithms"
	_ "multitree/internal/algorithms/all"
	"multitree/internal/collective"
	"multitree/internal/ni"
	"multitree/internal/topology"
)

// fuzzTopo is the fabric every binary seed is exported for: a binary
// schedule records its topology by fingerprint only, so the importer
// needs the same fabric supplied.
func fuzzTopo() *topology.Topology {
	return topology.Torus(4, 4, topology.DefaultLinkConfig())
}

// fuzzSeeds exports ring and multitree schedules on torus-4x4 with
// export, and adds each export plus truncated and bit-flipped copies to
// the corpus.
func fuzzSeeds(f *testing.F, export func(*bytes.Buffer, *collective.Schedule) error) {
	topo := fuzzTopo()
	for _, algo := range []string{"ring", "multitree"} {
		s, err := algorithms.Build(topo, algo, 1024, algorithms.Options{})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := export(&buf, s); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		for _, at := range []int{len(b) / 7, len(b) / 3, len(b) * 5 / 6} {
			flipped := bytes.Clone(b)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
}

// FuzzImportBinary feeds arbitrary bytes to the binary IR loader at
// worker counts 1 and 4. It must never panic; an input either is
// rejected at both worker counts or loads to the same schedule at both,
// and an accepted input re-exports to bytes that load again and
// re-export unchanged, and compiles to NI tables or an error without
// panicking (the compiler indexes by flow and node ids read from the
// file).
func FuzzImportBinary(f *testing.F) {
	fuzzSeeds(f, func(buf *bytes.Buffer, s *collective.Schedule) error {
		return collective.ExportBinary(buf, s)
	})
	topo := fuzzTopo()
	f.Fuzz(func(t *testing.T, data []byte) {
		var exports [][]byte
		for _, workers := range []int{1, 4} {
			opts := collective.BinaryImportOptions{Workers: workers}
			s, _, err := collective.ImportBinaryIntoOpts(bytes.NewReader(data), topo, opts)
			if err != nil {
				exports = append(exports, nil)
				continue
			}
			var first bytes.Buffer
			if err := collective.ExportBinary(&first, s); err != nil {
				t.Fatalf("workers=%d: accepted input does not re-export: %v", workers, err)
			}
			again, _, err := collective.ImportBinaryIntoOpts(bytes.NewReader(first.Bytes()), topo, opts)
			if err != nil {
				t.Fatalf("workers=%d: re-export does not load: %v", workers, err)
			}
			var second bytes.Buffer
			if err := collective.ExportBinary(&second, again); err != nil {
				t.Fatalf("workers=%d: reloaded schedule does not re-export: %v", workers, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("workers=%d: export -> import -> export changed the bytes", workers)
			}
			_, _ = ni.CompileSchedule(s)
			exports = append(exports, first.Bytes())
		}
		if (exports[0] == nil) != (exports[1] == nil) || !bytes.Equal(exports[0], exports[1]) {
			t.Fatalf("worker counts 1 and 4 disagree on the input (accepted: %v, %v)", exports[0] != nil, exports[1] != nil)
		}
	})
}

// FuzzImport feeds arbitrary bytes to the JSON IR loader. It must never
// panic, an accepted input re-exports to bytes that import again and
// re-export unchanged, and it compiles to NI tables or an error without
// panicking.
func FuzzImport(f *testing.F) {
	fuzzSeeds(f, func(buf *bytes.Buffer, s *collective.Schedule) error {
		return collective.Export(buf, s)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := collective.Import(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := collective.Export(&first, s); err != nil {
			t.Fatalf("accepted input does not re-export: %v", err)
		}
		again, err := collective.Import(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-export does not import: %v", err)
		}
		var second bytes.Buffer
		if err := collective.Export(&second, again); err != nil {
			t.Fatalf("re-imported schedule does not re-export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("export -> import -> export changed the bytes")
		}
		_, _ = ni.CompileSchedule(s)
	})
}
