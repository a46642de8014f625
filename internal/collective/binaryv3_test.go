package collective_test

// Tests of the version-3 sectioned binary IR and its trust machinery:
// validation-summary loads, the content digests as the corruption
// backstop on the sequential and parallel paths, the VerifyFull escape
// hatch, parallel-decode invariance (the materialized schedule is
// byte-identical at every worker count), and the non-seekable fallback.

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/topology"
)

func buildTorus4x4(t *testing.T) (*topology.Topology, *collective.Schedule) {
	t.Helper()
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	s, err := core.Build(topo, 1<<12, core.DefaultOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	return topo, s
}

// TestBinaryV3SummaryLoad: a default import is accepted on its
// validation summary, and the summary's counts describe the schedule
// exactly.
func TestBinaryV3SummaryLoad(t *testing.T) {
	topo, s := buildTorus4x4(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, info, err := collective.ImportBinaryIntoOpts(bytes.NewReader(buf.Bytes()), topo, collective.BinaryImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != collective.BinaryIRVersion || info.Validation != "summary" {
		t.Fatalf("info = %+v, want current version, summary-validated", info)
	}
	if info.Summary == nil {
		t.Fatal("no validation summary reported")
	}
	var deps, hops int64
	for i := range s.Transfers {
		deps += int64(len(s.Transfers[i].Deps))
		hops += int64(len(s.PathOf(&s.Transfers[i])))
	}
	sum := info.Summary
	if sum.Transfers != int64(len(s.Transfers)) || sum.DepEdges != deps || sum.PathHops != hops {
		t.Fatalf("summary %+v does not match schedule (%d transfers, %d deps, %d hops)",
			sum, len(s.Transfers), deps, hops)
	}
	if sum.CoveredElems != int64(s.Elems) {
		t.Fatalf("summary covers %d elems, schedule has %d", sum.CoveredElems, s.Elems)
	}
	if sum.LinksUsed <= 0 || sum.LinksUsed > int64(len(topo.Links())) {
		t.Fatalf("summary links used = %d, topology has %d", sum.LinksUsed, len(topo.Links()))
	}
	// The trusted load is still the same schedule: full validation holds.
	if err := got.ValidateStrict(); err != nil {
		t.Fatal(err)
	}
}

// flipSweep flips one bit at a time across the encoded body — meta,
// every section, footer, trailer — and requires every variant to be
// rejected at the given decode worker count. Flips that keep the
// sections decodable and the summary cross-checks consistent must be
// caught by a digest ("content hash mismatch"), and the sweep must
// engage that backstop at least once.
func flipSweep(t *testing.T, workers int) {
	t.Helper()
	topo, s := buildTorus4x4(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Body starts after magic(4) + version varint(1) + root hash(32).
	const bodyOff = 4 + 1 + 32
	hashCaught := 0
	// Step a few bytes at a time to keep the sweep fast; every sampled
	// offset still covers meta, flow, transfer, dep, path and table bytes.
	for off := bodyOff; off < len(good); off += 3 {
		bad := bytes.Clone(good)
		bad[off] ^= 0x01
		_, _, err := collective.ImportBinaryIntoOpts(bytes.NewReader(bad), topo,
			collective.BinaryImportOptions{Workers: workers})
		if err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
		if strings.Contains(err.Error(), "content hash mismatch") {
			hashCaught++
		}
	}
	if hashCaught == 0 {
		t.Fatal("no flip was caught by a content digest; the backstop never engaged")
	}
}

// TestBinaryV3NoSingleBitFlipAccepted runs the single-bit flip sweep on
// the sequential decode path.
func TestBinaryV3NoSingleBitFlipAccepted(t *testing.T) {
	flipSweep(t, 0)
}

// TestBinaryV3ParallelDecodeInvariance: importing one v3 file at any
// worker count materializes the same schedule — pinned by re-exporting
// each load and comparing bytes, content hash included.
func TestBinaryV3ParallelDecodeInvariance(t *testing.T) {
	topo, s := buildTorus4x4(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, info, err := collective.ImportBinaryIntoOpts(bytes.NewReader(good), topo,
			collective.BinaryImportOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if info.Version != collective.BinaryIRVersion || info.Validation != "summary" {
			t.Fatalf("workers=%d: info = %+v, want v%d summary-validated",
				workers, info, collective.BinaryIRVersion)
		}
		var re bytes.Buffer
		if err := collective.ExportBinary(&re, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(good, re.Bytes()) {
			t.Fatalf("workers=%d: decoded schedule re-exports to different bytes", workers)
		}
		if err := got.ValidateStrict(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestBinaryV3TamperRejectedParallel runs the same sweep against the
// fan-out path, where a missed check would race instead of fail.
func TestBinaryV3TamperRejectedParallel(t *testing.T) {
	flipSweep(t, 8)
}

// TestBinaryV3RootHashCoversTrailer: flipping root-hash bytes
// themselves must also reject — the stored root no longer matches the
// recomputed one.
func TestBinaryV3RootHashCoversTrailer(t *testing.T) {
	topo, s := buildTorus4x4(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{5, 20, 36} { // first, middle, last hash byte
		bad := bytes.Clone(buf.Bytes())
		bad[off] ^= 0x80
		if _, _, err := collective.ImportBinaryIntoOpts(bytes.NewReader(bad), topo,
			collective.BinaryImportOptions{Workers: 4}); err == nil {
			t.Fatalf("flip in stored root hash at offset %d accepted", off)
		}
	}
}

// TestBinaryV3StreamFallback: a v3 file arriving on a plain io.Reader
// (no ReaderAt/Seeker — a network stream, a pipe) still loads via the
// buffered fallback, identically to the random-access path.
func TestBinaryV3StreamFallback(t *testing.T) {
	topo, s := buildTorus4x4(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, info, err := collective.ImportBinaryIntoOpts(
		struct{ io.Reader }{bytes.NewReader(buf.Bytes())}, topo,
		collective.BinaryImportOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != collective.BinaryIRVersion {
		t.Fatalf("version = %d, want %d", info.Version, collective.BinaryIRVersion)
	}
	var re bytes.Buffer
	if err := collective.ExportBinary(&re, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), re.Bytes()) {
		t.Fatal("stream-fallback load re-exports to different bytes")
	}
}

// verifyFull checks that the escape hatch forces the complete
// validation pass (witness hash included) and reports it, at the given
// decode worker count.
func verifyFull(t *testing.T, workers int) {
	t.Helper()
	topo, s := buildTorus4x4(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	_, info, err := collective.ImportBinaryIntoOpts(bytes.NewReader(buf.Bytes()), topo,
		collective.BinaryImportOptions{VerifyFull: true, Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if info.Validation != "full" {
		t.Fatalf("workers=%d: validation = %q, want full", workers, info.Validation)
	}
}

// TestBinaryV2VerifyFull runs the VerifyFull check on the sequential
// decode path. It keeps the name it had when the trust machinery
// (summary, digests, VerifyFull) arrived with format version 2; it now
// exercises the current format.
func TestBinaryV2VerifyFull(t *testing.T) {
	verifyFull(t, 0)
}

// TestBinaryV3VerifyFull runs the VerifyFull check on the parallel
// decode path of the sectioned format.
func TestBinaryV3VerifyFull(t *testing.T) {
	verifyFull(t, 8)
}

// TestBinaryV3Truncated: cutting the file at any of a few points —
// inside the trailer, the footer, a section — must reject, never hang
// or mis-decode.
func TestBinaryV3Truncated(t *testing.T) {
	topo, s := buildTorus4x4(t)
	var buf bytes.Buffer
	if err := collective.ExportBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, n := range []int{len(good) - 1, len(good) - 8, len(good) - 17, len(good) / 2, 40} {
		if _, _, err := collective.ImportBinaryIntoOpts(bytes.NewReader(good[:n]), topo,
			collective.BinaryImportOptions{Workers: 4}); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(good))
		}
	}
}

// TestScheduleMemBytes: the memory-cache cost function scales with the
// schedule's actual contents and never returns zero for a real plan.
func TestScheduleMemBytes(t *testing.T) {
	_, s := buildTorus4x4(t)
	got := s.MemBytes()
	if got <= 0 {
		t.Fatalf("MemBytes = %d, want > 0", got)
	}
	// At minimum the transfer array itself must be counted.
	if floor := int64(len(s.Transfers)) * 16; got < floor {
		t.Fatalf("MemBytes = %d, below the transfer array floor %d", got, floor)
	}
}
