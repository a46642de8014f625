package collective

// A compact binary rendering of the schedule IR, for the plan cache's
// hot load path. The JSON IR of encoding.go stays the interchange
// format — self-contained, diffable, hand-editable; this encoding
// trades all of that for decode speed: a 1024-node MultiTree schedule
// (~2M transfers) loads in a few hundred milliseconds where the JSON
// form takes ten seconds, which is the difference between a plan cache
// that pays for itself and one that loses to re-planning.
//
// The format is not self-contained: it records the topology's
// fingerprint, not its link list, so it can only be loaded onto a live
// topology that hashes to the same value (ImportBinaryInto). That is
// exactly the plan cache's situation.
//
// Validation happens at store time. The exporter runs the full
// ValidateStrict pass once, then embeds a validation summary —
// transfer/dependency/path-hop/link counts, the coverage extent, and a
// witness hash of the deterministic topological order — plus sha256
// digests over every byte of the stream. A load checks the summary's
// cross-checks and the digests in O(bytes) instead of re-running Kahn
// and per-path continuity over millions of transfers;
// BinaryImportOptions.VerifyFull restores the full pass. The cache
// directory is trusted to hold what the exporter wrote (an adversary
// who can write arbitrary cache files could always substitute a
// different valid schedule); the digests turn silent corruption into a
// rebuild.
//
// The layout (sections.go) splits the stream into independently
// decodable sections with per-section digests under a root tree hash,
// so ImportBinary fans decoding out across BinaryImportOptions.Workers
// goroutines reading through an io.ReaderAt.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"multitree/internal/obs"
	"multitree/internal/topology"
)

// BinaryIRVersion is the binary schedule encoding version: version 3 is
// the sectioned, parallel-decodable layout of sections.go, and the only
// one the importer accepts. A format change makes old cache keys
// unreachable (a cache miss) rather than misread, and a file in any
// other version fails to load.
const BinaryIRVersion = 3

// binaryMagic brands binary schedule files. Distinct from both JSON
// ('{') and anything a truncated write leaves behind.
var binaryMagic = [4]byte{'M', 'T', 'I', 'R'}

const (
	opReduceBin = 0
	opGatherBin = 1
)

// hashSize is sha256's digest length, the size of both the content hash
// and the topo-order witness hash.
const hashSize = sha256.Size

// ValidationSummary is the store-time validation record embedded in a
// binary schedule: the exact output sizes the decoder preallocates, and
// the evidence that the full ValidateStrict pass ran when the file was
// written.
type ValidationSummary struct {
	// Transfers/DepEdges/PathHops are the exact entity counts of the
	// transfer, dependency and path-hop sections; the decoder sizes its
	// arrays from them and rejects a stream that deviates.
	Transfers int64
	DepEdges  int64
	PathHops  int64

	// LinksUsed is the number of distinct directed links appearing in
	// pinned paths; the decoder recounts it as it scans.
	LinksUsed int64

	// CoveredElems is the gradient extent the flow-coverage check proved
	// covered at store time (Elems, or 0 for an empty schedule where the
	// check is vacuous).
	CoveredElems int64

	// Witness is the sha256 over the schedule's deterministic topological
	// order (little-endian uint32 ids), recorded when store-time
	// validation computed it. A VerifyFull load recomputes and compares.
	Witness [hashSize]byte
}

// BinaryImportOptions controls how ImportBinaryIntoOpts validates.
type BinaryImportOptions struct {
	// VerifyFull re-runs the complete ValidateStrict pass (and checks the
	// witness hash) even when a trusted summary is present — the
	// -verify-plan escape hatch.
	VerifyFull bool

	// Observer, when non-nil, brackets the materialization and validation
	// work as the "decode" and "validate" planner phases.
	Observer obs.PlanObserver

	// Workers bounds the goroutines a load fans section decoding across;
	// <= 1 decodes sequentially. The decoded schedule is byte-identical
	// at any worker count.
	Workers int
}

// BinaryLoadInfo reports how a binary schedule load was validated.
type BinaryLoadInfo struct {
	Version int

	// Validation is "summary" when the load was accepted on the embedded
	// validation summary + content digests, "full" when VerifyFull
	// re-ran the complete ValidateStrict pass on top of them.
	Validation string

	Transfers int
	Summary   *ValidationSummary
}

// binWriter accumulates uvarints into one growing buffer; encoding a
// schedule is a single allocation-amortized append stream. With out set
// it instead streams: appends spill through the buffer — now a bounded
// window — into the writer whenever it fills, so encoding never
// materializes the body. Routing out through an io.MultiWriter over the
// file and a hasher is the store's hash-while-write path.
type binWriter struct {
	out io.Writer
	buf []byte
	tmp [binary.MaxVarintLen64]byte
	err error
}

// flush drains the window into out; a no-op in buffered mode.
func (w *binWriter) flush() {
	if w.out == nil {
		return
	}
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.out.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// room makes space for an n-byte append in streaming mode.
func (w *binWriter) room(n int) {
	if w.out != nil && len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

func (w *binWriter) uint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.room(n)
	w.buf = append(w.buf, w.tmp[:n]...)
}

func (w *binWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.room(len(s))
	w.buf = append(w.buf, s...)
}

func (w *binWriter) bytes(p []byte) {
	w.room(len(p))
	w.buf = append(w.buf, p...)
}

// witnessHash folds a topological order into its sha256 witness.
func witnessHash(order []TransferID) [hashSize]byte {
	h := sha256.New()
	var buf [4096]byte
	i := 0
	for _, id := range order {
		binary.LittleEndian.PutUint32(buf[i:], uint32(id))
		if i += 4; i == len(buf) {
			h.Write(buf[:])
			i = 0
		}
	}
	h.Write(buf[:i])
	var out [hashSize]byte
	h.Sum(out[:0])
	return out
}

// linkBitmap counts distinct directed links across pinned paths.
type linkBitmap struct {
	words []uint64
	count int64
}

func newLinkBitmap(links int) *linkBitmap {
	return &linkBitmap{words: make([]uint64, (links+63)/64)}
}

func (b *linkBitmap) add(id topology.LinkID) {
	w, bit := id>>6, uint64(1)<<(id&63)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.count++
	}
}

// summarize computes the validation summary of a schedule whose strict
// validation just produced order.
func summarize(s *Schedule, order []TransferID) ValidationSummary {
	sum := ValidationSummary{Transfers: int64(len(s.Transfers)), Witness: witnessHash(order)}
	bm := newLinkBitmap(len(s.Topo.Links()))
	for i := range s.Transfers {
		t := &s.Transfers[i]
		sum.DepEdges += int64(len(t.Deps))
		path := s.PathOf(t)
		sum.PathHops += int64(len(path))
		for _, id := range path {
			bm.add(id)
		}
	}
	sum.LinksUsed = bm.count
	if len(s.Transfers) > 0 && s.Elems > 0 {
		sum.CoveredElems = int64(s.Elems)
	}
	return sum
}

// ExportBinary writes the schedule in the current binary IR (the v3
// sectioned layout of sections.go). Like Export, every transfer's link
// path is pinned, so the loaded schedule reproduces the exact link-level
// behavior; unlike Export, the topology is recorded only by fingerprint.
// The schedule is strictly validated here, at store time, and the file
// carries the ValidationSummary + content digests that let a later load
// trust the result without repeating the pass.
//
// When w can seek (a file), the stream is written in one pass with the
// root hash patched at the end; non-seekable writers assemble the stream
// in memory first. The emitted bytes are identical either way.
func ExportBinary(w io.Writer, s *Schedule) error {
	order, err := s.validatedOrder(true)
	if err != nil {
		return fmt.Errorf("collective: refusing to export invalid schedule: %w", err)
	}
	return exportBinaryV3(w, s, summarize(s, order))
}

// maxStringLen bounds algorithm/fingerprint strings; both are short.
const maxStringLen = 1 << 16

// ImportBinaryInto reads a binary schedule IR onto an existing topology
// with default options: the file loads on its trusted validation summary
// + content digests, decoded sequentially.
func ImportBinaryInto(r io.Reader, topo *topology.Topology) (*Schedule, error) {
	s, _, err := ImportBinaryIntoOpts(r, topo, BinaryImportOptions{})
	return s, err
}

// ImportBinaryIntoOpts reads a binary schedule IR onto an existing
// topology, reporting how the load was validated. Sections decode into
// arrays preallocated from the validation summary, read by position when
// r is an io.ReaderAt + io.Seeker and from one in-memory copy otherwise.
// A file in any version other than BinaryIRVersion is rejected.
func ImportBinaryIntoOpts(r io.Reader, topo *topology.Topology, opts BinaryImportOptions) (*Schedule, BinaryLoadInfo, error) {
	info := BinaryLoadInfo{}
	var magic [len(binaryMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != binaryMagic {
		return nil, info, fmt.Errorf("collective: not a binary schedule file")
	}
	// The version varint is read byte-by-byte from the raw reader so a
	// seekable reader's cursor lands exactly on the root hash, where the
	// sectioned loader takes its base offset.
	version, err := readRawUvarint(r)
	if err != nil {
		return nil, info, fmt.Errorf("collective: bad binary schedule: %w", err)
	}
	info.Version = int(version)
	if version != BinaryIRVersion {
		return nil, info, fmt.Errorf("collective: unsupported binary schedule version %d (want %d)", version, BinaryIRVersion)
	}
	return importBinaryV3(r, topo, opts, info)
}

// readRawUvarint reads a uvarint one byte at a time from an unbuffered
// reader.
func readRawUvarint(r io.Reader) (uint64, error) {
	var v uint64
	var b [1]byte
	for shift := 0; shift < 64; shift += 7 {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, fmt.Errorf("truncated varint: %w", err)
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("varint overflow")
}

// checkHeader verifies the fingerprint/elems header fields of the meta
// block.
func checkHeader(s *Schedule, topo *topology.Topology, fingerprint string) error {
	if got := TopologyFingerprint(topo); got != fingerprint {
		return fmt.Errorf("collective: topology %s does not match binary schedule (fingerprint %s, file has %s)",
			topo.Name(), got, fingerprint)
	}
	if s.Elems < 1 {
		return fmt.Errorf("collective: schedule has %d elements", s.Elems)
	}
	return nil
}

// verifyFull is the -verify-plan path: the complete ValidateStrict
// pass plus a recomputation of the stored topological-order witness.
func verifyFull(s *Schedule, sum *ValidationSummary, o obs.PlanObserver) error {
	if o != nil {
		o.PhaseStart(obs.PhaseValidate)
		defer func() {
			o.PhaseEnd(obs.PhaseValidate, obs.PlanCounters{
				Transfers:       int64(len(s.Transfers)),
				FullValidations: 1,
			})
		}()
	}
	order, err := s.validatedOrder(true)
	if err != nil {
		return fmt.Errorf("collective: binary schedule failed validation: %w", err)
	}
	if w := witnessHash(order); w != sum.Witness {
		return fmt.Errorf("collective: binary schedule witness hash does not match its topological order")
	}
	return nil
}
