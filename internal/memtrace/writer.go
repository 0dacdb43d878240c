package memtrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"chameleon/internal/trace"
)

// DefaultBlockRefs is how many references a Writer packs into one
// CRC-framed block before flushing it. Larger blocks amortise framing
// overhead; smaller blocks localise corruption.
const DefaultBlockRefs = 4096

// Writer streams references into the binary trace format. It
// implements trace.Sink, so attaching one to sim.Options.TraceSink
// records a run as it executes: the simulator calls Emit on one
// goroutine in committed step order, so a replay re-captures the same
// bytes (TestCaptureReplayDeterminism). After the initial blocks reach
// their steady-state capacity, Emit allocates nothing.
//
// Usage: NewWriter, optionally set Meta/BlockRefs, Begin (the sim calls
// this for you when used as a TraceSink), Emit references, Close.
// Errors are sticky: the first one is remembered and returned from
// Close (and Err), so the hot Emit path needs no error return.
type Writer struct {
	// Meta is free-form provenance recorded in the header (set before
	// Begin; e.g. "policy=chameleon seed=42").
	Meta string
	// BlockRefs overrides references per block (0 = DefaultBlockRefs;
	// capped to the format limit).
	BlockRefs int

	w      *bufio.Writer
	began  bool
	closed bool
	err    error

	cores  []coreEnc
	counts []uint64
	hdr    []byte       // scratch for block headers
	frame  [crcLen]byte // scratch for CRC trailers (a local would escape)
}

// coreEnc is one core's in-progress block.
type coreEnc struct {
	buf  []byte
	n    int
	last uint64 // previous address in this block (delta base)
}

// NewWriter wraps w. The caller owns w's lifetime; Close flushes the
// trace but does not close w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Begin writes the header: the run's workload name and one CoreInfo
// per per-core stream (profile name + footprint). It must be called
// exactly once before Emit. Implements trace.Sink.
func (w *Writer) Begin(runName string, cores []trace.Profile) error {
	if w.err != nil {
		return w.err
	}
	if w.began {
		return w.fail(fmt.Errorf("memtrace: Begin called twice"))
	}
	if len(cores) == 0 {
		return w.fail(fmt.Errorf("memtrace: trace needs at least one core stream"))
	}
	if len(cores) > maxCores {
		return w.fail(fmt.Errorf("memtrace: %d cores exceed the format limit %d", len(cores), maxCores))
	}
	if len(runName) > maxNameLen || len(w.Meta) > maxMetaLen {
		return w.fail(fmt.Errorf("memtrace: run name or metadata too long"))
	}
	if w.BlockRefs <= 0 {
		w.BlockRefs = DefaultBlockRefs
	}
	if w.BlockRefs > maxBlockRefs {
		w.BlockRefs = maxBlockRefs
	}
	hdr := make([]byte, 0, 64+len(runName)+len(w.Meta))
	hdr = append(hdr, Magic...)
	hdr = binary.AppendUvarint(hdr, Version)
	hdr = appendString(hdr, runName)
	hdr = appendString(hdr, w.Meta)
	hdr = binary.AppendUvarint(hdr, uint64(len(cores)))
	for _, p := range cores {
		if len(p.Name) > maxNameLen {
			return w.fail(fmt.Errorf("memtrace: workload name %q too long", p.Name))
		}
		hdr = appendString(hdr, p.Name)
		hdr = binary.AppendUvarint(hdr, p.FootprintBytes)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	if _, err := w.w.Write(hdr); err != nil {
		return w.fail(err)
	}
	w.cores = make([]coreEnc, len(cores))
	w.counts = make([]uint64, len(cores))
	for i := range w.cores {
		// Pre-size for a full block: 2 varints of up to 10 bytes each
		// per ref is the worst case; typical refs take 3-6 bytes.
		w.cores[i].buf = make([]byte, 0, 8*w.BlockRefs)
	}
	w.began = true
	return nil
}

// Emit appends one reference to core's stream. Implements trace.Sink.
// Errors (unknown core, Begin not called, underlying write failures)
// latch into Err and surface from Close.
func (w *Writer) Emit(core int, r trace.Ref) {
	if w.err != nil {
		return
	}
	if !w.began {
		w.fail(fmt.Errorf("memtrace: Emit before Begin"))
		return
	}
	if core < 0 || core >= len(w.cores) {
		w.fail(fmt.Errorf("memtrace: Emit for core %d of a %d-core trace", core, len(w.cores)))
		return
	}
	c := &w.cores[core]
	gw := r.Gap << 1
	if r.Write {
		gw |= 1
	}
	c.buf = binary.AppendUvarint(c.buf, gw)
	c.buf = binary.AppendUvarint(c.buf, zigzag(int64(r.VAddr-c.last)))
	c.last = r.VAddr
	c.n++
	w.counts[core]++
	if c.n >= w.BlockRefs {
		w.flushCore(core)
	}
}

// flushCore frames core's pending block and hands it to the buffered
// writer, resetting the block state (the next block's delta base is
// address 0 again, keeping blocks self-contained).
func (w *Writer) flushCore(core int) {
	c := &w.cores[core]
	if c.n == 0 {
		return
	}
	w.writeBlock(uint64(core), uint64(c.n), c.buf)
	c.buf = c.buf[:0]
	c.n = 0
	c.last = 0
}

// writeBlock frames one block (header varints, payload, CRC over both).
func (w *Writer) writeBlock(core, count uint64, payload []byte) {
	if w.err != nil {
		return
	}
	w.hdr = w.hdr[:0]
	w.hdr = binary.AppendUvarint(w.hdr, core)
	w.hdr = binary.AppendUvarint(w.hdr, count)
	w.hdr = binary.AppendUvarint(w.hdr, uint64(len(payload)))
	crc := crc32.Checksum(w.hdr, castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if _, err := w.w.Write(w.hdr); err != nil {
		w.fail(err)
		return
	}
	if _, err := w.w.Write(payload); err != nil {
		w.fail(err)
		return
	}
	binary.LittleEndian.PutUint32(w.frame[:], crc)
	if _, err := w.w.Write(w.frame[:]); err != nil {
		w.fail(err)
	}
}

// Close flushes every pending block (in core order), writes the footer
// with the per-core totals, flushes the buffered writer, and returns
// the first error the Writer encountered. It does not close the
// underlying io.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil && !w.began {
		w.fail(fmt.Errorf("memtrace: Close before Begin"))
	}
	if w.err == nil {
		for core := range w.cores {
			w.flushCore(core)
		}
		footer := make([]byte, 0, 10*len(w.counts))
		for _, n := range w.counts {
			footer = binary.AppendUvarint(footer, n)
		}
		w.writeBlock(uint64(len(w.cores)), uint64(len(w.cores)), footer)
	}
	if w.err == nil {
		if err := w.w.Flush(); err != nil {
			w.fail(err)
		}
	}
	return w.err
}

// Err returns the Writer's sticky error, if any.
func (w *Writer) Err() error { return w.err }

// Counts returns the number of references emitted so far per core.
func (w *Writer) Counts() []uint64 {
	out := make([]uint64, len(w.counts))
	copy(out, w.counts)
	return out
}

// fail latches the Writer's first error.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
