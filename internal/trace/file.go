package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/isa"
)

// Binary trace file formats. Traces let the command-line tools decouple
// execution from analysis, the way SHADE trace files decoupled tracing from
// the paper's analyzers.
//
// VPTRC01 (legacy, read only): an 8-byte magic followed by fixed 40-byte
// records. Reader accepts it so existing trace files stay readable.
//
// VPTRC03: the 8-byte magic followed by self-delimiting frames,
// each one columnar-compressed chunk of up to fileChunkSize records:
//
//	u32  payload length (little-endian)
//	u32  CRC-32C (Castagnoli) of the payload
//	payload: the codec.go chunk encoding, WITHOUT the seq column — the
//	         on-disk Seq field is redundant (records are written in stream
//	         order) and is derived from record position on read.
//
// VPTRC02 (read only) has the same frames around the older chunk layout:
// a dense mem column and no zero-width columns (see codec.go).
//
// A clean EOF falls exactly on a frame boundary; anything else is reported
// as truncation. Readers accept every version (sniffed from the magic);
// writers produce VPTRC03.

var (
	fileMagicV1 = [8]byte{'V', 'P', 'T', 'R', 'C', '0', '1', '\n'}
	fileMagicV2 = [8]byte{'V', 'P', 'T', 'R', 'C', '0', '2', '\n'}
	fileMagicV3 = [8]byte{'V', 'P', 'T', 'R', 'C', '0', '3', '\n'}
)

// Format identifies the on-disk trace encoding a Reader found.
type Format int

const (
	// FormatV2 is the framed columnar encoding with a dense mem column
	// (read only).
	FormatV2 Format = iota
	// FormatV1 is the legacy fixed-40-byte-record encoding (read only).
	FormatV1
	// FormatV3 is the framed columnar encoding Writer produces.
	FormatV3
)

// String names the format as it appears in the file magic.
func (f Format) String() string {
	switch f {
	case FormatV1:
		return "VPTRC01"
	case FormatV3:
		return "VPTRC03"
	}
	return "VPTRC02"
}

// ErrTruncated reports a trace file that ends mid-record or mid-frame.
var ErrTruncated = errors.New("truncated trace file")

// ErrCorrupt reports structurally invalid trace-file contents (bad frame
// bounds, CRC mismatch, malformed chunk payload).
var ErrCorrupt = errors.New("corrupt trace file")

// v1RecordSize is the on-disk size of one VPTRC01 record.
//
//	addr int64, seq int64, value int64, memAddr int64,
//	op uint8, dir uint8, flags uint8, dest uint8,
//	phase uint16, reads [2]uint8 (bit7 valid, bit6 fp, bits0-5 reg)
const v1RecordSize = 8 + 8 + 8 + 8 + 4 + 2 + 2

// fileChunkSize is the records-per-frame granularity of the framed formats:
// small enough that a reader buffers at most ~230 KiB of decoded records,
// large enough that the delta columns compress well.
const fileChunkSize = 4096

// maxFramePayload bounds a frame a reader will accept, rejecting absurd
// lengths from corrupt headers before allocating.
const maxFramePayload = 1 << 26

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer streams records to an io.Writer as VPTRC03. Write errors are
// sticky: the first failure is captured with the record index and byte
// offset where the stream stopped being durable, every record not durably
// written is counted as dropped, and Flush/Close surface the annotated
// error instead of silently losing the tail of the trace. Frames are
// written whole, so error attribution is frame-granular: the reported
// record is the first record of the failing frame.
//
// A Writer stages the frame being filled as columns, not records: it
// implements ColumnAppender (the VM's dispatch loop writes destructured
// fields straight into the frame stage) and BatchConsumer (replaying a sealed
// Recorder to a file copies decoded columns frame by frame), and the
// per-record Consume path destructures into the same stage — all three
// producers reach the seal-time column encoder and produce byte-identical
// files.
type Writer struct {
	out     io.Writer
	cols    *RecordColumns // the frame being filled
	enc     chunkEncoder
	buf     []byte // encoded bytes awaiting write
	bufRec  int64  // index of the first record encoded in buf
	n       int64  // records accepted
	off     int64  // bytes durably accepted by out
	dropped int64  // records not durably written
	err     error
}

// NewWriter writes the VPTRC03 header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(fileMagicV3[:]); err != nil {
		return nil, fmt.Errorf("trace: write magic: %w", err)
	}
	return &Writer{out: w, cols: newRecordColumns(fileChunkSize), off: int64(len(fileMagicV3))}, nil
}

// flushBuf writes the pending batch. On failure it records the first error
// with the byte offset where durability ended and the index of the first
// record affected, and counts every accepted-but-unwritten record as
// dropped.
func (tw *Writer) flushBuf() {
	if len(tw.buf) == 0 || tw.err != nil {
		return
	}
	nw, err := tw.out.Write(tw.buf)
	if nw > 0 {
		tw.off += int64(nw)
	}
	if err != nil {
		tw.err = fmt.Errorf("trace: write record %d (byte offset %d): %w", tw.bufRec, tw.off, err)
		tw.dropped = tw.n - tw.bufRec
	}
	tw.buf = tw.buf[:0]
	tw.bufRec = tw.n
}

// Consume implements Consumer by appending the record to the file.
func (tw *Writer) Consume(r *Record) {
	if tw.err != nil {
		tw.dropped++
		return
	}
	tw.cols.appendRecord(r)
	if tw.cols.N == fileChunkSize {
		tw.flushFrame()
	}
}

// ConsumeBatch implements BatchConsumer: decoded replay chunks are copied
// into the frame stage column-wise (the flags bytes are rebuilt so a
// directive column patched by ReplayDirs lands in the file, exactly as the
// per-record path writes the patched record).
func (tw *Writer) ConsumeBatch(b *Batch) {
	if tw.err != nil {
		tw.dropped += int64(b.N)
		return
	}
	for k := 0; k < b.N; {
		st := tw.cols
		m := b.N - k
		if room := st.Cap() - st.N; m > room {
			m = room
		}
		i := st.N
		copy(st.Op[i:], b.Op[k:k+m])
		copy(st.Dest[i:], b.Dest[k:k+m])
		copy(st.Reads[2*i:], b.Reads[2*k:2*(k+m)])
		copy(st.Addr[i:], b.Addr[k:k+m])
		copy(st.Value[i:], b.Value[k:k+m])
		copy(st.Mem[i:], b.MemAddr[k:k+m])
		copy(st.Phase[i:], b.Phase[k:k+m])
		for j := 0; j < m; j++ {
			st.Flags[i+j] = b.Flags[k+j]&0x0f | byte(b.Dir[k+j])<<4
		}
		st.N = i + m
		k += m
		if st.N == st.Cap() {
			tw.flushFrame()
		}
	}
}

// ColumnStage implements ColumnAppender: the VM's dispatch loop may write
// destructured record fields straight into the frame stage.
func (tw *Writer) ColumnStage() *RecordColumns { return tw.cols }

// FlushColumns seals the filled frame stage.
func (tw *Writer) FlushColumns() *RecordColumns {
	tw.flushFrame()
	return tw.cols
}

// FlushTail implements ColumnAppender; the partial frame stays staged until
// Flush or Close, like records delivered through Consume.
func (tw *Writer) FlushTail() {}

// flushFrame encodes and writes the staged columns as one VPTRC03 frame.
// Records are counted as accepted here, at frame granularity, because column
// producers bypass Consume and write the stage directly.
func (tw *Writer) flushFrame() {
	st := tw.cols
	if st.N == 0 || tw.err != nil {
		return
	}
	tw.n += int64(st.N)
	tw.buf = append(tw.buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	tw.buf = tw.enc.encodeCols(tw.buf, st, false)
	payload := tw.buf[8:]
	binary.LittleEndian.PutUint32(tw.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(tw.buf[4:], crc32.Checksum(payload, castagnoli))
	st.N = 0
	tw.flushBuf()
}

// Flush writes any partially filled frame. It returns the first
// write error, annotated with the failing record index and byte offset.
func (tw *Writer) Flush() error {
	tw.flushFrame()
	tw.flushBuf()
	return tw.err
}

// Close flushes buffered records. It returns the first error encountered
// while writing, if any, annotated with where it struck and how many
// records were dropped after it.
func (tw *Writer) Close() error {
	if err := tw.Flush(); err != nil {
		if tw.dropped > 0 {
			return fmt.Errorf("%w (%d records dropped after the first error)", err, tw.dropped)
		}
		return err
	}
	return nil
}

// Count returns the number of records accepted so far (records dropped
// after a write error are not counted).
func (tw *Writer) Count() int64 { return tw.n }

// Dropped returns how many records were discarded after the first write
// error.
func (tw *Writer) Dropped() int64 { return tw.dropped }

// FileWriter is a Writer bound to a file, published atomically: records
// stream into a temporary file in the destination directory, and Close
// fsyncs it, renames it over the final path, and fsyncs the directory. A
// crash at any point leaves either the complete previous file or the
// complete new one — never a torn trace that a crash-recovery journal (or a
// later analysis pass) could reference by name and then fail to parse.
type FileWriter struct {
	*Writer
	f      *os.File
	path   string
	closed bool
}

// CreateFile opens an atomic trace writer targeting path. The final file
// appears only on a successful Close; until then (and after any failure)
// the destination is untouched.
func CreateFile(path string) (*FileWriter, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	// CreateTemp opens 0600; widen to the usual 0644 so the published
	// trace is readable by other users, as an os.Create'd one would be.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("trace: create %s: %w", path, err)
	}
	tw, err := NewWriter(f)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &FileWriter{Writer: tw, f: f, path: path}, nil
}

// Close flushes buffered records, makes the temp file durable, and renames
// it into place. Any failure removes the temp file and reports the error;
// the destination path is never left referencing partial data. Idempotent.
func (fw *FileWriter) Close() error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	fail := func(err error) error {
		fw.f.Close()
		os.Remove(fw.f.Name())
		return err
	}
	if err := fw.Writer.Close(); err != nil {
		return fail(err)
	}
	if err := fw.f.Sync(); err != nil {
		return fail(fmt.Errorf("trace: sync %s: %w", fw.f.Name(), err))
	}
	if err := fw.f.Close(); err != nil {
		os.Remove(fw.f.Name())
		return fmt.Errorf("trace: close %s: %w", fw.f.Name(), err)
	}
	if err := os.Rename(fw.f.Name(), fw.path); err != nil {
		os.Remove(fw.f.Name())
		return fmt.Errorf("trace: publish %s: %w", fw.path, err)
	}
	return syncDir(filepath.Dir(fw.path))
}

// Abort discards the temp file without touching the destination.
func (fw *FileWriter) Abort() {
	if fw.closed {
		return
	}
	fw.closed = true
	fw.f.Close()
	os.Remove(fw.f.Name())
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("trace: sync dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: sync dir %s: %w", dir, err)
	}
	return nil
}

// Reader streams records from an io.Reader, accepting every trace format.
type Reader struct {
	r      *bufio.Reader
	format Format

	// Framed-format state: the decoded frame being drained.
	batch   Batch
	bi      int
	payload []byte
	seq     int64 // records handed out so far (the derived Seq basis)
}

// NewReader validates the trace header and returns a streaming reader for
// whichever format the magic declares.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	switch got {
	case fileMagicV1:
		return &Reader{r: br, format: FormatV1}, nil
	case fileMagicV2:
		return &Reader{r: br, format: FormatV2}, nil
	case fileMagicV3:
		return &Reader{r: br, format: FormatV3}, nil
	}
	return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", got)
}

// Format reports the file format the header declared.
func (tr *Reader) Format() Format { return tr.format }

// Next reads the next record. It returns io.EOF at a clean end of trace and
// an error wrapping ErrTruncated or ErrCorrupt (or the v1 diagnostics) for
// anything malformed.
func (tr *Reader) Next(r *Record) error {
	if tr.format == FormatV1 {
		return tr.nextV1(r)
	}
	for tr.bi >= tr.batch.N {
		if err := tr.readFrame(); err != nil {
			return err
		}
	}
	tr.batch.Record(tr.bi, r)
	tr.bi++
	return nil
}

// readFrame reads and decodes the next frame into tr.batch.
func (tr *Reader) readFrame() error {
	var hdr [8]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF // clean end: EOF exactly on a frame boundary
		}
		return fmt.Errorf("trace: frame header: %w: %w", ErrTruncated, err)
	}
	size := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if size == 0 || size > maxFramePayload {
		return fmt.Errorf("trace: %w: frame payload length %d", ErrCorrupt, size)
	}
	if cap(tr.payload) < int(size) {
		tr.payload = make([]byte, size)
	}
	tr.payload = tr.payload[:size]
	if _, err := io.ReadFull(tr.r, tr.payload); err != nil {
		if errors.Is(err, io.EOF) {
			// A bare EOF here still means a truncated frame — the header
			// promised a payload; don't let io.EOF escape as a clean end.
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: frame payload: %w: %w", ErrTruncated, err)
	}
	if got := crc32.Checksum(tr.payload, castagnoli); got != crc {
		return fmt.Errorf("trace: %w: frame CRC mismatch (stored %#x, computed %#x)", ErrCorrupt, crc, got)
	}
	var d chunkDecoder
	err := d.init(tr.payload, tr.seq, tr.format, false, true)
	if err == nil {
		err = d.decodeBatch(&tr.batch)
	}
	if err != nil {
		tr.batch.N = 0 // nothing of a corrupt frame is handed out
		return fmt.Errorf("trace: %w: %w", ErrCorrupt, err)
	}
	tr.bi = 0
	tr.seq += int64(d.n)
	return nil
}

func (tr *Reader) nextV1(r *Record) error {
	var buf [v1RecordSize]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("trace: truncated record: %w", err)
	}
	r.Addr = int64(binary.LittleEndian.Uint64(buf[0:]))
	r.Seq = int64(binary.LittleEndian.Uint64(buf[8:]))
	r.Value = int64(binary.LittleEndian.Uint64(buf[16:]))
	r.MemAddr = int64(binary.LittleEndian.Uint64(buf[24:]))
	r.Op = isa.Opcode(buf[32])
	r.Dir = isa.Directive(buf[33])
	if !r.Op.Valid() {
		return fmt.Errorf("trace: invalid opcode %d in record %d", buf[32], r.Seq)
	}
	if !r.Dir.Valid() {
		return fmt.Errorf("trace: invalid directive %d in record %d", buf[33], r.Seq)
	}
	flags := buf[34]
	r.HasDest = flags&1 != 0
	r.DestFP = flags&2 != 0
	r.Taken = flags&4 != 0
	r.HasMem = flags&8 != 0
	r.Dest = isa.Reg(buf[35])
	r.Phase = int(binary.LittleEndian.Uint16(buf[36:]))
	for i := range r.Reads {
		b := buf[38+i]
		r.Reads[i] = RegRead{
			Valid: b&0x80 != 0,
			FP:    b&0x40 != 0,
			Reg:   isa.Reg(b & 0x3f),
		}
	}
	return nil
}

// ReadAll drains the reader into a slice; intended for tests and small
// traces.
func (tr *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		var r Record
		err := tr.Next(&r)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}
