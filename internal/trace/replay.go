package trace

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/isa"
)

// This file implements the record-once/replay-many trace cache. A Recorder
// captures a dynamic instruction stream into columnar compressed chunks;
// Replay feeds it back to any number of consumers, bit-identically to the
// live run, without re-interpreting the program. The experiment drivers use
// it to run the evaluation input once per benchmark and replay the recorded
// stream for every threshold and prediction-engine configuration.
//
// Storage is structure-of-arrays: records are staged in columns one chunk
// at a time (colstage.go) and encoded into the packed columnar form of
// codec.go when the chunk fills (~10 bytes/record against the 56-byte
// Record struct). Every replay is one walk over decoded Batches — the
// flushed chunks, then the unsealed staging tail viewed as one more batch —
// fanned out by evalPass (multieval.go): batch kernels get the columns,
// per-record consumers the batch materialized into Records, so consumers
// observe exactly the live-run contract and never touch the encoded form.
// When a resident-bytes budget is set, encoded chunks past the budget spill
// to an anonymous temp file and are read back positionally during replay
// (spill.go), so traces larger than RAM replay at near-resident speed.

// recorderChunkSize is the number of records per storage chunk: 16384
// records stage into ~0.9 MiB of Record structs and encode into roughly
// 100–300 KiB, a comfortable unit for both cache-resident decoding and
// sequential spill I/O.
const recorderChunkSize = 1 << 14

// recordMemBytes is the in-memory size of one decoded Record, the
// array-of-structs footprint the columnar encoding is measured against.
const recordMemBytes = int64(unsafe.Sizeof(Record{}))

// rchunk is one encoded chunk: resident (data set) or spilled (data nil,
// off/size locating the encoding in the spill file).
type rchunk struct {
	data []byte
	off  int64
	size int32
	n    int32
}

// Recorder is a Consumer that captures the stream for later replay.
// Recording, chunk encoding and spilling run on the producing goroutine
// (until Seal the storage accessors and replays belong to it too), but a
// finished Recorder is immutable and Replay/ReplayDirs/MultiEval may be
// called concurrently from multiple goroutines. Owners that share a
// Recorder across goroutines (the experiments context) must Seal it first:
// sealing marks recording complete, turns any further Consume into a panic,
// and documents the immutability the concurrent replays rely on. Replay hands
// records out by pointer under a strict read-only, duration-of-the-call
// contract (the same contract as a live run); the -race stress tests in
// internal/experiments drive every replay path from many goroutines to
// catch any consumer that violates it.
type Recorder struct {
	cols     *RecordColumns // staging columns of the chunk being filled
	enc      *chunkEncoder
	chunks   []rchunk
	nFlushed int64 // records in flushed (encoded) chunks

	memBudget     int64 // resident encoded-bytes budget; <=0 = fully resident
	residentBytes int64 // encoded bytes currently held in memory
	encodedBytes  int64 // encoded bytes total (resident + spilled)
	maxChunkBytes int64 // largest encoded chunk, the unit of spill readback
	spilledChunks int64
	chunksEncoded int64
	spill         *spillFile
	encodeNanos   int64 // cumulative chunk-encode wall time

	sealed bool
	passes atomic.Int64 // full replay passes over the buffer, for amortization accounting
}

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetMemBudget bounds the encoded trace bytes the Recorder keeps resident in
// memory; chunks encoded past the budget spill to a temporary file (deleted
// on creation, so it can never outlive the process) and stream back during
// replay. A budget ≤ 0 keeps everything resident. The budget governs chunks
// flushed after the call, so set it before recording; the ~0.9 MiB staging
// buffer for the chunk being filled is not counted against it.
func (rc *Recorder) SetMemBudget(bytes int64) { rc.memBudget = bytes }

// ChunksEncoded reports how many chunks have been encoded so far (resident
// or spilled), the unit of the record-side observability metrics.
func (rc *Recorder) ChunksEncoded() int64 { return rc.chunksEncoded }

// EncodeStalls always returns 0: chunks are encoded inline, so a flush
// never waits for an encoder.
func (rc *Recorder) EncodeStalls() int64 { return 0 }

// EncodeTime reports the cumulative wall time spent encoding chunks.
func (rc *Recorder) EncodeTime() time.Duration { return time.Duration(rc.encodeNanos) }

// Passes reports how many full replay passes have walked the recorded
// buffer (Replay, ReplayDirs and MultiEval each count one, however many
// consumers they fed). The single-pass sweep tests and the vpserve
// amortization metrics read it.
func (rc *Recorder) Passes() int64 { return rc.passes.Load() }

// stagedLen returns the number of records in the staging tail.
func (rc *Recorder) stagedLen() int {
	if rc.cols != nil {
		return rc.cols.N
	}
	return 0
}

// Len returns the number of recorded records.
func (rc *Recorder) Len() int64 { return rc.nFlushed + int64(rc.stagedLen()) }

// Bytes returns the approximate resident in-memory size of the recorded
// trace: the encoded chunks still held in memory plus the staging buffer.
// Spilled chunks do not count.
func (rc *Recorder) Bytes() int64 {
	return rc.residentBytes + int64(rc.stagedLen())*recordMemBytes
}

// EncodedBytes returns the total encoded size of all flushed chunks,
// resident and spilled. Records still in the staging buffer (at most one
// partial chunk; none once sealed) are not yet encoded.
func (rc *Recorder) EncodedBytes() int64 { return rc.encodedBytes }

// BytesResident returns the encoded bytes currently held in memory.
func (rc *Recorder) BytesResident() int64 { return rc.residentBytes }

// ReplayResidentBytes returns the peak in-memory working set of one replay
// pass over the flushed chunks: the resident encoded bytes plus, when any
// chunk has spilled, the one chunk-sized read buffer the walk holds (see
// walkPipe). This is the honest per-pass memory figure for a spilled trace,
// where BytesResident alone would report a misleading zero.
func (rc *Recorder) ReplayResidentBytes() int64 {
	b := rc.residentBytes
	if rc.spilledChunks > 0 {
		b += rc.maxChunkBytes
	}
	return b
}

// SpilledChunks returns how many chunks were written to the spill file.
func (rc *Recorder) SpilledChunks() int64 { return rc.spilledChunks }

// Seal marks recording complete: the staging buffer is encoded and released,
// further Consume panics, and the Recorder may be replayed concurrently from
// any number of goroutines. Sealing is idempotent. The caller must establish
// a happens-before edge between Seal and the first concurrent Replay
// (publishing the Recorder through a mutex-guarded cache, a channel, or
// sync.Once all qualify).
func (rc *Recorder) Seal() {
	if rc.sealed {
		return
	}
	if rc.cols != nil {
		if rc.cols.N > 0 {
			rc.nFlushed += int64(rc.cols.N)
			rc.encodeStage(rc.cols)
		}
		putCols(rc.cols)
		rc.cols = nil
	}
	if rc.enc != nil {
		encoderPool.Put(rc.enc)
		rc.enc = nil
	}
	rc.sealed = true
}

// Sealed reports whether the Recorder has been sealed.
func (rc *Recorder) Sealed() bool { return rc.sealed }

// Close releases the spill file, if any. Replays must not be in flight.
// Close is optional — the spill file is unlinked at creation and the
// process's file-descriptor finalizer reclaims it when the Recorder is
// garbage-collected — but deterministic for tests and long-lived owners.
func (rc *Recorder) Close() error {
	if rc.spill == nil {
		return nil
	}
	err := rc.spill.close()
	rc.spill = nil
	return err
}

// Consume implements Consumer by appending a copy of r: the record is
// destructured straight into the staging columns, so per-record producers
// (a ColumnSink serving a fan-out, a replay into this recorder) and the VM
// appending directly share one representation. MemAddr is kept only where
// HasMem is set; every other record replays with MemAddr 0.
func (rc *Recorder) Consume(r *Record) {
	if rc.sealed {
		panic("trace: Consume on a sealed Recorder (recording after publication)")
	}
	st := rc.cols
	if st == nil {
		st = rc.newStage()
	}
	st.appendRecord(r)
	if st.N == st.Cap() {
		rc.FlushColumns()
	}
}

// newStage installs a fresh column stage positioned at the current stream
// offset.
func (rc *Recorder) newStage() *RecordColumns {
	st := getCols()
	st.FirstSeq = rc.nFlushed
	rc.cols = st
	return st
}

// ColumnStage implements ColumnAppender: it returns the live staging
// columns for fused recording, or nil once the recorder is sealed (sending
// the producer down the per-record path, whose Consume panics). The
// producer appends by writing element N of every column and incrementing
// N, calling FlushColumns when N reaches Cap.
func (rc *Recorder) ColumnStage() *RecordColumns {
	if rc.sealed {
		return nil
	}
	if rc.cols == nil {
		return rc.newStage()
	}
	return rc.cols
}

// FlushColumns encodes the filled column stage into one chunk, retaining or
// spilling it, and returns the emptied stage to continue appending into.
func (rc *Recorder) FlushColumns() *RecordColumns {
	st := rc.cols
	if st == nil || st.N == 0 {
		return rc.ColumnStage()
	}
	rc.nFlushed += int64(st.N)
	rc.encodeStage(st)
	st.N = 0
	st.FirstSeq = rc.nFlushed
	return st
}

// FlushTail implements ColumnAppender. The Recorder buffers: the partial
// stage stays staged (replayable as the tail, encoded at Seal), so there is
// nothing to do.
func (rc *Recorder) FlushTail() {}

// encoder returns the recorder-owned chunk encoder, pooled across
// Recorders.
func (rc *Recorder) encoder() *chunkEncoder {
	if rc.enc == nil {
		rc.enc = encoderPool.Get().(*chunkEncoder)
	}
	return rc.enc
}

// encodeStage encodes one full column stage and retains or spills it.
func (rc *Recorder) encodeStage(st *RecordColumns) {
	start := time.Now()
	enc := rc.encoder()
	enc.buf = enc.encodeCols(enc.buf[:0], st, true)
	rc.appendEncoded(enc.buf, st.N)
	rc.encodeNanos += int64(time.Since(start))
}

// encoderPool recycles chunkEncoders — their per-column scratch and the
// encode output buffer — across Recorders. Encoding into pooled scratch and
// copying out exactly the retained bytes (nothing at all for spilled
// chunks) is what keeps the recording path's steady-state allocation to one
// right-sized chunk copy, measured by BenchmarkVMStepsRecording.
var encoderPool = sync.Pool{New: func() any { return new(chunkEncoder) }}

// appendEncoded retains one encoded chunk resident — or spills it when past
// the memory budget — and appends it to the chunk index, in stream order.
func (rc *Recorder) appendEncoded(data []byte, n int) {
	c := rchunk{size: int32(len(data)), n: int32(n)}
	rc.encodedBytes += int64(len(data))
	if int64(len(data)) > rc.maxChunkBytes {
		rc.maxChunkBytes = int64(len(data))
	}
	if rc.memBudget > 0 && rc.residentBytes+int64(len(data)) > rc.memBudget {
		if rc.spill == nil {
			sf, err := newSpillFile()
			if err != nil {
				panic("trace: create spill file: " + err.Error())
			}
			rc.spill = sf
		}
		off, err := rc.spill.write(data)
		if err != nil {
			panic("trace: write spill chunk: " + err.Error())
		}
		c.off = off
		rc.spilledChunks++
	} else {
		retained := make([]byte, len(data))
		copy(retained, data)
		c.data = retained
		rc.residentBytes += int64(len(data))
	}
	rc.chunks = append(rc.chunks, c)
	rc.chunksEncoded++
}

// chunkData returns chunk c's encoded bytes: the resident encoding, or
// the spilled one read back into b's scratch.
func (rc *Recorder) chunkData(c *rchunk, b *Batch) []byte {
	if c.data != nil {
		return c.data
	}
	return rc.spill.read(c, b.spillBuf(int(c.size)))
}

// walkPipe streams every flushed chunk through fn as decoded column
// Batches, in record order, on the calling goroutine: one pooled batch,
// each chunk delivered as cache-resident sub-batches (see decodeRecorded).
// Each batch is valid only until fn returns — every column is rewritten on
// the next decode; its byte columns alias either the immutable resident
// chunk or the batch-owned spill scratch, so concurrent replays never share
// mutable state.
func (rc *Recorder) walkPipe(fn func(*Batch)) {
	if len(rc.chunks) == 0 {
		return
	}
	b := getBatch()
	defer putBatch(b)
	var firstSeq int64
	for i := range rc.chunks {
		c := &rc.chunks[i]
		decodeRecorded(b, rc.chunkData(c, b), firstSeq, fn)
		firstSeq += int64(c.n)
	}
}

// walk streams the whole recorded stream through fn as decoded Batches, in
// record order: every flushed chunk (walkPipe), then the staging tail of
// an unsealed Recorder as one more batch viewing the stage columns.
func (rc *Recorder) walk(fn func(*Batch)) {
	rc.walkPipe(fn)
	if st := rc.cols; st != nil && st.N > 0 {
		var tail Batch
		tail.viewStage(st)
		fn(&tail)
	}
}

// Replay feeds the recorded stream to the consumers in order, in one walk
// on the calling goroutine (consumers of one call may share state): batch
// kernels receive each decoded batch, every other consumer the batch's
// records one at a time under the live-run contract — the record is only
// valid for the duration of the Consume call, and consumers must not
// modify it.
func (rc *Recorder) Replay(consumers ...Consumer) { rc.replay(nil, consumers) }

// ReplayDirs replays the recorded stream with the directive of each record
// overridden by dirs[Addr] (DirNone for addresses outside dirs, so a nil
// dirs patches every record to DirNone). Annotation changes only the
// directive bits of a program — no code motion — so replaying a
// plain-program trace under an annotated program's directives is
// bit-identical to re-executing the annotated program. The patch is
// written to per-call scratch; the recorded chunks are never modified,
// keeping concurrent replays safe.
func (rc *Recorder) ReplayDirs(dirs []isa.Directive, consumers ...Consumer) {
	if dirs == nil {
		dirs = []isa.Directive{} // an empty table, not the plain stream
	}
	rc.replay(dirs, consumers)
}

// replay is one Replay/ReplayDirs pass: every consumer is a configuration
// under the same directive table (nil: the plain recorded stream).
func (rc *Recorder) replay(dirs []isa.Directive, consumers []Consumer) {
	cfgs := make([]EvalConfig, len(consumers))
	for i, c := range consumers {
		cfgs[i] = EvalConfig{Dirs: dirs, Consumer: c}
	}
	rc.evalPass(cfgs)
}

// DirsOf extracts the per-address directive table of a text segment, the
// input ReplayDirs expects. It lives here (rather than in the program
// package) so replay callers need only the text slice.
func DirsOf(text []isa.Instruction) []isa.Directive {
	dirs := make([]isa.Directive, len(text))
	for i := range text {
		dirs[i] = text[i].Dir
	}
	return dirs
}
