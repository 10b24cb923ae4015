package trace

import (
	"fmt"
	"runtime"
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
// Record struct). Replay hands batch kernels the decoded columns and
// everything else one materialized Record per iteration, so consumers
// observe exactly the live-run contract and never touch the encoded form. When a resident-bytes
// budget is set, encoded chunks past the budget spill to an anonymous temp
// file and stream back in sequential order during replay through a
// double-buffered prefetcher (spill.go), so traces larger than RAM replay
// at near-resident speed.

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
// Recording is single-threaded (one producer; until Seal the storage
// accessors and replays belong to the recording goroutine too, and report
// exactly what the sequential path would), but a finished Recorder is
// immutable and Replay/ReplayDirs/MultiEval may be called concurrently from
// multiple goroutines. Owners that share a Recorder across goroutines (the
// experiments context, the vpserve trace cache) must Seal it first: sealing
// marks recording complete, turns any further Consume into a panic, and
// documents the immutability the concurrent replays rely on. Replay hands
// records out by pointer under a strict read-only, duration-of-the-call
// contract (the same contract as a live run); the -race stress tests in
// internal/experiments drive every replay path from many goroutines to
// catch any consumer that violates it.
type Recorder struct {
	cols     *RecordColumns // staging columns of the chunk being filled
	tailSlab *recSlab       // scratch for materializing the staged tail in replays
	enc      *chunkEncoder
	chunks   []rchunk
	nFlushed int64 // records in flushed (encoded or encode-queued) chunks

	memBudget     int64 // resident encoded-bytes budget; <=0 = fully resident
	residentBytes int64 // encoded bytes currently held in memory
	encodedBytes  int64 // encoded bytes total (resident + spilled)
	maxChunkBytes int64 // largest encoded chunk, the unit of spill readback
	spilledChunks int64
	chunksEncoded int64
	spill         *spillFile

	// While the encode-ahead pipeline is live, appendEncoded writes the
	// encoded-chunk state above (chunks through spill) on the encoder
	// goroutine. Every reader of that state — the accessors, replays,
	// SetMemBudget and Seal — first drains the pipeline (drainEncode), so
	// it observes every flushed chunk and the drain's channel round trip
	// orders the encoder's writes before the read. Once sealed (or on the
	// sequential path) everything is synchronous and immutable.
	ahead       *encodeAhead // background chunk encoder; nil on the sequential path
	inflight    bool         // stages submitted to ahead since the last drain
	aheadOff    bool         // pipeline decision made: encode inline
	stalls      atomic.Int64 // flushes that blocked waiting for a free stage
	encodeNanos atomic.Int64 // cumulative chunk-encode wall time

	sealed bool
	passes atomic.Int64 // full replay passes over the buffer, for amortization accounting
}

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetMemBudget bounds the encoded trace bytes the Recorder keeps resident in
// memory; chunks encoded past the budget spill to a temporary file (deleted
// on creation, so it can never outlive the process) and stream back during
// replay. A budget ≤ 0 keeps everything resident. The budget governs chunks
// flushed after the call (chunks already flushed are encoded under the old
// one first), so set it before recording; the ~0.9 MiB staging buffer for
// the chunk being filled is not counted against it.
func (rc *Recorder) SetMemBudget(bytes int64) {
	rc.drainEncode()
	rc.memBudget = bytes
}

// ChunksEncoded reports how many chunks have been encoded so far (resident
// or spilled), the unit of the record-side observability metrics.
func (rc *Recorder) ChunksEncoded() int64 {
	rc.drainEncode()
	return rc.chunksEncoded
}

// EncodeStalls reports how many chunk flushes blocked waiting for the
// encode-ahead pipeline to free a stage — the backpressure signal that the
// encoder, not the execution loop, is the recording bottleneck.
func (rc *Recorder) EncodeStalls() int64 { return rc.stalls.Load() }

// EncodeTime reports the cumulative wall time spent encoding chunks
// (whether inline or on the encode-ahead goroutine).
func (rc *Recorder) EncodeTime() time.Duration {
	return time.Duration(rc.encodeNanos.Load())
}

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
	rc.drainEncode()
	return rc.residentBytes + int64(rc.stagedLen())*recordMemBytes
}

// EncodedBytes returns the total encoded size of all flushed chunks,
// resident and spilled. Records still in the staging buffer (at most one
// partial chunk; none once sealed) are not yet encoded.
func (rc *Recorder) EncodedBytes() int64 {
	rc.drainEncode()
	return rc.encodedBytes
}

// BytesResident returns the encoded bytes currently held in memory.
func (rc *Recorder) BytesResident() int64 {
	rc.drainEncode()
	return rc.residentBytes
}

// ReplayResidentBytes returns the peak in-memory working set of one replay
// pass over the flushed chunks: the resident encoded bytes plus, when any
// chunk has spilled, two chunk-sized read buffers (readback is double
// buffered — one chunk decoding while the next is fetched). This is the
// honest per-pass memory figure for a spilled trace, where BytesResident
// alone would report a misleading zero.
func (rc *Recorder) ReplayResidentBytes() int64 {
	rc.drainEncode()
	b := rc.residentBytes
	if rc.spilledChunks > 0 {
		b += 2 * rc.maxChunkBytes
	}
	return b
}

// SpilledChunks returns how many chunks were written to the spill file.
func (rc *Recorder) SpilledChunks() int64 {
	rc.drainEncode()
	return rc.spilledChunks
}

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
	if rc.ahead != nil {
		// Stop the encode-ahead pipeline first: it drains every queued
		// stage in order, so the inline tail encode below lands last.
		rc.ahead.stop()
		rc.ahead = nil
	}
	if rc.cols != nil {
		if rc.cols.N > 0 {
			rc.nFlushed += int64(rc.cols.N)
			rc.encodeStage(rc.encoder(), rc.cols)
		}
		putCols(rc.cols)
		rc.cols = nil
	}
	if rc.tailSlab != nil {
		putSlab(rc.tailSlab)
		rc.tailSlab = nil
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
// (fan-outs through the VM's step loop) and the fused VM loop share one
// representation.
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
// the producer down the per-record path, whose Consume panics). The producer appends by writing element N of every column and
// incrementing N, calling FlushColumns when N reaches Cap.
func (rc *Recorder) ColumnStage() *RecordColumns {
	if rc.sealed {
		return nil
	}
	if rc.cols == nil {
		return rc.newStage()
	}
	return rc.cols
}

// FlushColumns seals the filled column stage into one encoded chunk and
// returns the stage to continue appending into. On multi-core machines the
// stage is handed to the encode-ahead pipeline and a recycled stage comes
// back immediately, overlapping execution with compression and spill
// writes; single-core machines encode inline (same chunks, same order,
// byte-identical output).
func (rc *Recorder) FlushColumns() *RecordColumns {
	st := rc.cols
	if st == nil || st.N == 0 {
		return rc.ColumnStage()
	}
	rc.nFlushed += int64(st.N)
	if rc.pipeline() {
		rc.ahead.submit(st)
		rc.inflight = true
		st = rc.ahead.acquire(rc)
		rc.cols = st
	} else {
		rc.encodeStage(rc.encoder(), st)
		st.N = 0
	}
	st.FirstSeq = rc.nFlushed
	return st
}

// FlushTail implements ColumnAppender. The Recorder buffers: the partial
// stage stays staged (replayable as the tail, encoded at Seal), so there is
// nothing to do.
func (rc *Recorder) FlushTail() {}

// pipeline reports whether chunk encoding runs on the encode-ahead
// goroutine, starting it on first use. The pipeline only helps when another
// CPU can run the encoder; at GOMAXPROCS=1 it is pure scheduling overhead,
// so the flush encodes inline — the sequential fallback.
func (rc *Recorder) pipeline() bool {
	if rc.ahead != nil {
		return true
	}
	if rc.aheadOff {
		return false
	}
	if runtime.GOMAXPROCS(0) > 1 {
		rc.ahead = startEncodeAhead(rc)
		return true
	}
	rc.aheadOff = true
	return false
}

// encoder returns the recorder-owned chunk encoder, pooled across
// Recorders.
func (rc *Recorder) encoder() *chunkEncoder {
	if rc.enc == nil {
		rc.enc = encoderPool.Get().(*chunkEncoder)
	}
	return rc.enc
}

// encodeStage encodes one full column stage and retains or spills it.
func (rc *Recorder) encodeStage(enc *chunkEncoder, st *RecordColumns) {
	start := time.Now()
	enc.buf = enc.encodeCols(enc.buf[:0], st, true)
	rc.appendEncoded(enc.buf, st.N)
	rc.encodeNanos.Add(int64(time.Since(start)))
}

// drainEncode blocks until every stage handed to the encode-ahead pipeline
// has been encoded, so an unsealed replay or accessor observes all flushed
// chunks exactly as the sequential path would. No-op on the sequential path,
// after Seal, and when nothing was submitted since the last drain. Like
// recording itself it runs on the recording goroutine.
func (rc *Recorder) drainEncode() {
	if rc.ahead != nil && rc.inflight {
		rc.ahead.drain()
		rc.inflight = false
	}
}

// encoderPool recycles chunkEncoders — their per-column scratch and the
// encode output buffer — across Recorders. Encoding into pooled scratch and
// copying out exactly the retained bytes (nothing at all for spilled
// chunks) is what keeps the recording path's steady-state allocation to one
// right-sized chunk copy, measured by BenchmarkVMStepsRecording.
var encoderPool = sync.Pool{New: func() any { return new(chunkEncoder) }}

// appendEncoded retains one encoded chunk resident — or spills it when past
// the memory budget — and appends it to the chunk index. Called inline or
// from the encode-ahead goroutine, always in stream order; readers drain
// the pipeline before looking (see drainEncode).
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

// tailRecords returns the partially filled staging tail as records,
// materialized from the column stage into pooled scratch (valid until the
// next Consume or flush). Sealed recorders have no tail.
func (rc *Recorder) tailRecords() []Record {
	if rc.cols == nil || rc.cols.N == 0 {
		return nil
	}
	if rc.tailSlab == nil {
		rc.tailSlab = getSlab()
	}
	out := rc.tailSlab.recs[:rc.cols.N]
	rc.cols.materialize(out)
	return out
}

// walkChunks streams every flushed chunk's encoded bytes through fn in
// record order, reading spilled chunks back sequentially through a
// double-buffered prefetcher so decode of chunk k overlaps the read of
// chunk k+1. fn must fully consume data before returning (the prefetch
// buffers are recycled). The staging tail is NOT walked — callers feed
// tailRecords directly after the walk.
func (rc *Recorder) walkChunks(fn func(data []byte, n int, firstSeq int64)) {
	// The prefetch goroutine only helps when another CPU can run it; on a
	// single-core machine it is pure scheduling overhead, so read inline.
	var pf *prefetcher
	var buf []byte
	if rc.spilledChunks > 0 && runtime.GOMAXPROCS(0) > 1 {
		pf = startPrefetch(rc.spill, rc.chunks)
		defer pf.stop()
	}
	firstSeq := int64(0)
	for i := range rc.chunks {
		c := &rc.chunks[i]
		data := c.data
		if data == nil {
			if pf != nil {
				data = pf.next()
			} else {
				if cap(buf) < int(c.size) {
					buf = make([]byte, c.size)
				}
				buf = buf[:c.size]
				if _, err := rc.spill.f.ReadAt(buf, c.off); err != nil {
					panic(fmt.Sprintf("trace: read spilled chunk: %v", err))
				}
				data = buf
			}
		}
		fn(data, int(c.n), firstSeq)
		if pf != nil && c.data == nil {
			pf.recycle(data)
		}
		firstSeq += int64(c.n)
	}
}

// mustDecodeChunk batch-decodes a chunk the Recorder encoded itself into
// out; failure would mean memory or spill-file corruption.
func mustDecodeChunk(out []Record, data []byte, firstSeq int64) int {
	n, err := decodeChunk(out, data, firstSeq, true, false)
	if err != nil {
		panic("trace: corrupt recorded chunk: " + err.Error())
	}
	return n
}

// recSlab is one pooled chunk-sized Record buffer plus the per-buffer
// scratch for reading a spilled chunk back from disk. The spill scratch
// lives on the buffer (not the decode lane) because the pipelined walk
// reads chunk i+lanes while the consumer still holds chunk i — a
// lane-shared buffer would be overwritten under the consumer's feet. That
// hazard is theoretical for fully materialized Record slabs but real for
// batches, whose byte columns alias the encoded bytes; keeping the scratch
// per-buffer makes both walks safe by construction.
type recSlab struct {
	recs []Record
	n    int
	raw  []byte
}

// spillBuf returns the slab-owned scratch for reading one spilled chunk.
func (s *recSlab) spillBuf(size int) []byte {
	if cap(s.raw) < size {
		s.raw = make([]byte, size)
	}
	s.raw = s.raw[:size]
	return s.raw
}

// slabPool recycles chunk-sized decode slabs across replay passes. A slab is
// ~0.9 MiB, so per-pass allocation would dominate short replays; the pool
// keeps steady-state replay allocation-free.
var slabPool = sync.Pool{New: func() any {
	return &recSlab{recs: make([]Record, recorderChunkSize)}
}}

func getSlab() *recSlab  { return slabPool.Get().(*recSlab) }
func putSlab(s *recSlab) { slabPool.Put(s) }

// decodeLanes picks the decode-ahead width for a replay pass: one lane per
// spare CPU up to six (the chunk transpose costs ~16 ns/record against
// ~3 ns/record of consumer dispatch, so walkonly replay needs five-plus
// lanes before the decode fully hides; heavier consumers saturate sooner),
// zero — the inline sequential path — when the machine is single-core or
// the trace too small to pipeline.
func decodeLanes(nchunks int) int {
	w := runtime.GOMAXPROCS(0) - 1
	if w > 6 {
		w = 6
	}
	if w > nchunks-1 {
		w = nchunks - 1
	}
	if w < 1 {
		return 0
	}
	return w
}

// walkPipe streams every flushed chunk through deliver as a decoded buffer
// (a Record slab or a column Batch), in record order. On multi-core
// machines the decode runs ahead of the consumer on a small pool of worker
// lanes — chunk i is decoded on lane i%lanes while the consumer walks
// earlier buffers, so the per-record cost of the consume loop approaches
// the raw in-memory walk and the decode hides behind it. Each lane owns two
// buffers (decode one while the consumer holds the other); delivery is
// strictly round-robin, which keeps record order without any reordering
// buffer. Spilled chunks are read back by the lane that decodes them
// (positional reads are independent) into buffer-owned scratch, replacing
// the sequential prefetcher on that path. Single-core or tiny traces fall
// back to inline decode through walkChunks. The buffer passed to deliver is
// valid only until deliver returns — every element is rewritten on the next
// decode.
func walkPipe[B interface{ spillBuf(size int) []byte }](
	rc *Recorder,
	get func() B, put func(B),
	decode func(buf B, data []byte, firstSeq int64),
	deliver func(buf B),
) {
	nchunks := len(rc.chunks)
	if nchunks == 0 {
		return
	}
	lanes := decodeLanes(nchunks)
	if lanes == 0 {
		buf := get()
		defer put(buf)
		rc.walkChunks(func(data []byte, n int, firstSeq int64) {
			decode(buf, data, firstSeq)
			deliver(buf)
		})
		return
	}

	firstSeqs := make([]int64, nchunks)
	var fs int64
	for i := range rc.chunks {
		firstSeqs[i] = fs
		fs += int64(rc.chunks[i].n)
	}

	type lane struct {
		out  chan B // decoded buffers, in this lane's chunk order
		free chan B // buffers returned by the consumer
	}
	ls := make([]lane, lanes)
	done := make(chan struct{})
	panics := make(chan any, lanes)
	var wg sync.WaitGroup
	for w := range ls {
		ls[w] = lane{out: make(chan B, 1), free: make(chan B, 2)}
		ls[w].free <- get()
		ls[w].free <- get()
		wg.Add(1)
		go func(w int, ln lane) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
					close(ln.out)
				}
			}()
			for i := w; i < nchunks; i += lanes {
				var buf B
				select {
				case buf = <-ln.free:
				case <-done:
					return
				}
				c := &rc.chunks[i]
				data := c.data
				if data == nil {
					sb := buf.spillBuf(int(c.size))
					if _, err := rc.spill.f.ReadAt(sb, c.off); err != nil {
						panic(fmt.Sprintf("trace: read spilled chunk: %v", err))
					}
					data = sb
				}
				decode(buf, data, firstSeqs[i])
				select {
				case ln.out <- buf:
				case <-done:
					return
				}
			}
			close(ln.out)
		}(w, ls[w])
	}
	defer func() {
		close(done)
		wg.Wait()
		// Return every buffer still parked in a lane to the pool. A lane
		// that aborted mid-decode keeps its buffer; the GC reclaims it.
		for _, ln := range ls {
			for {
				select {
				case b := <-ln.free:
					put(b)
					continue
				default:
				}
				select {
				case b, ok := <-ln.out:
					if ok {
						put(b)
						continue
					}
				default:
				}
				break
			}
		}
	}()
	for i := 0; i < nchunks; i++ {
		ln := ls[i%lanes]
		buf, ok := <-ln.out
		if !ok {
			panic(<-panics)
		}
		deliver(buf)
		ln.free <- buf
	}
}

// walkSlabs streams every flushed chunk through fn as a decoded []Record
// slab, in record order (see walkPipe for the pipelining). fn may mutate
// the slab — ReplayDirs patches directives in place.
func (rc *Recorder) walkSlabs(fn func(recs []Record)) {
	walkPipe(rc, getSlab, putSlab,
		func(s *recSlab, data []byte, firstSeq int64) {
			s.n = mustDecodeChunk(s.recs, data, firstSeq)
		},
		func(s *recSlab) { fn(s.recs[:s.n]) })
}

// walkBatches streams every flushed chunk through fn as decoded column
// Batches, in record order (see walkPipe for the pipelining). Each batch is
// valid only until fn returns; its byte columns alias either the immutable
// resident chunk or the batch-owned spill scratch, so concurrent replays
// never share mutable state. On the inline single-core path chunks are
// delivered as cache-resident sub-batches (see streamBatch); lane-decoded
// chunks arrive whole, one batch per chunk.
func (rc *Recorder) walkBatches(fn func(b *Batch)) {
	if decodeLanes(len(rc.chunks)) == 0 {
		b := getBatch()
		defer putBatch(b)
		rc.walkChunks(func(data []byte, n int, firstSeq int64) {
			mustStreamBatch(b, data, firstSeq, fn)
		})
		return
	}
	walkPipe(rc, getBatch, putBatch,
		func(b *Batch, data []byte, firstSeq int64) {
			mustDecodeBatch(b, data, firstSeq)
		},
		fn)
}

// batchable returns the consumers as batch kernels when every consumer
// supports it, nil otherwise (mixed fan-outs take the per-record walk so
// all consumers observe one decode).
func batchable(consumers []Consumer) []BatchConsumer {
	if len(consumers) == 0 {
		return nil
	}
	bcs := make([]BatchConsumer, len(consumers))
	for i, c := range consumers {
		bc, ok := c.(BatchConsumer)
		if !ok {
			return nil
		}
		bcs[i] = bc
	}
	return bcs
}

// Replay feeds the recorded stream to the consumers in order. Consumers
// implementing BatchConsumer (all of them, or none — mixed sets fall back)
// receive whole decoded chunks as column batches; otherwise chunks are
// batch-decoded into scratch slabs (running ahead of the consumer on
// multi-core machines, see walkPipe) and handed out record by record under
// the live-run contract: the record is only valid for the duration of the
// Consume call, and consumers must not modify it.
func (rc *Recorder) Replay(consumers ...Consumer) {
	rc.passes.Add(1)
	rc.drainEncode()
	staged := rc.tailRecords()
	if bcs := batchable(consumers); bcs != nil {
		rc.walkBatches(func(b *Batch) {
			for _, c := range bcs {
				c.ConsumeBatch(b)
			}
		})
		for i := range staged {
			for _, c := range consumers {
				c.Consume(&staged[i])
			}
		}
		return
	}
	if len(consumers) == 1 {
		// The common fan-out, with the consumer interface loaded once.
		c := consumers[0]
		rc.walkSlabs(func(recs []Record) {
			for i := range recs {
				c.Consume(&recs[i])
			}
		})
		for i := range staged {
			c.Consume(&staged[i])
		}
		return
	}
	rc.walkSlabs(func(recs []Record) {
		for i := range recs {
			for _, c := range consumers {
				c.Consume(&recs[i])
			}
		}
	})
	for i := range staged {
		for _, c := range consumers {
			c.Consume(&staged[i])
		}
	}
}

// ReplayDirs replays the recorded stream with the directive of each record
// overridden by dirs[Addr] (DirNone for addresses outside dirs). Annotation
// changes only the directive bits of a program — no code motion — so
// replaying a plain-program trace under an annotated program's directives is
// bit-identical to re-executing the annotated program. Each record is
// patched in the decode scratch; the recorded chunks are never modified,
// keeping concurrent replays safe.
func (rc *Recorder) ReplayDirs(dirs []isa.Directive, consumers ...Consumer) {
	rc.passes.Add(1)
	rc.drainEncode()
	staged := rc.tailRecords()
	if bcs := batchable(consumers); bcs != nil {
		rc.walkBatches(func(b *Batch) {
			// The Dir column is batch-owned decode scratch (rewritten on
			// the next decode), so the patch writes it in place.
			patchDirs(b.Dir, b.Addr, dirs)
			for _, c := range bcs {
				c.ConsumeBatch(b)
			}
		})
		var rec Record
		for i := range staged {
			rec = staged[i]
			if a := rec.Addr; a >= 0 && a < int64(len(dirs)) {
				rec.Dir = dirs[a]
			} else {
				rec.Dir = isa.DirNone
			}
			for _, c := range consumers {
				c.Consume(&rec)
			}
		}
		return
	}
	var single Consumer
	if len(consumers) == 1 {
		single = consumers[0]
	}
	patch := func(r *Record) {
		if a := r.Addr; a >= 0 && a < int64(len(dirs)) {
			r.Dir = dirs[a]
		} else {
			r.Dir = isa.DirNone
		}
	}
	// The directive is patched in the decode slab — scratch owned by this
	// pass — so the recorded chunks are never modified and concurrent
	// replays stay safe.
	rc.walkSlabs(func(recs []Record) {
		for i := range recs {
			r := &recs[i]
			patch(r)
			if single != nil {
				single.Consume(r)
			} else {
				for _, c := range consumers {
					c.Consume(r)
				}
			}
		}
	})
	var rec Record
	for i := range staged {
		rec = staged[i]
		patch(&rec)
		if single != nil {
			single.Consume(&rec)
		} else {
			for _, c := range consumers {
				c.Consume(&rec)
			}
		}
	}
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
