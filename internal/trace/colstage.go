package trace

import (
	"runtime"
	"sync"

	"repro/internal/isa"
)

// This file defines the fused-recording staging surface: the write-side
// counterpart of batch.go. Per-record delivery costs a Record
// materialization and an interface dispatch into Consume for every retired
// instruction. RecordColumns removes both: the VM dispatch loop writes the
// destructured record fields straight into per-chunk SoA columns (plain
// byte/int64 stores, no Record, no interface call), and the
// zigzag-delta/varint compression runs once per chunk at seal time through
// the speculative uniform-width encoders of codec.go. Records that still
// arrive one at a time (Consume, e.g. a ColumnSink's fan-out into a
// Recorder) are destructured into the same columns by appendRecord, so
// there is one staging representation and one encoder.

// RecordColumns is one chunk of staged records as parallel columns: element
// i of every column carries the field Record i would. The byte columns use
// exactly the packed layout of the chunk codec (flags bits, read-operand
// bits), so sealing a stage is a memcpy for the fixed columns and a
// delta/varint pass for the integer columns.
type RecordColumns struct {
	// N is the number of staged records. A column producer appends by
	// writing element N of every column and incrementing N; it must flush
	// (and restage) once N reaches Cap.
	N int
	// FirstSeq is the stream position of element 0.
	FirstSeq int64

	// Op holds the raw opcode bytes.
	Op []byte
	// Flags holds the packed boolean fields and directive:
	// bit0 HasDest, bit1 DestFP, bit2 Taken, bit3 HasMem, bits4-5 Dir.
	Flags []byte
	// Dest holds the destination register numbers.
	Dest []byte
	// Reads holds two bytes per record, one per source operand:
	// bit7 Valid, bit6 FP, bits 0-5 the register number.
	Reads []byte

	// Addr, Value, Mem, Phase and Seq are the raw (untransformed) integer
	// fields; the chunk codec delta-compresses them at flush time. Mem is
	// encoded only where the flags carry FlagHasMem; producers stage 0
	// elsewhere.
	Addr  []int64
	Value []int64
	Mem   []int64
	Phase []int64
	Seq   []int64
}

// Cap returns the stage's record capacity.
func (st *RecordColumns) Cap() int { return len(st.Op) }

// PackRead packs one source-operand read into the codec's byte layout (the
// Batch.Reads encoding); an invalid read packs to 0.
func PackRead(rd RegRead) byte {
	var b byte
	if rd.Valid {
		b = 0x80 | byte(rd.Reg)&0x3f
		if rd.FP {
			b |= 0x40
		}
	}
	return b
}

// PackFlags packs r's boolean fields (the Flag* bits of Batch.Flags) and,
// in bits 4-5, its directive into the codec's flags byte.
func PackFlags(r *Record) byte {
	f := byte(r.Dir) << 4
	if r.HasDest {
		f |= FlagHasDest
	}
	if r.DestFP {
		f |= FlagDestFP
	}
	if r.Taken {
		f |= FlagTaken
	}
	if r.HasMem {
		f |= FlagHasMem
	}
	return f
}

// appendRecord destructures r into the columns — the per-record producer's
// entry into column staging, packing exactly what the VM dispatch loop
// writes (MemAddr 0 without HasMem, which is all the codec keeps).
func (st *RecordColumns) appendRecord(r *Record) {
	i := st.N
	st.Op[i] = byte(r.Op)
	st.Flags[i] = PackFlags(r)
	st.Dest[i] = byte(r.Dest)
	st.Reads[2*i] = PackRead(r.Reads[0])
	st.Reads[2*i+1] = PackRead(r.Reads[1])
	st.Addr[i] = r.Addr
	st.Value[i] = r.Value
	st.Mem[i] = 0
	if r.HasMem {
		st.Mem[i] = r.MemAddr
	}
	st.Phase[i] = int64(r.Phase)
	st.Seq[i] = r.Seq
	st.N = i + 1
}

// viewStage points b at the st.N records staged in st — the Batch form of
// a column stage: every column aliases the stage except Dir, which is
// widened from the flags bits into b's own scratch. ColumnSink delivers its
// filled stages through it and the Recorder replays its unsealed tail
// through it. b must not be a pooled decode batch, whose columns the next
// decode would then write into the stage.
func (b *Batch) viewStage(st *RecordColumns) {
	n := st.N
	if cap(b.Dir) < n {
		b.Dir = make([]isa.Directive, n)
	}
	b.Dir = b.Dir[:n]
	for i, f := range st.Flags[:n] {
		b.Dir[i] = isa.Directive(f >> 4)
	}
	b.N, b.FirstSeq = n, st.FirstSeq
	b.Op, b.Flags, b.Dest, b.Reads = st.Op[:n], st.Flags[:n], st.Dest[:n], st.Reads[:2*n]
	b.Addr, b.Value, b.MemAddr, b.Phase, b.Seq = st.Addr[:n], st.Value[:n], st.Mem[:n], st.Phase[:n], st.Seq[:n]
}

// newRecordColumns allocates a stage of capacity n.
func newRecordColumns(n int) *RecordColumns {
	return &RecordColumns{
		Op:    make([]byte, n),
		Flags: make([]byte, n),
		Dest:  make([]byte, n),
		Reads: make([]byte, 2*n),
		Addr:  make([]int64, n),
		Value: make([]int64, n),
		Mem:   make([]int64, n),
		Phase: make([]int64, n),
		Seq:   make([]int64, n),
	}
}

// colsPool recycles chunk-sized stages across Recorders and ColumnSinks,
// the record-side twin of batchPool (~0.6 MiB each).
var colsPool = sync.Pool{New: func() any { return newRecordColumns(recorderChunkSize) }}

func getCols() *RecordColumns {
	st := colsPool.Get().(*RecordColumns)
	st.N = 0
	st.FirstSeq = 0
	return st
}

func putCols(st *RecordColumns) { colsPool.Put(st) }

// ColumnAppender is a Consumer that additionally accepts column appends.
// The VM dispatch loop detects a lone attached ColumnAppender at run start:
// when ColumnStage returns a non-nil stage the VM bypasses Consume entirely
// and writes destructured record fields straight into the stage's columns,
// calling FlushColumns each time the stage fills and FlushTail once when the
// run ends (halt or error). A nil ColumnStage (a sealed recorder), or any
// other consumer set, is served through a ColumnSink instead, which hands
// the consumer the same records through Consume at each chunk flush. Both
// routes must be observably identical — the re-execution tests compare
// them.
type ColumnAppender interface {
	Consumer
	// ColumnStage returns the live staging columns, or nil when column
	// appends are unavailable.
	ColumnStage() *RecordColumns
	// FlushColumns seals the filled stage and returns the (empty) stage to
	// continue appending into.
	FlushColumns() *RecordColumns
	// FlushTail settles a partially filled stage at end of run. Buffering
	// appenders (the Recorder) may keep the tail staged; delivering
	// appenders (ColumnSink) must hand it to their consumers.
	FlushTail()
}

// ColumnSink adapts a set of evaluation configurations into one
// ColumnAppender: the VM's dispatch loop stages columns and the sink
// delivers each filled stage to every configuration through the lanes of a
// replay pass (lanePass). Batch kernels (the profiler's training pass,
// prediction engines, ILP machines) receive the stage as a Batch; per-record
// consumers receive it materialized once into Records. So a live run feeds
// its consumers at chunk granularity, exactly the replay contract: batches
// and records are delivered in stream order and are valid only for the
// duration of the ConsumeBatch or Consume call. With more than one lane the
// stages are evaluated on a stage-ahead goroutine, so the VM fills stage
// k+1 while the lanes evaluate stage k.
type ColumnSink struct {
	pass  lanePass
	ahead *stageAhead // evaluates filled stages; nil with one lane
	st    *RecordColumns
	batch Batch
	n     int64
}

// NewColumnSink returns a sink feeding cs in order, one lane on the
// producing goroutine; with no consumers the staged records are discarded.
func NewColumnSink(cs ...Consumer) *ColumnSink {
	cfgs := make([]EvalConfig, len(cs))
	for i, c := range cs {
		cfgs[i].Consumer = c
	}
	return newColumnSink(cfgs, 1)
}

// NewEvalSink returns a sink evaluating cfgs — independent configurations,
// each with its directive table, exactly as MultiEval does — in lanes that
// follow GOMAXPROCS. Attached to a VM as its lone consumer, it gives every
// configuration the results a recorded MultiEval pass would.
func NewEvalSink(cfgs ...EvalConfig) *ColumnSink {
	return newColumnSink(cfgs, runtime.GOMAXPROCS(0))
}

func newColumnSink(cfgs []EvalConfig, maxLanes int) *ColumnSink {
	s := &ColumnSink{st: getCols()}
	s.pass.start(cfgs, maxLanes)
	if len(s.pass.lanes) > 1 {
		var b Batch
		s.ahead = startAhead(func(st *RecordColumns) {
			b.viewStage(st)
			s.pass.eval(&b)
		})
	}
	return s
}

// Consume implements the per-record path: records delivered one at a time
// still flow through the same staging columns, so per-record and column
// producers feed the consumers identical batches.
func (s *ColumnSink) Consume(r *Record) {
	s.st.appendRecord(r)
	if s.st.N == s.st.Cap() {
		s.FlushColumns()
	}
}

// ColumnStage implements ColumnAppender.
func (s *ColumnSink) ColumnStage() *RecordColumns { return s.st }

// FlushColumns hands the staged columns to the lanes as one Batch and
// returns the stage to continue into. A consumer panic is re-raised here, or
// with a stage-ahead goroutine at the next flush.
func (s *ColumnSink) FlushColumns() *RecordColumns {
	st := s.st
	if st.N == 0 {
		return st
	}
	s.n += int64(st.N)
	if s.ahead != nil {
		s.ahead.check()
		s.ahead.submit(st)
		st = s.ahead.acquire()
		s.st = st
	} else {
		s.batch.viewStage(st)
		s.pass.eval(&s.batch)
		st.N = 0
	}
	st.FirstSeq = s.n
	return st
}

// FlushTail delivers any partially filled stage and returns once every
// configuration has consumed every record, re-raising a consumer panic.
func (s *ColumnSink) FlushTail() {
	s.FlushColumns()
	if s.ahead != nil {
		s.ahead.drain()
	}
}

// Close stops the sink's goroutines and returns its pooled stages; records
// staged since the last flush are dropped. It never panics, so it can be
// deferred across a panicking run, and is idempotent. The sink must not be
// used afterwards.
func (s *ColumnSink) Close() {
	if s.st == nil {
		return
	}
	if s.ahead != nil {
		s.ahead.stop()
	}
	s.pass.stop()
	putCols(s.st)
	s.st = nil
}
