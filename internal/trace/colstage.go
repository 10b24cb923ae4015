package trace

import (
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
// arrive one at a time (Consume on a fan-out) are destructured into the
// same columns by appendRecord, so there is one staging representation and
// one encoder.

// RecordColumns is one chunk of staged records as parallel columns: element
// i of every column carries the field Record i would. The byte columns use
// exactly the packed layout of the chunk codec (flags bits, read-operand
// bits), so sealing a stage is a memcpy for the fixed columns and a
// delta/varint pass for the integer columns.
type RecordColumns struct {
	// N is the number of staged records. A fused producer appends by
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
	// fields; the chunk codec delta-compresses them at flush time.
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
// entry into column staging, packing exactly what the fused VM loop writes.
func (st *RecordColumns) appendRecord(r *Record) {
	i := st.N
	st.Op[i] = byte(r.Op)
	st.Flags[i] = PackFlags(r)
	st.Dest[i] = byte(r.Dest)
	st.Reads[2*i] = PackRead(r.Reads[0])
	st.Reads[2*i+1] = PackRead(r.Reads[1])
	st.Addr[i] = r.Addr
	st.Value[i] = r.Value
	st.Mem[i] = r.MemAddr
	st.Phase[i] = int64(r.Phase)
	st.Seq[i] = r.Seq
	st.N = i + 1
}

// materialize reconstructs the staged records into out (which must hold N
// records) — how the unsealed staging tail is replayed, bit-identical to the
// records that were appended.
func (st *RecordColumns) materialize(out []Record) {
	for i := range out[:st.N] {
		r := &out[i]
		f := st.Flags[i]
		r.Addr = st.Addr[i]
		r.Op = isa.Opcode(st.Op[i])
		r.Dir = isa.Directive(f >> 4)
		r.HasDest = f&1 != 0
		r.DestFP = f&2 != 0
		r.Dest = isa.Reg(st.Dest[i])
		r.Value = st.Value[i]
		r.Phase = int(st.Phase[i])
		r.Seq = st.Seq[i]
		b0, b1 := st.Reads[2*i], st.Reads[2*i+1]
		r.Reads[0] = RegRead{Valid: b0&0x80 != 0, FP: b0&0x40 != 0, Reg: isa.Reg(b0 & 0x3f)}
		r.Reads[1] = RegRead{Valid: b1&0x80 != 0, FP: b1&0x40 != 0, Reg: isa.Reg(b1 & 0x3f)}
		r.Taken = f&4 != 0
		r.HasMem = f&8 != 0
		r.MemAddr = st.Mem[i]
	}
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
// the record-side twin of slabPool (~0.6 MiB each).
var colsPool = sync.Pool{New: func() any { return newRecordColumns(recorderChunkSize) }}

func getCols() *RecordColumns {
	st := colsPool.Get().(*RecordColumns)
	st.N = 0
	st.FirstSeq = 0
	return st
}

func putCols(st *RecordColumns) { colsPool.Put(st) }

// ColumnAppender is a Consumer that additionally accepts fused column
// appends. The VM dispatch loop detects it once at run start: when
// ColumnStage returns a non-nil stage the VM bypasses Consume entirely and
// writes destructured record fields straight into the stage's columns,
// calling FlushColumns each time the stage fills and FlushTail once when the
// run ends (halt or error). A nil ColumnStage (a sealed recorder) keeps the
// run on the per-record Consume path. Both paths must be observably
// identical — the re-execution tests compare them against the VM's
// per-record loop.
type ColumnAppender interface {
	Consumer
	// ColumnStage returns the live staging columns, or nil when fused
	// recording is unavailable.
	ColumnStage() *RecordColumns
	// FlushColumns seals the filled stage and returns the (empty) stage to
	// continue appending into.
	FlushColumns() *RecordColumns
	// FlushTail settles a partially filled stage at end of run. Buffering
	// appenders (the Recorder) may keep the tail staged; delivering
	// appenders (ColumnSink) must hand it to their consumer.
	FlushTail()
}

// ColumnSink adapts a BatchConsumer into a ColumnAppender: the VM's fused
// loop stages columns and the sink delivers each filled stage to the
// consumer as a Batch — so a live recording run feeds column kernels (the
// profiler's training pass, prediction engines) at chunk granularity with no
// per-record dispatch, mirroring what replay already does for sealed traces.
// Batches are delivered in stream order, valid only for the duration of the
// ConsumeBatch call, exactly the replay contract.
type ColumnSink struct {
	c     BatchConsumer
	st    *RecordColumns
	dir   []isa.Directive
	batch Batch
	n     int64
}

// NewColumnSink returns a sink feeding c. Call Close when done to return the
// pooled stage.
func NewColumnSink(c BatchConsumer) *ColumnSink {
	return &ColumnSink{c: c, st: getCols(), dir: make([]isa.Directive, recorderChunkSize)}
}

// Consume implements the per-record path: records delivered one at a time
// still flow through the same staging columns, so per-record and fused
// producers feed the consumer identical batches.
func (s *ColumnSink) Consume(r *Record) {
	s.st.appendRecord(r)
	if s.st.N == s.st.Cap() {
		s.FlushColumns()
	}
}

// ColumnStage implements ColumnAppender.
func (s *ColumnSink) ColumnStage() *RecordColumns { return s.st }

// FlushColumns delivers the staged columns to the consumer as one Batch.
func (s *ColumnSink) FlushColumns() *RecordColumns {
	st := s.st
	if st.N == 0 {
		return st
	}
	n := st.N
	dir := s.dir[:n]
	for i, f := range st.Flags[:n] {
		dir[i] = isa.Directive(f >> 4)
	}
	s.batch = Batch{
		N:        n,
		FirstSeq: st.FirstSeq,
		Op:       st.Op[:n],
		Flags:    st.Flags[:n],
		Dest:     st.Dest[:n],
		Reads:    st.Reads[:2*n],
		Dir:      dir,
		Addr:     st.Addr[:n],
		Value:    st.Value[:n],
		MemAddr:  st.Mem[:n],
		Phase:    st.Phase[:n],
		Seq:      st.Seq[:n],
	}
	s.c.ConsumeBatch(&s.batch)
	s.n += int64(n)
	st.N = 0
	st.FirstSeq = s.n
	return st
}

// FlushTail delivers any partially filled stage.
func (s *ColumnSink) FlushTail() { s.FlushColumns() }

// Close flushes the tail and returns the pooled stage. The sink must not be
// used afterwards.
func (s *ColumnSink) Close() {
	s.FlushColumns()
	if s.st != nil {
		putCols(s.st)
		s.st = nil
	}
}
