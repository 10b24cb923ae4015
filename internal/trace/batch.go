package trace

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"repro/internal/isa"
)

// This file defines the batch (column-at-a-time) replay surface. The scalar
// Consumer contract materializes one Record struct per retired instruction
// and pays an interface dispatch per record; at replay rates of tens of
// millions of records per second that reconstitution-plus-dispatch is the
// dominant cost (BenchmarkBatchKernels measures it directly). A
// BatchConsumer instead receives each decoded chunk as a Batch — the
// structure-of-arrays columns of codec.go, decoded once — and runs its own
// tight loop over the column slices, so the per-record cost collapses to
// the consumer's real work. Every replay walks batches — decoded chunks and
// the unsealed staging tail alike; Replay, ReplayDirs and MultiEval hand
// them to consumers that support them and serve every other consumer the
// batch materialized into Records, one Consume per record. Both are checked
// against live re-execution (the VM feeding the consumer's per-record
// Consume) by the tests in internal/experiments.

// Flag bits of the Batch.Flags column, mirroring the boolean fields of
// Record (codec.go packs them; bits 4-5 carry the recorded directive, which
// Batch decodes separately into the Dir column).
const (
	FlagHasDest byte = 1 << 0
	FlagDestFP  byte = 1 << 1
	FlagTaken   byte = 1 << 2
	FlagHasMem  byte = 1 << 3
)

// Batch is one decoded chunk of the recorded stream, exposed as parallel
// columns: element i of every column describes the same retired instruction
// Record i of the chunk would. The byte columns alias the encoded chunk and
// the int64 columns are decoded scratch owned by the batch, so the whole
// batch is valid only for the duration of the ConsumeBatch call and is
// strictly read-only for consumers — exactly the live-run Record contract,
// lifted to chunk granularity.
type Batch struct {
	// N is the number of records in the batch; every column has length N
	// (Reads has 2*N: two packed source-operand bytes per record).
	N int
	// FirstSeq is the stream position of the batch's first record.
	FirstSeq int64

	// Op holds the raw opcode bytes (cast to isa.Opcode).
	Op []byte
	// Flags holds the packed boolean fields; test against the Flag* bits.
	Flags []byte
	// Dest holds the destination register numbers (valid where FlagHasDest).
	Dest []byte
	// Reads holds two bytes per record, one per source operand:
	// bit7 Valid, bit6 FP, bits 0-5 the register number.
	Reads []byte

	// Dir is the effective directive of each record: the recorded
	// directive on a plain replay, or the patched table lookup under
	// ReplayDirs / a directive-carrying MultiEval configuration.
	Dir []isa.Directive

	// Addr, Value, MemAddr and Phase are the decoded integer columns;
	// Value and MemAddr are meaningful where FlagHasDest / FlagHasMem are
	// set, as on Record. MemAddr is 0 wherever FlagHasMem is clear: the
	// chunk codec keeps memory addresses only for memory records.
	Addr    []int64
	Value   []int64
	MemAddr []int64
	Phase   []int64
	// Seq holds the dynamic sequence number of each record.
	Seq []int64

	raw []byte // spill read scratch; owned by this batch so pipelined reads never alias a batch a consumer still holds
}

// BatchConsumer is a Consumer that can additionally accept whole decoded
// chunks. Replay, ReplayDirs, MultiEval and live VM runs (through a
// ColumnSink) feed it batches only (the staging tail of an unsealed
// Recorder included); the embedded scalar Consume serves callers that hand
// it records one at a time — a plain ConsumerFunc wrapping it, or another
// consumer forwarding records — so a batch kernel must keep both entry
// points consistent. The re-execution tests enforce that bit-for-bit.
type BatchConsumer interface {
	Consumer
	// ConsumeBatch is called once per batch, in stream order. The
	// batch and every column it exposes are read-only and valid only for
	// the duration of the call.
	ConsumeBatch(b *Batch)
}

// grow sizes every batch-owned column to n, reallocating only when a
// previous use left insufficient capacity (all batches cycle through
// batchPool, so steady-state replay does not allocate here).
func (b *Batch) grow(n int) {
	if cap(b.Dir) < n {
		b.Dir = make([]isa.Directive, n)
		b.Addr = make([]int64, n)
		b.Value = make([]int64, n)
		b.MemAddr = make([]int64, n)
		b.Phase = make([]int64, n)
		b.Seq = make([]int64, n)
	}
	b.Dir = b.Dir[:n]
	b.Addr = b.Addr[:n]
	b.Value = b.Value[:n]
	b.MemAddr = b.MemAddr[:n]
	b.Phase = b.Phase[:n]
	b.Seq = b.Seq[:n]
}

// spillBuf returns the batch-owned scratch for reading one spilled chunk.
func (b *Batch) spillBuf(size int) []byte {
	if cap(b.raw) < size {
		b.raw = make([]byte, size)
	}
	b.raw = b.raw[:size]
	return b.raw
}

// Record materializes record i of the batch into r, bit-identical to the
// record the live run delivered (including any directive patch applied to
// the Dir column). Replays serve per-record consumers through it, and the
// file Reader hands out frame records; batch kernels that need an
// occasional full record (rather than columns) may use it too.
func (b *Batch) Record(i int, r *Record) {
	f := b.Flags[i]
	r.Addr = b.Addr[i]
	r.Op = isa.Opcode(b.Op[i])
	r.Dir = b.Dir[i]
	r.HasDest = f&FlagHasDest != 0
	r.DestFP = f&FlagDestFP != 0
	r.Dest = isa.Reg(b.Dest[i])
	r.Value = b.Value[i]
	r.Phase = int(b.Phase[i])
	r.Seq = b.Seq[i]
	b0, b1 := b.Reads[2*i], b.Reads[2*i+1]
	r.Reads[0] = RegRead{Valid: b0&0x80 != 0, FP: b0&0x40 != 0, Reg: isa.Reg(b0 & 0x3f)}
	r.Reads[1] = RegRead{Valid: b1&0x80 != 0, FP: b1&0x40 != 0, Reg: isa.Reg(b1 & 0x3f)}
	r.Taken = f&FlagTaken != 0
	r.HasMem = f&FlagHasMem != 0
	r.MemAddr = b.MemAddr[i]
}

// Records materializes the whole batch into out (which must hold N records)
// and returns the filled prefix.
func (b *Batch) Records(out []Record) []Record {
	out = out[:b.N]
	for i := range out {
		b.Record(i, &out[i])
	}
	return out
}

// batchPool recycles the decode batches of the replay walks across passes,
// so steady-state replay does not allocate columns.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getBatch() *Batch  { return batchPool.Get().(*Batch) }
func putBatch(b *Batch) { batchPool.Put(b) }

// patchDirs overwrites dst with the ReplayDirs directive table lookup for
// each address: dirs[addr], or DirNone outside the table — the column form
// of the scalar patch loop.
func patchDirs(dst []isa.Directive, addrs []int64, dirs []isa.Directive) {
	n := int64(len(dirs))
	for i, a := range addrs {
		if a >= 0 && a < n {
			dst[i] = dirs[a]
		} else {
			dst[i] = isa.DirNone
		}
	}
}

// ConsumeBatch implements BatchConsumer for Counter with no per-record
// dispatch.
func (c *Counter) ConsumeBatch(b *Batch) {
	c.Records += int64(b.N)
	c.ValueProds += int64(countFlag(b.Flags, FlagHasDest))
}

// countFlag counts the flag bytes that set bit (one of the Flag* bits),
// eight bytes at a time: each lane's bit is shifted down to bit 0, then one
// multiply adds the lanes into the top byte.
func countFlag(flags []byte, bit byte) int {
	shift := bits.TrailingZeros8(bit)
	m := 0
	for len(flags) >= 8 {
		x := binary.LittleEndian.Uint64(flags) >> shift & 0x0101010101010101
		m += int(x * 0x0101010101010101 >> 56)
		flags = flags[8:]
	}
	for _, f := range flags {
		m += int(f >> shift & 1)
	}
	return m
}
