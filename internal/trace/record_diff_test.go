package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// This file covers the record side: column staging, the ColumnSink and the
// trace-file Writer's producer paths. Byte identity of
// real recordings is pinned by the golden trace hash in internal/experiments.

// colsOf stages recs into a fresh column stage, as a per-record producer
// would.
func colsOf(recs []Record, firstSeq int64) *RecordColumns {
	st := newRecordColumns(len(recs))
	st.FirstSeq = firstSeq
	for i := range recs {
		st.appendRecord(&recs[i])
	}
	return st
}

// encodeRecords appends the chunk encoding of recs (stream position
// firstSeq) to dst through the column encoder.
func encodeRecords(enc *chunkEncoder, dst []byte, recs []Record, firstSeq int64, withSeq bool) []byte {
	return enc.encodeCols(dst, colsOf(recs, firstSeq), withSeq)
}

// appendZigzag appends the zigzag varint of v to dst — the canonical
// per-value encoding the speculative column emitters must reproduce.
func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}

// widthStreams builds record streams engineered to drive each speculative
// column-width path of appendCol: all-one-byte varints, exact two-byte
// varints, and irregular mixes.
func widthStreams() map[string][]Record {
	mk := func(n int, f func(i int64, r *Record)) []Record {
		recs := make([]Record, n)
		for i := range recs {
			r := synthRecord(int64(i))
			f(int64(i), &r)
			if !r.HasMem {
				r.MemAddr = 0 // the codec keeps MemAddr only for memory records
			}
			recs[i] = r
		}
		return recs
	}
	return map[string][]Record{
		// Constant fields: every delta zero, every column one-byte uniform.
		"uniform1": mk(300, func(i int64, r *Record) {
			r.Addr, r.Value, r.MemAddr, r.Phase, r.Seq = 7, 3, 9, 1, i
		}),
		// Deltas of ±100 zigzag to 199/200 — in [0x80, 0x4000), exactly two
		// canonical bytes each, driving the uniform two-byte emitter.
		"uniform2": mk(300, func(i int64, r *Record) {
			r.Addr = 100 * i
			r.Value = 100 + i%64
			r.MemAddr = -100 * i
			r.Phase = int(100 * i)
			r.Seq = i
		}),
		// A one-byte delta spliced into a two-byte run: sums to an ambiguous
		// length only the element-wise validation rejects, forcing the generic
		// encoder (and generic decode) without changing the payload length
		// class.
		"mixed": mk(257, func(i int64, r *Record) {
			r.Addr = 100 * i
			if i == 128 {
				r.Addr = 100*i - 99 // one small delta mid-run
			}
			r.Value = i * i * 31
			r.MemAddr = i << uint(i%5)
			r.Seq = i
		}),
		// Large magnitudes: multi-byte varints throughout.
		"wide": mk(100, func(i int64, r *Record) {
			r.Addr = i * (1 << 40)
			r.Value = (i - 50) * (1 << 50)
			r.MemAddr = i * (1 << 33)
			r.Seq = i
		}),
	}
}

// TestColumnSinkMatchesScalarDelivery checks the ColumnSink adapter: a scalar
// record stream pushed through a sink must deliver the same records (as
// batches) that direct per-record consumption observes, including the
// partial-tail flush.
func TestColumnSinkMatchesScalarDelivery(t *testing.T) {
	const n = recorderChunkSize + 99
	var want capture
	var got batchCapture
	sink := NewColumnSink(&got)
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		r.Seq = i
		want.Consume(&r)
		sink.Consume(&r)
	}
	sink.FlushTail()
	sink.Close()
	if !reflect.DeepEqual(want.recs, got.recs) {
		t.Fatal("ColumnSink delivery differs from direct scalar consumption")
	}
}

// writeFile fills a fresh Writer through fill and returns the file bytes.
func writeFile(t *testing.T, fill func(tw *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fill(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriterProducerPathsMatch drives the trace-file Writer through its three
// producer paths — scalar Consume, batch ConsumeBatch (replay), and fused
// column staging (live VM) — and requires byte-identical files.
func TestWriterProducerPathsMatch(t *testing.T) {
	const n = 2*fileChunkSize + 333
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = synthRecord(int64(i))
	}
	rc := NewRecorder()
	for i := range recs {
		rc.Consume(&recs[i])
	}
	rc.Seal()
	defer rc.Close()

	scalar := writeFile(t, func(tw *Writer) {
		for i := range recs {
			tw.Consume(&recs[i])
		}
	})
	batch := writeFile(t, func(tw *Writer) { rc.Replay(tw) })
	if !bytes.Equal(scalar, batch) {
		t.Error("batch-replay file differs from scalar-consume file")
	}
	fused := writeFile(t, func(tw *Writer) {
		st := tw.ColumnStage()
		for i := range recs {
			if st.N == st.Cap() {
				st = tw.FlushColumns()
			}
			st.appendRecord(&recs[i])
		}
		tw.FlushTail()
	})
	if !bytes.Equal(scalar, fused) {
		t.Error("fused column-staged file differs from scalar-consume file")
	}
}

// FuzzColumnEncodeRoundTrip drives arbitrary integer columns through the
// speculative uniform-width encode path (appendDeltaCol/appendRawCol) and the
// column cursor decoder, checking the round trip is the identity and
// the encoding matches the canonical per-value varint byte for byte (or is
// zero-width when every value is zero).
func FuzzColumnEncodeRoundTrip(f *testing.F) {
	f.Add(int64(0), uint16(1), int64(1), false)
	f.Add(int64(5), uint16(300), int64(100), true)
	f.Add(int64(-3), uint16(2000), int64(1<<40), true)
	f.Fuzz(func(t *testing.T, seed int64, count uint16, scale int64, delta bool) {
		n := int(count%4096) + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, n)
		if scale == 0 {
			scale = 1
		}
		for i := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[i] = rng.Int63n(64) - 32 // one-byte zigzag territory
			case 1:
				v := 64 + rng.Int63n(8128) // two-byte zigzag territory
				if rng.Intn(2) == 0 {
					v = -v
				}
				vals[i] = v
			default:
				vals[i] = rng.Int63()%scale - rng.Int63()%scale
			}
		}
		// Reference: scalar canonical zigzag varints with the same
		// delta/raw transform the column encoder applies.
		var ref []byte
		var prev int64
		for _, v := range vals {
			z := v
			if delta {
				z = v - prev
				prev = v
			}
			ref = appendZigzag(ref, z)
		}
		if bytes.Count(ref, []byte{0}) == n {
			ref = nil // every value zero: the zero-width column
		}

		var enc chunkEncoder
		zz := make([]uint64, n)
		var got []byte
		if delta {
			got = enc.appendDeltaCol(nil, vals, zz)
		} else {
			got = enc.appendRawCol(nil, vals, zz)
		}
		// The column is emitted length-prefixed; strip the prefix to compare
		// against the bare reference bytes.
		l64, hdr := uvarint(t, got)
		body := got[hdr:]
		if int(l64) != len(body) {
			t.Fatalf("column length prefix %d, body %d bytes", l64, len(body))
		}
		if !bytes.Equal(body, ref) {
			t.Fatalf("speculative column encode differs from scalar varint reference")
		}

		out := make([]int64, n)
		cur := newColCursor(body, len(vals), delta, true)
		if err := cur.decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if cur.trailing() != 0 {
			t.Fatalf("%d bytes left over after the column", cur.trailing())
		}
		if !reflect.DeepEqual(out, vals) {
			t.Fatal("column round trip differs")
		}
	})
}

// uvarint decodes one uvarint prefix or fails the test.
func uvarint(t *testing.T, b []byte) (uint64, int) {
	t.Helper()
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	t.Fatal("truncated uvarint")
	return 0, 0
}
