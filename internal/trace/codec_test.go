package trace

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// synthStream builds n deterministic records starting at stream position
// first, with positional Seq.
func synthStream(first, n int64) []Record {
	recs := make([]Record, 0, n)
	for i := int64(0); i < n; i++ {
		r := synthRecord(first + i)
		r.Seq = first + i
		recs = append(recs, r)
	}
	return recs
}

// decodeRecords decodes an encoded chunk with the batch decoder and
// materializes it through Batch.Records: whole (decodeBatch), or in
// batchBlock-record sub-batches (streamBatch) when stream is set.
func decodeRecords(data []byte, firstSeq int64, withSeq, strict, stream bool) ([]Record, error) {
	return decodeRecordsAs(FormatV3, data, firstSeq, withSeq, strict, stream)
}

// decodeRecordsAs is decodeRecords for a chunk laid out as format.
func decodeRecordsAs(format Format, data []byte, firstSeq int64, withSeq, strict, stream bool) ([]Record, error) {
	var d chunkDecoder
	if err := d.init(data, firstSeq, format, withSeq, strict); err != nil {
		return nil, err
	}
	var b Batch
	if !stream {
		if err := d.decodeBatch(&b); err != nil {
			return nil, err
		}
		return b.Records(make([]Record, b.N)), nil
	}
	out := make([]Record, 0, d.n)
	if err := d.streamBatch(&b, func(b *Batch) {
		out = append(out, b.Records(make([]Record, b.N))...)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func TestCodecRoundTrip(t *testing.T) {
	// Streams shaped to drive each speculative column-width emitter.
	for name, recs := range widthStreams() {
		for _, withSeq := range []bool{true, false} {
			var enc chunkEncoder
			data := encodeRecords(&enc, nil, recs, 0, withSeq)
			out, err := decodeRecords(data, 0, withSeq, false, false)
			if err != nil {
				t.Fatalf("%s withSeq=%v: decode: %v", name, withSeq, err)
			}
			if !reflect.DeepEqual(out, recs) {
				t.Fatalf("%s withSeq=%v: round trip differs", name, withSeq)
			}
		}
	}
	for _, n := range []int64{1, 2, 7, 255, 256, 1000, recorderChunkSize} {
		for _, withSeq := range []bool{true, false} {
			recs := synthStream(1234, n)
			var enc chunkEncoder
			data := encodeRecords(&enc, nil, recs, 1234, withSeq)
			for _, stream := range []bool{false, true} {
				out, err := decodeRecords(data, 1234, withSeq, true, stream)
				if err != nil {
					t.Fatalf("n=%d withSeq=%v stream=%v: decode: %v", n, withSeq, stream, err)
				}
				if !reflect.DeepEqual(out, recs) {
					t.Fatalf("n=%d withSeq=%v stream=%v: round trip differs", n, withSeq, stream)
				}
			}
		}
	}
}

// TestCodecRoundTripExtremes drives the varint columns through their widest
// encodings: 64-bit extremes, sign flips between neighbors, negative phases,
// and non-positional Seq (which only the withSeq form must preserve).
func TestCodecRoundTripExtremes(t *testing.T) {
	recs := []Record{
		{Addr: math.MaxInt64, Op: isa.OpADD, Value: math.MinInt64, MemAddr: math.MaxInt64, HasMem: true, Phase: math.MaxInt32, Seq: 900},
		{Addr: math.MinInt64, Op: isa.OpSUB, Value: math.MaxInt64, MemAddr: math.MinInt64, HasMem: true, Phase: math.MinInt32, Seq: -5},
		{Addr: 0, Op: isa.OpBEQ, Dir: isa.DirLastValue, Taken: true, Value: -1, Phase: -3, Seq: 1 << 60},
		{Addr: 1 << 62, Op: isa.OpLD, HasDest: true, Dest: 63, Value: 1, MemAddr: -1, HasMem: true, Seq: 3},
	}
	var enc chunkEncoder
	data := encodeRecords(&enc, nil, recs, 0, true)
	out, err := decodeRecords(data, 0, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, recs) {
		t.Fatalf("extreme round trip differs:\nwant %+v\ngot  %+v", recs, out)
	}
}

// TestCodecEncoderReuse checks the shared scratch encoder produces
// self-contained chunks: encoding chunk B after chunk A must not leak A's
// delta state or scratch bytes into B.
func TestCodecEncoderReuse(t *testing.T) {
	var enc chunkEncoder
	a := synthStream(0, 100)
	b := synthStream(100, 50)
	dataA := encodeRecords(&enc, nil, a, 0, true)
	dataB := encodeRecords(&enc, nil, b, 100, true)
	fresh := encodeRecords(&chunkEncoder{}, nil, b, 100, true)
	if string(dataB) != string(fresh) {
		t.Fatal("reused encoder produced different bytes than a fresh one")
	}
	out, err := decodeRecords(dataA, 0, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, a) {
		t.Fatal("chunk A corrupted by encoder reuse")
	}
}

// TestCodecRejectsTruncation decodes every proper prefix of an encoded
// chunk; all must fail with an error, never panic or read out of range.
func TestCodecRejectsTruncation(t *testing.T) {
	recs := synthStream(0, 300)
	var enc chunkEncoder
	data := encodeRecords(&enc, nil, recs, 0, true)
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeRecords(data[:cut], 0, true, true, false); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
	}
	// The full chunk still decodes, so the loop above exercised real data.
	if out, err := decodeRecords(data, 0, true, true, false); err != nil || len(out) != len(recs) {
		t.Fatalf("full decode: n=%d err=%v", len(out), err)
	}
}

// TestCodecRejectsTrailingBytes: bytes past the chunk payload, and a varint
// column holding more varints than the chunk has records, are errors for
// both the whole-chunk and the sub-batch decode.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	var enc chunkEncoder
	trailing := append(encodeRecords(&enc, nil, synthStream(0, 10), 0, false), 0x00)

	// A 4-record chunk whose addr column (one byte per varint) carries a
	// fifth varint, with its length prefix bumped to match.
	base := encodeRecords(&enc, nil, synthStream(0, 4), 0, false)
	const addrLen = 1 + 5*4 // count byte, then op/flags/dest (4 bytes each) and reads (8)
	if base[addrLen] != 4 {
		t.Fatalf("addr column length = %d, want 4", base[addrLen])
	}
	extra := append([]byte(nil), base[:addrLen]...)
	extra = append(extra, 5)
	extra = append(extra, base[addrLen+1:addrLen+5]...)
	extra = append(extra, 0x00)
	extra = append(extra, base[addrLen+5:]...)
	for name, data := range map[string][]byte{"trailing byte": trailing, "extra addr varint": extra} {
		for _, stream := range []bool{false, true} {
			if _, err := decodeRecords(data, 0, false, true, stream); err == nil {
				t.Errorf("%s accepted (stream=%v)", name, stream)
			}
		}
	}
}

func TestCodecStrictRejectsInvalidOpDir(t *testing.T) {
	recs := synthStream(0, 4)
	var enc chunkEncoder
	base := encodeRecords(&enc, nil, recs, 0, false)

	badOp := append([]byte(nil), base...)
	badOp[2] = 0xee // second op byte (byte 0 is the count uvarint)
	_, err := decodeRecords(badOp, 0, false, true, false)
	if err == nil || err.Error() != "trace: invalid opcode 238 in record 1" {
		t.Fatalf("strict decode of an invalid opcode: err = %v", err)
	}
	if _, err := decodeRecords(badOp, 0, false, false, false); err != nil {
		t.Fatalf("lenient decode rejected in-memory chunk: %v", err)
	}

	badDir := append([]byte(nil), base...)
	badDir[1+4+1] = 0x30 // flags byte of record 1: Dir=3, invalid
	_, err = decodeRecords(badDir, 0, false, true, false)
	if err == nil || err.Error() != "trace: invalid directive 3 in record 1" {
		t.Fatalf("strict decode of an invalid directive: err = %v", err)
	}
}

func TestCodecBytesPerRecord(t *testing.T) {
	recs := synthStream(0, recorderChunkSize)
	var enc chunkEncoder
	data := encodeRecords(&enc, nil, recs, 0, true)
	bpr := float64(len(data)) / float64(len(recs))
	t.Logf("synthetic stream: %.2f encoded bytes/record (in-memory Record is %d)", bpr, recordMemBytes)
	// The ≥3x in-memory reduction the benchmarks gate on needs ≤18.6 B/rec.
	if bpr > float64(recordMemBytes)/3 {
		t.Errorf("encoded bytes/record = %.2f, want ≤ %.2f (3x under the %d-byte struct)",
			bpr, float64(recordMemBytes)/3, recordMemBytes)
	}
}
