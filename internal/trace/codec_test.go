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

func TestCodecRoundTrip(t *testing.T) {
	// Streams shaped to drive each speculative column-width emitter.
	for name, recs := range widthStreams() {
		for _, withSeq := range []bool{true, false} {
			var enc chunkEncoder
			data := encodeRecords(&enc, nil, recs, 0, withSeq)
			out := make([]Record, len(recs))
			if _, err := decodeChunk(out, data, 0, withSeq, false); err != nil {
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
			out := make([]Record, n)
			got, err := decodeChunk(out, data, 1234, withSeq, true)
			if err != nil {
				t.Fatalf("n=%d withSeq=%v: decode: %v", n, withSeq, err)
			}
			if int64(got) != n {
				t.Fatalf("n=%d withSeq=%v: decoded %d records", n, withSeq, got)
			}
			if !reflect.DeepEqual(out, recs) {
				t.Fatalf("n=%d withSeq=%v: round trip differs", n, withSeq)
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
		{Addr: math.MinInt64, Op: isa.OpSUB, Value: math.MaxInt64, MemAddr: math.MinInt64, Phase: math.MinInt32, Seq: -5},
		{Addr: 0, Op: isa.OpBEQ, Dir: isa.DirLastValue, Taken: true, Value: -1, Phase: -3, Seq: 1 << 60},
		{Addr: 1 << 62, Op: isa.OpLD, HasDest: true, Dest: 63, Value: 1, MemAddr: -1, HasMem: true, Seq: 3},
	}
	var enc chunkEncoder
	data := encodeRecords(&enc, nil, recs, 0, true)
	out := make([]Record, len(recs))
	if _, err := decodeChunk(out, data, 0, true, false); err != nil {
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
	out := make([]Record, 100)
	if _, err := decodeChunk(out[:100], dataA, 0, true, false); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[:100], a) {
		t.Fatal("chunk A corrupted by encoder reuse")
	}
}

// TestCodecRejectsTruncation decodes every proper prefix of an encoded
// chunk; all must fail with an error, never panic or read out of range.
func TestCodecRejectsTruncation(t *testing.T) {
	recs := synthStream(0, 300)
	var enc chunkEncoder
	data := encodeRecords(&enc, nil, recs, 0, true)
	out := make([]Record, len(recs)+1)
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeChunk(out, data[:cut], 0, true, true); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
	}
	// The full chunk still decodes, so the loop above exercised real data.
	if n, err := decodeChunk(out, data, 0, true, true); err != nil || n != len(recs) {
		t.Fatalf("full decode: n=%d err=%v", n, err)
	}
}

func TestCodecRejectsTrailingBytes(t *testing.T) {
	recs := synthStream(0, 10)
	var enc chunkEncoder
	data := encodeRecords(&enc, nil, recs, 0, false)
	data = append(data, 0x00)
	out := make([]Record, 10)
	if _, err := decodeChunk(out, data, 0, false, true); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestCodecStrictRejectsInvalidOpDir(t *testing.T) {
	recs := synthStream(0, 4)
	var enc chunkEncoder
	base := encodeRecords(&enc, nil, recs, 0, false)

	badOp := append([]byte(nil), base...)
	badOp[2] = 0xee // second op byte (byte 0 is the count uvarint)
	out := make([]Record, 4)
	if _, err := decodeChunk(out, badOp, 0, false, true); err == nil {
		t.Fatal("strict decode accepted an invalid opcode")
	}
	if _, err := decodeChunk(out, badOp, 0, false, false); err != nil {
		t.Fatalf("lenient decode rejected in-memory chunk: %v", err)
	}

	badDir := append([]byte(nil), base...)
	badDir[1+4+1] = 0x30 // flags byte of record 1: Dir=3, invalid
	if _, err := decodeChunk(out, badDir, 0, false, true); err == nil {
		t.Fatal("strict decode accepted an invalid directive")
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
