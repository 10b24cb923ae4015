package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip derives a pseudo-random record stream from the fuzz
// input and checks encode→decode is the identity, with and without the seq
// column.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(42), uint16(300))
	f.Add(int64(-1), uint16(recorderChunkSize))
	f.Fuzz(func(t *testing.T, seed int64, count uint16) {
		n := int64(count%recorderChunkSize) + 1
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randomRecord(rng, int64(i))
			if rng.Intn(4) == 0 {
				recs[i].Seq = rng.Int63() - rng.Int63() // non-positional Seq
			}
		}
		var enc chunkEncoder
		out := make([]Record, n)
		for _, withSeq := range []bool{true, false} {
			data := encodeRecords(&enc, nil, recs, 0, withSeq)
			got, err := decodeChunk(out, data, 0, withSeq, true)
			if err != nil {
				t.Fatalf("withSeq=%v: decode: %v", withSeq, err)
			}
			if int64(got) != n {
				t.Fatalf("withSeq=%v: decoded %d records, want %d", withSeq, got, n)
			}
			want := recs
			if !withSeq {
				want = make([]Record, n)
				copy(want, recs)
				for i := range want {
					want[i].Seq = int64(i)
				}
			}
			if !reflect.DeepEqual(out, want) {
				t.Fatalf("withSeq=%v: round trip differs", withSeq)
			}
		}
	})
}

// FuzzChunkDecoder throws arbitrary bytes at the strict chunk decoder; it
// must return an error or decode cleanly, never panic or read out of range.
func FuzzChunkDecoder(f *testing.F) {
	recs := synthStream(0, 64)
	var enc chunkEncoder
	f.Add(encodeRecords(&enc, nil, recs, 0, true))
	f.Add(encodeRecords(&enc, nil, recs, 0, false))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	out := make([]Record, recorderChunkSize)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, withSeq := range []bool{true, false} {
			n, err := decodeChunk(out, data, 0, withSeq, true)
			if err == nil {
				// Whatever decoded must re-encode to a decodable chunk.
				var e chunkEncoder
				re := encodeRecords(&e, nil, out[:n], 0, withSeq)
				if _, err := decodeChunk(out[:n], re, 0, withSeq, true); err != nil {
					t.Fatalf("withSeq=%v: re-encode of decoded chunk failed: %v", withSeq, err)
				}
			}
		}
	})
}

// FuzzReaderV2 feeds arbitrary bytes (seeded with real traces) to the v2
// file reader; it must terminate with io.EOF or an error, never panic, and
// never hand out more records than a frame can hold.
func FuzzReaderV2(f *testing.F) {
	recs := synthStream(0, 600)
	f.Add(encodeV2FuzzSeed(recs))
	f.Add(encodeV2FuzzSeed(recs[:1]))
	f.Add([]byte("VPTRC02\n"))
	f.Add([]byte("VPTRC02\n\x04\x00\x00\x00\x00\x00\x00\x00AAAA"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var rec Record
		for i := 0; ; i++ {
			err := r.Next(&rec)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return
			}
			if !rec.Op.Valid() || !rec.Dir.Valid() {
				t.Fatalf("record %d: invalid Op/Dir passed strict decode: %+v", i, rec)
			}
			if rec.Seq != int64(i) {
				t.Fatalf("record %d: derived Seq = %d", i, rec.Seq)
			}
		}
	})
}

func encodeV2FuzzSeed(recs []Record) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		panic(err)
	}
	for i := range recs {
		w.Consume(&recs[i])
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzFileRoundTrip round-trips a derived record stream through the file
// format.
func FuzzFileRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(1))
	f.Add(int64(7), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, count uint16) {
		n := int(count%2000) + 1
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = randomRecord(rng, int64(i))
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			w.Consume(&recs[i])
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("read %d records, want %d", len(got), n)
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("record %d differs:\nwant %+v\ngot  %+v", i, recs[i], got[i])
			}
		}
	})
}
