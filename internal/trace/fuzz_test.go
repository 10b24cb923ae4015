package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
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
		for _, withSeq := range []bool{true, false} {
			data := encodeRecords(&enc, nil, recs, 0, withSeq)
			out, err := decodeRecords(data, 0, withSeq, true, false)
			if err != nil {
				t.Fatalf("withSeq=%v: decode: %v", withSeq, err)
			}
			if int64(len(out)) != n {
				t.Fatalf("withSeq=%v: decoded %d records, want %d", withSeq, len(out), n)
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

// FuzzChunkDecoder throws arbitrary bytes at the strict chunk decoder, in
// both the VPTRC03 and the dense VPTRC02 layout; it must return an error or
// decode cleanly, never panic or read out of range. The whole-chunk and the
// sub-batch decode must agree on whether the input is an error and, if not,
// on every record.
func FuzzChunkDecoder(f *testing.F) {
	recs := synthStream(0, 64)
	var enc chunkEncoder
	f.Add(encodeRecords(&enc, nil, recs, 0, true))
	f.Add(encodeRecords(&enc, nil, recs, 0, false))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(encodeRecords(&enc, nil, synthStream(0, 3*batchBlock+5), 0, true))
	for _, path := range []string{fixtureV3, fixtureV2} {
		file, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(firstPayload(file))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{FormatV3, FormatV2} {
			for _, withSeq := range []bool{true, false} {
				out, err := decodeRecordsAs(format, data, 0, withSeq, true, false)
				streamed, serr := decodeRecordsAs(format, data, 0, withSeq, true, true)
				if (err == nil) != (serr == nil) {
					t.Fatalf("%v withSeq=%v: whole-chunk err = %v, sub-batch err = %v", format, withSeq, err, serr)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(out, streamed) {
					t.Fatalf("%v withSeq=%v: sub-batch decode differs from whole-chunk decode", format, withSeq)
				}
				// Whatever decoded must re-encode to a decodable chunk.
				var e chunkEncoder
				re := encodeRecords(&e, nil, out, 0, withSeq)
				if _, err := decodeRecords(re, 0, withSeq, true, false); err != nil {
					t.Fatalf("%v withSeq=%v: re-encode of decoded chunk failed: %v", format, withSeq, err)
				}
			}
		}
	})
}

// FuzzReader feeds arbitrary bytes (seeded with real VPTRC02 and VPTRC03
// traces) to the file reader; it must terminate with io.EOF or an error,
// never panic, and never hand out more records than a frame can hold.
func FuzzReader(f *testing.F) {
	recs := synthStream(0, 600)
	f.Add(encodeFuzzSeed(recs))
	f.Add(encodeFuzzSeed(recs[:1]))
	f.Add([]byte("VPTRC02\n"))
	f.Add([]byte("VPTRC02\n\x04\x00\x00\x00\x00\x00\x00\x00AAAA"))
	f.Add([]byte("VPTRC03\n\x04\x00\x00\x00\x00\x00\x00\x00AAAA"))
	for _, path := range []string{fixtureV2, fixtureV3} {
		file, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
	}
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
			if r.Format() == FormatV3 && !rec.HasMem && rec.MemAddr != 0 {
				t.Fatalf("record %d: MemAddr %d without HasMem", i, rec.MemAddr)
			}
		}
	})
}

func encodeFuzzSeed(recs []Record) []byte {
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
