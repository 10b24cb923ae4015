package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"
)

// The format fixtures hold the first fixtureLen records of hydro2d's
// evaluation run, fixtureV1 in the VPTRC01 encoding, fixtureV2 in VPTRC02
// and fixtureV3 in VPTRC03, each written by a real writer for that format.
const (
	fixtureV1  = "testdata/hydro2d-400.vptrc01"
	fixtureV2  = "testdata/hydro2d-400.vptrc02"
	fixtureV3  = "testdata/hydro2d-400.vptrc03"
	fixtureLen = 400
)

// readFixture returns a private copy of a testdata file.
func readFixture(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureRecords reads every record of a fixture trace file.
func fixtureRecords(t *testing.T, path string) []Record {
	t.Helper()
	r, err := NewReader(bytes.NewReader(readFixture(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(recs) != fixtureLen {
		t.Fatalf("%s: %d records, want %d", path, len(recs), fixtureLen)
	}
	return recs
}

// encodeFile writes recs through a Writer and returns the file bytes.
func encodeFile(t *testing.T, recs []Record) []byte {
	t.Helper()
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
	return buf.Bytes()
}

// TestFileV2MultiFrame crosses the per-frame record limit so the stream
// holds several frames plus a partial tail frame, and checks positional Seq
// keeps counting across frame boundaries.
func TestFileV2MultiFrame(t *testing.T) {
	const n = fileChunkSize*2 + 100
	recs := synthStream(0, n)
	data := encodeFile(t, recs)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d differs:\nwant %+v\ngot  %+v", i, recs[i], got[i])
		}
	}
	t.Logf("v2: %.2f bytes/record over %d records", float64(len(data))/float64(n), n)
}

// TestFileV2TruncationAtEveryOffset cuts a two-frame trace at every byte
// offset. Every prefix must either read a whole number of leading frames and
// then fail with a non-EOF error, or — when the cut lands exactly on a frame
// boundary — end with a clean io.EOF after the complete frames.
func TestFileV2TruncationAtEveryOffset(t *testing.T) {
	recs := synthStream(0, 700)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		w.Consume(&recs[i])
	}
	if err := w.Flush(); err != nil { // force a frame boundary at 400 records
		t.Fatal(err)
	}
	for i := 400; i < len(recs); i++ {
		w.Consume(&recs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Locate the frame boundaries: magic end, end of frame 1, end of file.
	boundaries := map[int]int{8: 0} // offset -> records readable to that point
	off := 8
	for off < len(full) {
		size := int(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
		off += 8 + size
		n := 400
		if off == len(full) {
			n = len(recs)
		}
		boundaries[off] = n
	}

	for cut := 0; cut <= len(full); cut++ {
		prefix := full[:cut]
		r, err := NewReader(bytes.NewReader(prefix))
		if err != nil {
			if cut >= 8 {
				t.Fatalf("cut %d: NewReader: %v", cut, err)
			}
			continue // magic itself truncated: rejected up front, as it must be
		}
		read := 0
		var rec Record
		for {
			err = r.Next(&rec)
			if err != nil {
				break
			}
			if rec != recs[read] {
				t.Fatalf("cut %d: record %d differs", cut, read)
			}
			read++
		}
		if wantRecs, clean := boundaries[cut]; clean {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("cut %d (frame boundary): err = %v, want io.EOF", cut, err)
			}
			if read != wantRecs {
				t.Fatalf("cut %d: read %d records, want %d", cut, read, wantRecs)
			}
		} else {
			if errors.Is(err, io.EOF) || err == nil {
				t.Fatalf("cut %d (mid-frame): err = %v, want truncation/corruption error", cut, err)
			}
			// A mid-frame cut must never hand out records from the cut frame.
			if read != 0 && read != 400 {
				t.Fatalf("cut %d: read %d records from a truncated frame", cut, read)
			}
		}
	}
}

// flakyWriter accepts bytes until failAfter, then fails with a partial
// write — the shape of a real disk-full failure.
type flakyWriter struct {
	accepted  int
	failAfter int
}

var errDiskFull = errors.New("disk full")

func (fw *flakyWriter) Write(p []byte) (int, error) {
	room := fw.failAfter - fw.accepted
	if room >= len(p) {
		fw.accepted += len(p)
		return len(p), nil
	}
	if room < 0 {
		room = 0
	}
	fw.accepted += room
	return room, errDiskFull
}

// TestWriterSurfacesWriteError is the error-handling regression test: a
// failing io.Writer must surface the first error from Flush/Close with the
// failing record index and byte offset, and count the records dropped after
// the failure instead of losing them silently.
func TestWriterSurfacesWriteError(t *testing.T) {
	t.Run(FormatV2.String(), func(t *testing.T) {
		fw := &flakyWriter{failAfter: 200}
		w, err := NewWriter(fw)
		if err != nil {
			t.Fatal(err)
		}
		recs := synthStream(0, fileChunkSize+50)
		for i := range recs {
			w.Consume(&recs[i])
			if i%64 == 0 {
				w.Flush() // push frames at the failing writer mid-stream
			}
		}
		err = w.Close()
		if err == nil {
			t.Fatal("Close returned nil after write failures")
		}
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("Close error %v does not wrap the writer's error", err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "record") || !strings.Contains(msg, "byte offset") {
			t.Errorf("error lacks record/offset diagnostics: %v", err)
		}
		if w.Dropped() == 0 {
			t.Error("Dropped = 0, want records counted after the first failure")
		}
		if !strings.Contains(msg, fmt.Sprintf("%d records dropped", w.Dropped())) {
			t.Errorf("error does not report the dropped count: %v", err)
		}
		// The error is sticky: Flush keeps returning it.
		if err2 := w.Flush(); err2 == nil || !errors.Is(err2, errDiskFull) {
			t.Errorf("Flush after failure = %v, want the sticky error", err2)
		}
	})
}

// TestWriterErrorOffsetPointsAtFailure pins the reported record and byte
// offset to the writer's logical position when the failure struck: frames
// are written whole, so a writer that accepts the magic and the first frame
// fails at the first record of the second frame, at the byte after frame 1.
func TestWriterErrorOffsetPointsAtFailure(t *testing.T) {
	recs := synthStream(0, fileChunkSize+5)
	frame1 := len(encodeFile(t, recs[:fileChunkSize]))
	fw := &flakyWriter{failAfter: frame1}
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		w.Consume(&recs[i])
	}
	err = w.Close()
	if err == nil {
		t.Fatal("Close returned nil")
	}
	want := fmt.Sprintf("record %d (byte offset %d)", fileChunkSize, frame1)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("Count = %d, want %d accepted records", w.Count(), len(recs))
	}
	// The second frame's records were accepted but never became durable.
	if w.Dropped() != 5 {
		t.Errorf("Dropped = %d, want 5", w.Dropped())
	}
}

// TestFileFormatsCarryIdenticalStreams reads one stream from its VPTRC01,
// VPTRC02 and VPTRC03 fixtures: every reader must reproduce it record for
// record, and re-encoding it today must give the VPTRC03 fixture byte for
// byte.
func TestFileFormatsCarryIdenticalStreams(t *testing.T) {
	for path, want := range map[string]Format{fixtureV1: FormatV1, fixtureV2: FormatV2, fixtureV3: FormatV3} {
		r, err := NewReader(bytes.NewReader(readFixture(t, path)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Format() != want {
			t.Errorf("%s: Format = %v, want %v", path, r.Format(), want)
		}
	}
	v1, v2, v3 := fixtureRecords(t, fixtureV1), fixtureRecords(t, fixtureV2), fixtureRecords(t, fixtureV3)
	for i := range v1 {
		if v1[i] != v2[i] || v1[i] != v3[i] {
			t.Fatalf("record %d: v1 %+v, v2 %+v, v3 %+v", i, v1[i], v2[i], v3[i])
		}
	}
	if !bytes.Equal(encodeFile(t, v1), readFixture(t, fixtureV3)) {
		t.Error("re-encoding the fixture stream differs from the VPTRC03 fixture")
	}
}

// frameFile assembles a trace file from a magic and frame payloads, each
// framed with its length and a valid CRC, so the chunk decoder sees them.
func frameFile(magic [8]byte, payloads ...[]byte) []byte {
	out := append([]byte(nil), magic[:]...)
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
		out = append(out, p...)
	}
	return out
}

// firstPayload returns the payload of a trace file's first frame.
func firstPayload(file []byte) []byte {
	size := binary.LittleEndian.Uint32(file[8:])
	return file[16 : 16+size]
}

// spliceCol returns a copy of an encoded chunk with varint column col's
// body replaced by edit(body) and its length prefix rewritten to match.
func spliceCol(chunk []byte, col int, edit func(body []byte) []byte) []byte {
	n, off := binary.Uvarint(chunk)
	off += 5 * int(n)
	for c := 0; ; c++ {
		l, ln := binary.Uvarint(chunk[off:])
		if c < col {
			off += ln + int(l)
			continue
		}
		body := edit(bytes.Clone(chunk[off+ln : off+ln+int(l)]))
		out := binary.AppendUvarint(bytes.Clone(chunk[:off]), uint64(len(body)))
		out = append(out, body...)
		return append(out, chunk[off+ln+int(l):]...)
	}
}

// TestReaderRejectsMalformedChunks: structurally wrong chunks inside frames
// whose lengths and CRCs are valid return ErrCorrupt, never a panic — a v3
// mem column holding more or fewer varints than its HasMem records, a
// zero-width column in a v2 frame, and a v3 frame cut at every offset.
func TestReaderRejectsMalformedChunks(t *testing.T) {
	const memCol, phaseCol = 2, 3
	v3 := firstPayload(readFixture(t, fixtureV3))
	v2 := firstPayload(readFixture(t, fixtureV2))
	cases := []struct {
		name string
		file []byte
	}{
		{"v3 mem column one varint short", frameFile(fileMagicV3, spliceCol(v3, memCol, func(b []byte) []byte {
			return b[:len(b)-1] // the fixture's last mem delta is one byte
		}))},
		{"v3 mem column one varint long", frameFile(fileMagicV3, spliceCol(v3, memCol, func(b []byte) []byte {
			return append(b, 0x02)
		}))},
		{"v2 zero-width phase column", frameFile(fileMagicV2, spliceCol(v2, phaseCol, func([]byte) []byte { return nil }))},
	}
	for cut := 0; cut < len(v3); cut++ {
		cases = append(cases, struct {
			name string
			file []byte
		}{fmt.Sprintf("v3 frame cut at %d", cut), frameFile(fileMagicV3, v3[:cut])})
	}
	for _, tc := range cases {
		r, err := NewReader(bytes.NewReader(tc.file))
		if err != nil {
			t.Fatalf("%s: NewReader: %v", tc.name, err)
		}
		if _, err := r.ReadAll(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
	// The unedited frames still read, so the cases above edited real data.
	for _, file := range [][]byte{frameFile(fileMagicV3, v3), frameFile(fileMagicV2, v2)} {
		r, _ := NewReader(bytes.NewReader(file))
		if recs, err := r.ReadAll(); err != nil || len(recs) != fixtureLen {
			t.Fatalf("unedited frame: %d records, err %v", len(recs), err)
		}
	}
}
