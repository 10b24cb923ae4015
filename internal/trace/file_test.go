package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// The format fixtures hold the first fixtureLen records of hydro2d's
// evaluation run, fixtureV1 in the VPTRC01 encoding and fixtureV2 in
// VPTRC02, each written by a real writer for that format.
const (
	fixtureV1  = "testdata/hydro2d-400.vptrc01"
	fixtureV2  = "testdata/hydro2d-400.vptrc02"
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

// encodeV2 writes recs through a Writer and returns the file bytes.
func encodeV2(t *testing.T, recs []Record) []byte {
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
	data := encodeV2(t, recs)

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
	frame1 := len(encodeV2(t, recs[:fileChunkSize]))
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

// TestFileFormatsCarryIdenticalStreams reads one stream from its VPTRC01
// and VPTRC02 fixtures: both readers must reproduce it record for record,
// and re-encoding it today must give the VPTRC02 fixture byte for byte.
func TestFileFormatsCarryIdenticalStreams(t *testing.T) {
	for path, want := range map[string]Format{fixtureV1: FormatV1, fixtureV2: FormatV2} {
		r, err := NewReader(bytes.NewReader(readFixture(t, path)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Format() != want {
			t.Errorf("%s: Format = %v, want %v", path, r.Format(), want)
		}
	}
	v1, v2 := fixtureRecords(t, fixtureV1), fixtureRecords(t, fixtureV2)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("record %d: v1 %+v, v2 %+v", i, v1[i], v2[i])
		}
	}
	if !bytes.Equal(encodeV2(t, v1), readFixture(t, fixtureV2)) {
		t.Error("re-encoding the fixture stream differs from the VPTRC02 fixture")
	}
}
