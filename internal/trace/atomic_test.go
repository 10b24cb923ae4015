package trace

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCreateFileRoundTrip: records stream through the atomic writer, the
// final file reads back identically, and no temp debris remains.
func TestCreateFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.vptrace")
	recs := synthStream(0, fileChunkSize+17)

	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		fw.Consume(&recs[i])
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch:\ngot  %+v\nwant %+v", i, got[i], recs[i])
		}
	}
	assertNoTmpFiles(t, dir)
}

// TestCreateFileAbortLeavesNothing: Abort (the crash-adjacent exit path)
// discards the temp file and never creates the destination.
func TestCreateFileAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.vptrace")
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := synthStream(0, 10)
	for i := range recs {
		fw.Consume(&recs[i])
	}
	fw.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("destination exists after Abort (err=%v)", err)
	}
	assertNoTmpFiles(t, dir)
}

// TestCreateFileNeverTornOnOverwrite: overwriting an existing trace is
// atomic — until Close succeeds, the old complete file is what a reader
// opens.
func TestCreateFileNeverTornOnOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.vptrace")

	write := func(n int64) {
		fw, err := CreateFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs := synthStream(0, n)
		for i := range recs {
			fw.Consume(&recs[i])
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(5)

	// Open a second writer and fill it, but do not Close: the published
	// file must still be the 5-record original.
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := synthStream(0, 100)
	for i := range recs {
		fw.Consume(&recs[i])
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	f.Close()
	if err != nil || len(got) != 5 {
		t.Fatalf("mid-write read: %d records, err=%v; want the intact 5-record original", len(got), err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoTmpFiles(t, dir)
}

func assertNoTmpFiles(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}
