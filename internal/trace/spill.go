package trace

import (
	"fmt"
	"os"
)

// This file implements chunk-granular spill-to-disk for the Recorder.
// Encoded chunks past the resident-bytes budget are appended to an
// anonymous temp file and read back with positional reads during replay,
// so a trace larger than RAM replays at near-resident speed: the decode
// touches only the ~10 bytes/record encoded form, read back one chunk at a
// time into the walk's batch (walkPipe).

// spillFile is an append-only, positionally-read temp file. The file is
// unlinked immediately after creation, so it is reclaimed by the kernel
// when the descriptor closes (explicitly, at Recorder GC, or at process
// exit) and can never leak past the process. Reads use ReadAt and are safe
// from any number of concurrent replay passes.
type spillFile struct {
	f   *os.File
	off int64
}

// newSpillFile creates the anonymous spill file in the default temp
// directory (respecting TMPDIR).
func newSpillFile() (*spillFile, error) {
	f, err := os.CreateTemp("", "vptrc-spill-*")
	if err != nil {
		return nil, err
	}
	// Unlink while keeping the descriptor: the file has no name from here
	// on and vanishes with the last close.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return &spillFile{f: f}, nil
}

// write appends p and returns the offset it was written at.
func (s *spillFile) write(p []byte) (int64, error) {
	off := s.off
	if _, err := s.f.WriteAt(p, off); err != nil {
		return 0, err
	}
	s.off += int64(len(p))
	return off, nil
}

func (s *spillFile) close() error { return s.f.Close() }

// read fills buf (len c.size) with spilled chunk c's encoded bytes. A
// failed read means the spill file was lost or truncated under a sealed
// Recorder, which replay cannot recover from.
func (s *spillFile) read(c *rchunk, buf []byte) []byte {
	if _, err := s.f.ReadAt(buf, c.off); err != nil {
		panic(fmt.Sprintf("trace: read spilled chunk: %v", err))
	}
	return buf
}
