// Package durable is the crash-safety layer under vpserve and vpcoord: a
// persistent, fingerprint-keyed artifact store for the in-memory LRU caches
// (recorded traces, profile images, annotations, results, programs) and a
// write-ahead journal for job state, both built from the same CRC-32C-framed
// record format the trace files use (DESIGN.md §13).
//
// The economics follow the paper: a profile image is expensive to collect
// and cheap to reuse, so a node restart should cost a warm-up, not a
// recompute of the working set. Everything here is therefore designed around
// the crash matrix rather than the happy path:
//
//   - artifact files are written to a temp file in the destination directory,
//     fsynced, renamed into place, and the directory is fsynced after the
//     rename — a crash leaves either the old state or the new state, never a
//     torn file, and never a name pointing at unflushed data.
//   - every payload is CRC-32C framed; a corrupt or truncated entry read back
//     after a crash (or a disk error) is quarantined — moved aside, counted,
//     and reported as a miss so the caller transparently recomputes — instead
//     of panicking or poisoning the cache.
//   - the journal is append-only with per-entry frames and fsync; on open,
//     a torn tail (the frame being appended when the power went) is salvaged
//     by truncating back to the last whole frame. After the first failed
//     append the journal wedges — it refuses further appends — because a
//     journal that silently lost an entry can no longer order recovery.
//   - orphan "*.tmp" files left by a crash between create and rename are
//     swept (and counted) when a store opens.
//
// Fault injection: the durable.write, durable.load, and durable.journal
// points bracket store writes, store/journal reads, and journal appends, so
// the chaos suites can simulate a full disk, a corrupt read, and a crash
// between two appends deterministically (package faults).
package durable

import (
	"errors"

	"repro/internal/faults"
)

// Fault-injection points for the durability layer.
const (
	// PointWrite fires before an artifact-store write (Put / atomic file
	// write). An injected error models a full or failing disk.
	PointWrite = "durable.write"
	// PointLoad fires before an artifact-store or journal read. An injected
	// error models an unreadable entry; callers treat it as a miss.
	PointLoad = "durable.load"
	// PointJournal fires before each journal append. An injected error
	// wedges the journal exactly as a mid-append crash would, which is how
	// the chaos suites simulate SIGKILL between two checkpoints.
	PointJournal = "durable.journal"
)

func init() {
	faults.Register(PointWrite, PointLoad, PointJournal)
}

// ErrCorrupt reports structurally invalid durable-record contents (bad
// magic, bad frame bounds, CRC mismatch).
var ErrCorrupt = errors.New("durable: corrupt record")

// ErrTruncated reports a durable file that ends mid-frame.
var ErrTruncated = errors.New("durable: truncated record")

// ErrWedged is returned by Journal.Append after a previous append failed:
// once an entry may have been lost, later entries must not be accepted or
// recovery would replay a journal with a hole in it.
var ErrWedged = errors.New("durable: journal wedged after failed append")
