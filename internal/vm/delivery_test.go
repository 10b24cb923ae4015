package vm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/trace"
)

// faultAfterChunk retires 2 + 3*6000 + 3 = 18005 instructions — more than
// one 16,384-record stage — and then divides by zero.
const faultAfterChunk = `
main:
	ldi r1, 0
	ldi r2, 6000
loop:
	addi r1, r1, 1
	st r1, 100(zero)
	blt r1, r2, loop
	itof f1, r1
	ld r5, 100(zero)
	ldi r3, 0
	div r4, r1, r3
	halt`

// TestFanOutDeliversEveryRetiredRecord runs a program that spans more than
// one stage flush and then faults, with a batch consumer, a per-record
// consumer and a trace file writer attached. Each must receive exactly the
// retired instructions, in stream order, with identical fields, and the
// consumers must be served each chunk in attach order. The same program fed
// to a lone Recorder (which the dispatch loop appends into directly) must
// record the same stream.
func TestFanOutDeliversEveryRetiredRecord(t *testing.T) {
	p, err := asm.Assemble("fault", faultAfterChunk)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{MemWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var cnt trace.Counter
	var file bytes.Buffer
	tw, err := trace.NewWriter(&file)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	m.Attach(&cnt)
	m.Attach(trace.ConsumerFunc(func(r *trace.Record) {
		// Attach order: the counter was served this chunk already, the
		// writer not yet.
		if cnt.Records <= r.Seq {
			t.Fatalf("record %d delivered before the counter saw it", r.Seq)
		}
		if tw.Count() > r.Seq {
			t.Fatalf("record %d delivered after the writer saw it", r.Seq)
		}
		recs = append(recs, *r)
	}))
	m.Attach(tw)
	if err := m.Run(); !errors.Is(err, ErrDivZero) {
		t.Fatalf("err = %v, want ErrDivZero", err)
	}
	n := m.InstructionsRetired()
	if n != 18005 {
		t.Fatalf("retired %d instructions, want 18005", n)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	if cnt.Records != n || int64(len(recs)) != n || tw.Count() != n {
		t.Fatalf("delivered counter=%d records=%d writer=%d, want %d each", cnt.Records, len(recs), tw.Count(), n)
	}
	var values int64
	for i := range recs {
		if recs[i].Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, recs[i].Seq)
		}
		if recs[i].HasDest {
			values++
		}
	}
	if cnt.ValueProds != values {
		t.Fatalf("counter saw %d value producers, records carry %d", cnt.ValueProds, values)
	}
	r, err := trace.NewReader(&file)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, "trace file", fromFile, recs)

	m2, err := New(p, Config{MemWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m2.Attach(rec)
	if err := m2.Run(); !errors.Is(err, ErrDivZero) {
		t.Fatalf("recording run: err = %v, want ErrDivZero", err)
	}
	rec.Seal()
	var recorded []trace.Record
	rec.Replay(trace.ConsumerFunc(func(r *trace.Record) { recorded = append(recorded, *r) }))
	assertSameRecords(t, "lone recorder", recorded, recs)
}

func assertSameRecords(t *testing.T, name string, got, want []trace.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}
