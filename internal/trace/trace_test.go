package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func sampleRecords() []Record {
	return []Record{
		{Addr: 0, Op: isa.OpLDI, HasDest: true, Dest: 1, Value: 5, Seq: 0},
		{
			Addr: 1, Op: isa.OpADDI, Dir: isa.DirStride, HasDest: true, Dest: 1,
			Value: 6, Seq: 1, Reads: [2]RegRead{{Valid: true, Reg: 1}},
		},
		{
			Addr: 2, Op: isa.OpFLD, HasDest: true, DestFP: true, Dest: 3,
			Value: -42, Seq: 2, Phase: 1, HasMem: true, MemAddr: 77,
			Reads: [2]RegRead{{Valid: true, Reg: 2}},
		},
		{Addr: 3, Op: isa.OpBNE, Taken: true, Seq: 3, Reads: [2]RegRead{{Valid: true, Reg: 1}, {Valid: true, Reg: 0}}},
		{Addr: 4, Op: isa.OpFST, Seq: 4, HasMem: true, MemAddr: 1 << 40, Reads: [2]RegRead{{Valid: true, Reg: 5}, {Valid: true, FP: true, Reg: 6}}},
	}
}

func TestFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for i := range recs {
		w.Consume(&recs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// TestFileRoundTripQuick pushes arbitrary well-formed records through the
// codec.
func TestFileRoundTripQuick(t *testing.T) {
	f := func(addr, seq, value, memAddr int64, opRaw, dir, dest, flags uint8, phase uint16, reads [2]uint8) bool {
		rec := Record{
			Addr:  addr,
			Seq:   seq,
			Value: value,
			Op:    isa.Opcode(opRaw%uint8(isa.NumOpcodes()-1) + 1),
			Dir:   isa.Directive(dir % 3),
			Phase: int(phase),
			Dest:  isa.Reg(dest % isa.NumIntRegs),
		}
		rec.HasDest = flags&1 != 0
		rec.DestFP = flags&2 != 0
		rec.Taken = flags&4 != 0
		if flags&8 != 0 {
			rec.HasMem = true
			rec.MemAddr = memAddr
		}
		for i, b := range reads {
			if b&0x80 != 0 {
				rec.Reads[i] = RegRead{Valid: true, FP: b&0x40 != 0, Reg: isa.Reg(b & 0x1f)}
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		w.Consume(&rec)
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var got Record
		if err := r.Next(&got); err != nil {
			return false
		}
		// The framed formats do not store Seq; the reader derives it from
		// record position, so the single record here reads back as Seq 0.
		want := rec
		want.Seq = 0
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestFileV1RoundTripArbitrarySeq is the VPTRC01 compatibility regression
// test: the legacy format stores Seq on disk verbatim, so arbitrary
// (non-positional) Seq values in a v1 file must read back unchanged even
// though the v2 format derives Seq from position.
func TestFileV1RoundTripArbitrarySeq(t *testing.T) {
	want := fixtureRecords(t, fixtureV2)
	data := readFixture(t, fixtureV1)
	seqs := []int64{1 << 40, -7, 0, 999999999, 42}
	for i, seq := range seqs {
		binary.LittleEndian.PutUint64(data[8+i*v1RecordSize+8:], uint64(seq))
		want[i].Seq = seq
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Format() != FormatV1 {
		t.Fatalf("Format = %v, want FormatV1", r.Format())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("v1 records with rewritten Seq differ from the expected stream")
	}
}

// TestFileV2DerivesSeqFromPosition writes records whose Seq fields are
// garbage and checks the framed-format reader reassigns stream positions.
func TestFileV2DerivesSeqFromPosition(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for i := range recs {
		recs[i].Seq = int64(1000 - i) // deliberately non-positional
		w.Consume(&recs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Format() != FormatV3 {
		t.Fatalf("Format = %v, want FormatV3", r.Format())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Seq != int64(i) {
			t.Errorf("record %d: Seq = %d, want %d", i, got[i].Seq, i)
		}
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOT A TRACE FILE"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	recs := sampleRecords()
	w.Consume(&recs[0])
	w.Close()
	full := buf.Bytes()

	r, err := NewReader(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	err = r.Next(&rec)
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated frame: err = %v, want non-EOF error", err)
	}

	// A v1 file cut inside its last record reads every whole record, then
	// reports the truncation.
	v1 := readFixture(t, fixtureV1)
	r, err = NewReader(bytes.NewReader(v1[:len(v1)-3]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated v1 record: err = %v, want non-EOF error", err)
	}
	if want := fixtureLen - 1; len(got) != want {
		t.Errorf("truncated v1 file: read %d whole records, want %d", len(got), want)
	}
}

func TestReaderCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.Next(&rec); !errors.Is(err, io.EOF) {
		t.Errorf("empty trace: err = %v, want io.EOF", err)
	}
}

func TestReaderRejectsCorruptOpcode(t *testing.T) {
	b := readFixture(t, fixtureV1)
	b[8+32] = 0xee // opcode byte of first v1 record
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.Next(&rec); err == nil {
		t.Error("corrupt opcode accepted")
	}
}

func TestReaderV2RejectsCorruptFrame(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	recs := sampleRecords()
	for i := range recs {
		w.Consume(&recs[i])
	}
	w.Close()
	base := buf.Bytes()
	// Flipping any payload byte must trip the frame CRC.
	for _, off := range []int{16, 20, len(base) - 1} {
		b := bytes.Clone(base)
		b[off] ^= 0xff
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		err = r.Next(&rec)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("payload byte %d flipped: err = %v, want ErrCorrupt", off, err)
		}
	}
}

func TestConsumerFunc(t *testing.T) {
	n := 0
	c := ConsumerFunc(func(*Record) { n++ })
	c.Consume(&Record{})
	if n != 1 {
		t.Error("ConsumerFunc did not invoke the function")
	}
}
