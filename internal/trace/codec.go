package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// This file implements the columnar chunk codec shared by the in-memory
// Recorder, the spill file, and the VPTRC02 trace-file format. A chunk of
// records is transposed into packed structure-of-arrays columns so each
// field compresses against its own neighbors:
//
//	uvarint  count                     records in the chunk
//	[count]byte   op                   opcode, one byte each
//	[count]byte   flags                bit0 HasDest, bit1 DestFP, bit2 Taken,
//	                                   bit3 HasMem, bits4-5 Dir
//	[count]byte   dest                 destination register
//	[2*count]byte reads               per operand: bit7 Valid, bit6 FP,
//	                                   bits0-5 Reg
//	then five varint columns, each prefixed by a uvarint byte length:
//	  addr   zigzag delta vs the previous record's Addr    (first vs 0)
//	  value  zigzag raw produced value
//	  mem    zigzag delta vs the previous record's MemAddr (first vs 0)
//	  phase  zigzag delta vs the previous record's Phase   (first vs 0)
//	  seq    zigzag delta vs the record's position firstSeq+i
//	         (present only when the chunk is encoded withSeq; the VPTRC02
//	         file format omits it and derives Seq from position)
//
// Instruction addresses advance by small deltas, produced values and memory
// addresses cluster, phases almost never change and sequence numbers are
// positional, so the common record costs ~10 bytes against 56 bytes for the
// in-memory Record struct and 40 bytes for the fixed VPTRC01 file encoding.
// Chunks are self-contained (every delta chain restarts at the chunk
// boundary), which is what lets the Recorder spill and reload them
// independently and lets a file reader resynchronize per frame.
//
// The codec preserves records with canonical ISA field ranges exactly:
// Dir < 4 (isa defines 3 directives), register numbers < 64 (the files have
// packed operands into 6 bits since VPTRC01; the ISA defines 32+32
// registers). The VM can produce nothing else.

// chunkColumns is the number of varint columns when seq is included.
const chunkColumns = 5

// chunkEncoder encodes staged column chunks into the packed form. The
// per-column scratch buffers are reused across chunks, so a long recording
// allocates only the retained chunk encodings. buf is the encode output
// scratch the Recorder assembles chunks in before copying out exactly the
// retained bytes (or spilling with no copy at all); together with the
// column buffers it makes a pooled encoder allocation-free in steady state.
type chunkEncoder struct {
	addr, value, mem, phase, seq []byte
	buf                          []byte
	zz                           []uint64 // zigzag scratch of the column encoder
	col                          []byte   // irregular-width column scratch
}

// zigzag/zagzig mirror encoding/binary's varint transform for signed ints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func zagzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeCols appends the columnar encoding of the staged columns to dst,
// the codec's only encoder. firstSeq (st.FirstSeq) is the stream position
// of element 0; withSeq selects whether the seq column is emitted (the
// in-memory Recorder keeps it for bit-identical replay of arbitrary
// streams, the file format drops it). The fixed byte columns are already in
// codec layout (one memcpy each); the integer columns run through one
// delta+zigzag pass that OR/AND-accumulates a uniformity prescan, then the
// speculative uniform-width emitters of appendCol — the encode mirror of
// decodeColUniform1/2. Canonical varints everywhere keep the output
// bit-for-bit identical to binary.AppendUvarint.
func (e *chunkEncoder) encodeCols(dst []byte, st *RecordColumns, withSeq bool) []byte {
	n := st.N
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = append(dst, st.Op[:n]...)
	dst = append(dst, st.Flags[:n]...)
	dst = append(dst, st.Dest[:n]...)
	dst = append(dst, st.Reads[:2*n]...)
	if cap(e.zz) < n {
		e.zz = make([]uint64, n)
	}
	zz := e.zz[:n]
	dst = e.appendDeltaCol(dst, st.Addr[:n], zz)
	dst = e.appendRawCol(dst, st.Value[:n], zz)
	dst = e.appendDeltaCol(dst, st.Mem[:n], zz)
	dst = e.appendDeltaCol(dst, st.Phase[:n], zz)
	if withSeq {
		dst = e.appendSeqCol(dst, st.Seq[:n], zz, st.FirstSeq)
	}
	return dst
}

// appendDeltaCol zigzag-delta-transforms vals into zz (prescanning for
// uniform widths as it goes) and appends the length-prefixed column.
func (e *chunkEncoder) appendDeltaCol(dst []byte, vals []int64, zz []uint64) []byte {
	var orv uint64
	andv := ^uint64(0)
	var prev int64
	for i, v := range vals {
		z := zigzag(v - prev)
		prev = v
		zz[i] = z
		orv |= z
		andv &= z
	}
	return e.appendCol(dst, zz, orv, andv)
}

// appendRawCol is appendDeltaCol without the delta transform (the value
// column carries full magnitudes).
func (e *chunkEncoder) appendRawCol(dst []byte, vals []int64, zz []uint64) []byte {
	var orv uint64
	andv := ^uint64(0)
	for i, v := range vals {
		z := zigzag(v)
		zz[i] = z
		orv |= z
		andv &= z
	}
	return e.appendCol(dst, zz, orv, andv)
}

// appendSeqCol encodes the seq column: each element's delta against its
// stream position firstSeq+i (all zero for a single-stream recording, which
// the uniform one-byte emitter turns into n bytes of 0x00).
func (e *chunkEncoder) appendSeqCol(dst []byte, seq []int64, zz []uint64, firstSeq int64) []byte {
	var orv uint64
	andv := ^uint64(0)
	for i, s := range seq {
		z := zigzag(s - (firstSeq + int64(i)))
		zz[i] = z
		orv |= z
		andv &= z
	}
	return e.appendCol(dst, zz, orv, andv)
}

// growBytes extends dst by n uninitialized bytes, reallocating only when
// capacity runs out (the pooled encode buffer reaches steady state after
// the first chunk).
func growBytes(dst []byte, n int) []byte {
	l := len(dst)
	if cap(dst)-l < n {
		nd := make([]byte, l, 2*(l+n))
		copy(nd, dst)
		dst = nd
	}
	return dst[:l+n]
}

// appendCol appends one length-prefixed varint column from the zigzag
// scratch. The prescan accumulators pick the layout: orv < 0x80 means every
// varint is one byte (a straight-line store loop, no per-element width
// logic); a common set bit at position ≥ 7 (andv) with orv < 0x4000 proves
// every element is in [0x80, 0x4000) — exactly two canonical bytes each.
// Anything else takes the generic binary.AppendUvarint loop via scratch, so
// an irregular column encodes identically, just slower.
func (e *chunkEncoder) appendCol(dst []byte, zz []uint64, orv, andv uint64) []byte {
	n := len(zz)
	switch {
	case orv < 0x80:
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = growBytes(dst, n)
		out := dst[len(dst)-n:]
		for i, z := range zz {
			out[i] = byte(z)
		}
	case orv < 0x4000 && andv >= 0x80:
		dst = binary.AppendUvarint(dst, uint64(2*n))
		dst = growBytes(dst, 2*n)
		out := dst[len(dst)-2*n:]
		for i, z := range zz {
			out[2*i] = byte(z) | 0x80
			out[2*i+1] = byte(z >> 7)
		}
	default:
		col := e.col[:0]
		for _, z := range zz {
			col = binary.AppendUvarint(col, z)
		}
		e.col = col
		dst = binary.AppendUvarint(dst, uint64(len(col)))
		dst = append(dst, col...)
	}
	return dst
}

// chunkDecoder streams records back out of one encoded chunk. Decoding is
// strictly bounds-checked: any truncation, overlong varint, or trailing
// garbage is an error, never a panic or an out-of-range read — the same
// data path decodes trusted in-memory chunks and untrusted file frames.
type chunkDecoder struct {
	n                            int
	ops, flags, dest, reads      []byte
	addr, value, mem, phase, seq []byte
	firstSeq                     int64
	withSeq                      bool
	strict                       bool // validate Op/Dir per record (file frames)
}

// init parses the chunk header and column bounds of data. firstSeq is the
// stream position of the chunk's first record (the basis Seq derives from).
func (d *chunkDecoder) init(data []byte, firstSeq int64, withSeq, strict bool) error {
	n64, hdr := binary.Uvarint(data)
	if hdr <= 0 {
		return fmt.Errorf("trace: chunk header: bad record count")
	}
	// Each record costs at least 5 fixed column bytes; bounding n by the
	// payload size rejects absurd counts before any allocation.
	if n64 > uint64(len(data))/5 {
		return fmt.Errorf("trace: chunk header: record count %d exceeds payload", n64)
	}
	n := int(n64)
	off := hdr
	fixed := func(size int) ([]byte, error) {
		if size < 0 || len(data)-off < size {
			return nil, fmt.Errorf("trace: chunk truncated in fixed columns")
		}
		col := data[off : off+size]
		off += size
		return col, nil
	}
	var err error
	if d.ops, err = fixed(n); err != nil {
		return err
	}
	if d.flags, err = fixed(n); err != nil {
		return err
	}
	if d.dest, err = fixed(n); err != nil {
		return err
	}
	if d.reads, err = fixed(2 * n); err != nil {
		return err
	}
	ncols := chunkColumns
	if !withSeq {
		ncols--
	}
	varCols := [chunkColumns][]byte{}
	for c := 0; c < ncols; c++ {
		l64, ln := binary.Uvarint(data[off:])
		if ln <= 0 {
			return fmt.Errorf("trace: chunk truncated in column %d length", c)
		}
		off += ln
		if l64 > uint64(len(data)-off) {
			return fmt.Errorf("trace: chunk truncated in column %d payload", c)
		}
		varCols[c] = data[off : off+int(l64)]
		off += int(l64)
	}
	if off != len(data) {
		return fmt.Errorf("trace: %d trailing bytes after chunk payload", len(data)-off)
	}
	d.n = n
	d.addr, d.value, d.mem, d.phase, d.seq =
		varCols[0], varCols[1], varCols[2], varCols[3], varCols[4]
	d.firstSeq = firstSeq
	d.withSeq = withSeq
	d.strict = strict
	return nil
}

// varcolSlow reads a multi-byte (or truncated) zigzag varint of col at
// cursor ci, returning the value and the advanced cursor. The one-byte fast
// path lives inline in decodeAll's column loops; this handles the rest.
func varcolSlow(col []byte, ci int) (int64, int, error) {
	u, n := binary.Uvarint(col[ci:])
	if n <= 0 {
		return 0, ci, fmt.Errorf("trace: chunk varint column truncated at byte %d", ci)
	}
	return zagzig(u), ci + n, nil
}

// decodeAll decodes every record of the initialized chunk into out, which
// must hold exactly d.n records. The transpose runs column-at-a-time — one
// tight loop per column rather than one function call per record — because
// this is the replay hot path: walking a trace costs a few nanoseconds per
// record in consumer dispatch, and the decode has to disappear next to it.
// The varint loops inline the one-byte fast path (almost every delta in the
// addr/mem/phase/seq columns) and fall into varcolSlow for the rest.
func (d *chunkDecoder) decodeAll(out []Record) error {
	out = out[:d.n]
	ops, flags, dest, reads := d.ops, d.flags, d.dest, d.reads
	firstSeq := d.firstSeq
	for i := range out {
		r := &out[i]
		r.Op = isa.Opcode(ops[i])
		r.Dest = isa.Reg(dest[i])
		f := flags[i]
		r.Dir = isa.Directive(f >> 4)
		r.HasDest = f&1 != 0
		r.DestFP = f&2 != 0
		r.Taken = f&4 != 0
		r.HasMem = f&8 != 0
		b0, b1 := reads[2*i], reads[2*i+1]
		r.Reads[0] = RegRead{Valid: b0&0x80 != 0, FP: b0&0x40 != 0, Reg: isa.Reg(b0 & 0x3f)}
		r.Reads[1] = RegRead{Valid: b1&0x80 != 0, FP: b1&0x40 != 0, Reg: isa.Reg(b1 & 0x3f)}
		r.Seq = firstSeq + int64(i)
	}

	col, ci := d.addr, 0
	var acc int64
	for i := range out {
		var dv int64
		if ci < len(col) && col[ci] < 0x80 {
			dv = zagzig(uint64(col[ci]))
			ci++
		} else {
			var err error
			if dv, ci, err = varcolSlow(col, ci); err != nil {
				return err
			}
		}
		acc += dv
		out[i].Addr = acc
	}
	// The value and mem columns carry full magnitudes, so a two-byte inline
	// path earns its keep where the delta columns almost never need it.
	col, ci = d.value, 0
	for i := range out {
		var v int64
		if ci < len(col) && col[ci] < 0x80 {
			v = zagzig(uint64(col[ci]))
			ci++
		} else if ci+1 < len(col) && col[ci+1] < 0x80 {
			v = zagzig(uint64(col[ci]&0x7f) | uint64(col[ci+1])<<7)
			ci += 2
		} else {
			var err error
			if v, ci, err = varcolSlow(col, ci); err != nil {
				return err
			}
		}
		out[i].Value = v
	}
	col, ci, acc = d.mem, 0, 0
	for i := range out {
		var dv int64
		if ci < len(col) && col[ci] < 0x80 {
			dv = zagzig(uint64(col[ci]))
			ci++
		} else if ci+1 < len(col) && col[ci+1] < 0x80 {
			dv = zagzig(uint64(col[ci]&0x7f) | uint64(col[ci+1])<<7)
			ci += 2
		} else {
			var err error
			if dv, ci, err = varcolSlow(col, ci); err != nil {
				return err
			}
		}
		acc += dv
		out[i].MemAddr = acc
	}
	col, ci, acc = d.phase, 0, 0
	for i := range out {
		var dv int64
		if ci < len(col) && col[ci] < 0x80 {
			dv = zagzig(uint64(col[ci]))
			ci++
		} else {
			var err error
			if dv, ci, err = varcolSlow(col, ci); err != nil {
				return err
			}
		}
		acc += dv
		out[i].Phase = int(acc)
	}
	if d.withSeq {
		col, ci = d.seq, 0
		for i := range out {
			var dv int64
			if ci < len(col) && col[ci] < 0x80 {
				dv = zagzig(uint64(col[ci]))
				ci++
			} else {
				var err error
				if dv, ci, err = varcolSlow(col, ci); err != nil {
					return err
				}
			}
			out[i].Seq += dv
		}
	}

	if d.strict {
		for i := range out {
			if !out[i].Op.Valid() {
				return fmt.Errorf("trace: invalid opcode %d in record %d", d.ops[i], out[i].Seq)
			}
			if !out[i].Dir.Valid() {
				return fmt.Errorf("trace: invalid directive %d in record %d", d.flags[i]>>4, out[i].Seq)
			}
		}
	}
	return nil
}

// decodeVarintCol decodes one zigzag varint column into out, accumulating
// deltas when delta is set. This is the batch replay path's hot loop.
//
// Varint decode is normally a serial chain — each element's offset depends
// on the previous element's width — which caps a branchy byte-at-a-time
// loop at several cycles per element no matter how it is unrolled. But the
// recorded columns are very regular: addr/phase/seq deltas are almost
// always single-byte varints and mem deltas two-byte, so the column length
// alone often reveals a uniform layout where element i lives at a fixed
// offset and the chain disappears. The uniform decoders validate as they
// go (a stray continuation bit falls back to the generic loop), so a
// malformed or merely irregular column decodes identically, just slower.
func decodeVarintCol(col []byte, out []int64, delta bool) error {
	switch {
	case len(col) == len(out):
		if decodeColUniform1(col, out, delta) {
			return nil
		}
	case len(col) == 2*len(out):
		if decodeColUniform2(col, out, delta) {
			return nil
		}
	}
	return decodeColGeneric(col, out, delta)
}

// decodeColUniform1 decodes a column of len(out) bytes assuming every
// varint is exactly one byte. n varints cannot fit n bytes any other way,
// but a corrupt column could still carry continuation bits, so validity is
// OR-accumulated and checked once; false means fall back to the generic
// decoder.
func decodeColUniform1(col []byte, out []int64, delta bool) bool {
	var bad byte
	if delta {
		var acc int64
		for i, c := range col {
			bad |= c
			acc += int64(c>>1) ^ -int64(c&1)
			out[i] = acc
		}
	} else {
		for i, c := range col {
			bad |= c
			out[i] = int64(c>>1) ^ -int64(c&1)
		}
	}
	return bad < 0x80
}

// decodeColUniform2 speculatively decodes a column of 2*len(out) bytes as
// uniform two-byte varints (continuation byte then terminal byte). A
// one-byte/three-byte mix can also sum to 2n, so the layout is validated
// element-wise and OR-accumulated; false means out holds garbage and the
// caller must redo the column generically.
func decodeColUniform2(col []byte, out []int64, delta bool) bool {
	var bad byte
	if delta {
		var acc int64
		for i := range out {
			b0, b1 := col[2*i], col[2*i+1]
			bad |= ^b0 & 0x80
			bad |= b1 & 0x80
			u := uint64(b0&0x7f) | uint64(b1)<<7
			acc += int64(u>>1) ^ -int64(u&1)
			out[i] = acc
		}
	} else {
		for i := range out {
			b0, b1 := col[2*i], col[2*i+1]
			bad |= ^b0 & 0x80
			bad |= b1 & 0x80
			u := uint64(b0&0x7f) | uint64(b1)<<7
			out[i] = int64(u>>1) ^ -int64(u&1)
		}
	}
	return bad == 0
}

// decodeColGeneric is the irregular-width decoder (in practice the value
// column, whose magnitudes vary record to record, and mem columns that are
// two bytes per delta with occasional exceptions).
func decodeColGeneric(col []byte, out []int64, delta bool) error {
	_, _, err := decodeGenericRun(col, 0, 0, out, delta)
	return err
}

// decodeGenericRun decodes the next len(out) varints of col starting at
// byte cursor ci with delta accumulator acc, returning the advanced cursor
// and accumulator so a streaming caller can continue where it left off.
// While at least ten bytes remain (the longest possible varint) it decodes
// from a reslice whose first four indices are provably in bounds, so
// one-to-four-byte widths run without bounds checks or calls into
// binary.Uvarint; the bounds-checked tail loop handles the last few bytes
// of the column.
func decodeGenericRun(col []byte, ci int, acc int64, out []int64, delta bool) (int, int64, error) {
	for i := range out {
		var u uint64
		if rest := col[ci:]; len(rest) >= 10 {
			x := uint64(binary.LittleEndian.Uint32(rest))
			if x&0x80 == 0 {
				u = x & 0x7f
				ci++
			} else if x&0x8000 == 0 {
				u = x&0x7f | x>>8&0x7f<<7
				ci += 2
			} else if x&0x800000 == 0 {
				u = x&0x7f | x>>8&0x7f<<7 | x>>16&0x7f<<14
				ci += 3
			} else if x&0x80000000 == 0 {
				u = x&0x7f | x>>8&0x7f<<7 | x>>16&0x7f<<14 | x>>24&0x7f<<21
				ci += 4
			} else {
				u = x&0x7f | x>>8&0x7f<<7 | x>>16&0x7f<<14 | x>>24&0x7f<<21
				// Continuation bytes land at rest[4..9]; the shift guard
				// trips before a well-formed check would read rest[10].
				k, shift := 4, 28
				for {
					c := rest[k]
					k++
					u |= uint64(c&0x7f) << shift
					if c < 0x80 {
						break
					}
					shift += 7
					if shift >= 70 {
						return ci, acc, fmt.Errorf("trace: chunk varint column overflow at byte %d", ci+k)
					}
				}
				ci += k
			}
		} else {
			// Bounds-checked tail: the last few varints of the column.
			shift := 0
			for {
				if ci >= len(col) {
					return ci, acc, fmt.Errorf("trace: chunk varint column truncated at byte %d", ci)
				}
				c := col[ci]
				ci++
				u |= uint64(c&0x7f) << shift
				if c < 0x80 {
					break
				}
				shift += 7
				if shift >= 70 {
					return ci, acc, fmt.Errorf("trace: chunk varint column overflow at byte %d", ci)
				}
			}
		}
		v := int64(u>>1) ^ -int64(u&1)
		if delta {
			acc += v
			v = acc
		}
		out[i] = v
	}
	return ci, acc, nil
}

// decodeBatch decodes the initialized chunk into b as columns rather than
// records: the fixed byte columns are exposed as direct sub-slices of the
// encoded data (zero decode cost — this is where the batch path's win over
// record materialization comes from), the varint columns are decoded into
// batch-owned int64 slices, and the packed directive bits are widened into
// their own column so consumers and directive patches index it directly.
func (d *chunkDecoder) decodeBatch(b *Batch) error {
	b.grow(d.n)
	b.N = d.n
	b.FirstSeq = d.firstSeq
	b.Op, b.Flags, b.Dest, b.Reads = d.ops, d.flags, d.dest, d.reads
	dir := b.Dir
	for i, f := range d.flags {
		dir[i] = isa.Directive(f >> 4)
	}
	if err := decodeVarintCol(d.addr, b.Addr, true); err != nil {
		return err
	}
	if err := decodeVarintCol(d.value, b.Value, false); err != nil {
		return err
	}
	if err := decodeVarintCol(d.mem, b.MemAddr, true); err != nil {
		return err
	}
	if err := decodeVarintCol(d.phase, b.Phase, true); err != nil {
		return err
	}
	seq := b.Seq
	switch {
	case !d.withSeq:
		for i := range seq {
			seq[i] = d.firstSeq + int64(i)
		}
	case len(d.seq) == len(seq):
		// The overwhelmingly common case: every seq delta is one byte
		// (a single-stream recording has them all zero), decoded fused
		// with the positional add rather than in two passes.
		var bad byte
		for i, c := range d.seq {
			bad |= c
			seq[i] = (int64(c>>1) ^ -int64(c&1)) + d.firstSeq + int64(i)
		}
		if bad >= 0x80 {
			return d.decodeSeqSlow(seq)
		}
	default:
		return d.decodeSeqSlow(seq)
	}
	return nil
}

// decodeSeqSlow decodes an irregular seq column (a re-recorded or
// hand-built stream whose sequence numbers stray far from position).
func (d *chunkDecoder) decodeSeqSlow(seq []int64) error {
	if err := decodeVarintCol(d.seq, seq, false); err != nil {
		return err
	}
	for i := range seq {
		seq[i] += d.firstSeq + int64(i)
	}
	return nil
}

// mustDecodeBatch decodes a chunk the Recorder encoded itself into b;
// failure would mean memory or spill-file corruption.
func mustDecodeBatch(b *Batch, data []byte, firstSeq int64) {
	var d chunkDecoder
	err := d.init(data, firstSeq, true, false)
	if err == nil {
		err = d.decodeBatch(b)
	}
	if err != nil {
		panic("trace: corrupt recorded chunk: " + err.Error())
	}
}

// decodeChunk decodes an entire encoded chunk into out, returning the record
// count. out must have room for the chunk's records.
func decodeChunk(out []Record, data []byte, firstSeq int64, withSeq, strict bool) (int, error) {
	var d chunkDecoder
	if err := d.init(data, firstSeq, withSeq, strict); err != nil {
		return 0, err
	}
	if d.n > len(out) {
		return 0, fmt.Errorf("trace: chunk holds %d records, buffer %d", d.n, len(out))
	}
	if err := d.decodeAll(out[:d.n]); err != nil {
		return 0, err
	}
	return d.n, nil
}

// The streaming batch decoder. A full 16K-record chunk decodes into
// ~640 KiB of int64 columns — far past L1/L2 — so when decode and consume
// share one core (the inline walk path), full-chunk decode streams every
// column through outer cache twice: once written by the decoder, once read
// back cold by the consumer. streamBatch instead decodes and delivers the
// chunk in batchBlock-record sub-batches whose columns stay cache-resident
// between the decode loop and the consumer's kernel. The multi-core lane
// walk keeps whole-chunk batches: there the decode runs on other cores and
// pipelining already hides it.
const batchBlock = 2048

// Column layout kinds for the streaming decoder, established by one cheap
// prescan per column (unlike the full-column decoders, which speculate and
// redo on a miss — impossible mid-stream, since earlier sub-batches have
// already been delivered).
const (
	colGen uint8 = iota // irregular widths: serial cursor decode
	colU1               // every varint one byte: element i at col[i]
	colU2               // every varint two bytes: element i at col[2i]
)

func classifyCol(col []byte, n int) uint8 {
	switch {
	case len(col) == n && colAll1(col):
		return colU1
	case len(col) == 2*n && colAll2(col):
		return colU2
	}
	return colGen
}

// colAll1 reports whether no byte of col has its continuation bit set,
// eight bytes per test.
func colAll1(col []byte) bool {
	i := 0
	for ; i+8 <= len(col); i += 8 {
		if binary.LittleEndian.Uint64(col[i:])&0x8080808080808080 != 0 {
			return false
		}
	}
	var bad byte
	for ; i < len(col); i++ {
		bad |= col[i]
	}
	return bad < 0x80
}

// colAll2 reports whether col (of even length) is strictly alternating
// continuation/terminal bytes — uniform two-byte varints.
func colAll2(col []byte) bool {
	i := 0
	for ; i+8 <= len(col); i += 8 {
		if binary.LittleEndian.Uint64(col[i:])&0x8080808080808080 != 0x0080008000800080 {
			return false
		}
	}
	for ; i+1 < len(col); i += 2 {
		if col[i] < 0x80 || col[i+1] >= 0x80 {
			return false
		}
	}
	return true
}

// colCursor decodes one varint column incrementally, sub-batch by
// sub-batch. Uniform columns index directly off the element number; the
// generic kind continues a serial decode from the saved byte cursor.
type colCursor struct {
	col   []byte
	kind  uint8
	delta bool
	pos   int   // byte cursor (colGen)
	acc   int64 // delta accumulator
}

// decode fills out with the elements [start, start+len(out)) of the column.
func (c *colCursor) decode(out []int64, start int) error {
	switch c.kind {
	case colU1:
		seg := c.col[start : start+len(out)]
		if c.delta {
			acc := c.acc
			for i, cb := range seg {
				acc += int64(cb>>1) ^ -int64(cb&1)
				out[i] = acc
			}
			c.acc = acc
		} else {
			for i, cb := range seg {
				out[i] = int64(cb>>1) ^ -int64(cb&1)
			}
		}
	case colU2:
		seg := c.col[2*start : 2*(start+len(out))]
		if c.delta {
			acc := c.acc
			for i := range out {
				u := uint64(seg[2*i]&0x7f) | uint64(seg[2*i+1])<<7
				acc += int64(u>>1) ^ -int64(u&1)
				out[i] = acc
			}
			c.acc = acc
		} else {
			for i := range out {
				u := uint64(seg[2*i]&0x7f) | uint64(seg[2*i+1])<<7
				out[i] = int64(u>>1) ^ -int64(u&1)
			}
		}
	default:
		var err error
		c.pos, c.acc, err = decodeGenericRun(c.col, c.pos, c.acc, out, c.delta)
		return err
	}
	return nil
}

// streamBatch decodes the initialized chunk into b one batchBlock-record
// sub-batch at a time, invoking fn for each. The sub-batches reuse b's
// columns, so each is valid only until fn returns — the same contract as a
// full-chunk batch.
func (d *chunkDecoder) streamBatch(b *Batch, fn func(*Batch)) error {
	n := d.n
	addr := colCursor{col: d.addr, kind: classifyCol(d.addr, n), delta: true}
	value := colCursor{col: d.value, kind: classifyCol(d.value, n)}
	mem := colCursor{col: d.mem, kind: classifyCol(d.mem, n), delta: true}
	phase := colCursor{col: d.phase, kind: classifyCol(d.phase, n), delta: true}
	var seqCur colCursor
	if d.withSeq {
		seqCur = colCursor{col: d.seq, kind: classifyCol(d.seq, n)}
	}
	for start := 0; start < n; start += batchBlock {
		k := n - start
		if k > batchBlock {
			k = batchBlock
		}
		b.grow(k)
		b.N = k
		b.FirstSeq = d.firstSeq + int64(start)
		b.Op = d.ops[start : start+k]
		b.Flags = d.flags[start : start+k]
		b.Dest = d.dest[start : start+k]
		b.Reads = d.reads[2*start : 2*(start+k)]
		dir := b.Dir
		for i, f := range b.Flags {
			dir[i] = isa.Directive(f >> 4)
		}
		if err := addr.decode(b.Addr, start); err != nil {
			return err
		}
		if err := value.decode(b.Value, start); err != nil {
			return err
		}
		if err := mem.decode(b.MemAddr, start); err != nil {
			return err
		}
		if err := phase.decode(b.Phase, start); err != nil {
			return err
		}
		seq := b.Seq
		base := b.FirstSeq
		switch {
		case !d.withSeq:
			for i := range seq {
				seq[i] = base + int64(i)
			}
		case seqCur.kind == colU1:
			// One-byte seq deltas decode fused with the positional add.
			seg := d.seq[start : start+k]
			for i, c := range seg {
				seq[i] = (int64(c>>1) ^ -int64(c&1)) + base + int64(i)
			}
		default:
			if err := seqCur.decode(seq, start); err != nil {
				return err
			}
			for i := range seq {
				seq[i] += base + int64(i)
			}
		}
		fn(b)
	}
	return nil
}

// mustStreamBatch stream-decodes a chunk the Recorder encoded itself;
// failure would mean memory or spill-file corruption.
func mustStreamBatch(b *Batch, data []byte, firstSeq int64, fn func(*Batch)) {
	var d chunkDecoder
	err := d.init(data, firstSeq, true, false)
	if err == nil {
		err = d.streamBatch(b, fn)
	}
	if err != nil {
		panic("trace: corrupt recorded chunk: " + err.Error())
	}
}
