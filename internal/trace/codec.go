package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// This file implements the columnar chunk codec shared by the in-memory
// Recorder, the spill file, and the VPTRC03 trace-file format. A chunk of
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
//	  mem    zigzag delta vs the previous HasMem record's MemAddr (first
//	         vs 0), one element per record with the HasMem flag only
//	  phase  zigzag delta vs the previous record's Phase   (first vs 0)
//	  seq    zigzag delta vs the record's position firstSeq+i
//	         (present only when the chunk is encoded withSeq; the file
//	         format omits it and derives Seq from position)
//
// A column whose zigzag values are all zero (phase and seq in every chunk
// the VM records) is written with byte length 0. Records without HasMem
// decode with MemAddr 0: the codec keeps MemAddr only where it means
// something (Record.MemAddr).
//
// VPTRC02 frames carry the same layout with a dense mem column (one delta
// per record, the chain running through every record's MemAddr) and no
// zero-width columns; the file reader still decodes them.
//
// Instruction addresses advance by small deltas, produced values and memory
// addresses cluster, phases almost never change and sequence numbers are
// positional, so the common record costs ~9 bytes against 56 bytes for the
// in-memory Record struct and 40 bytes for the fixed VPTRC01 file encoding.
// Chunks are self-contained (every delta chain restarts at the chunk
// boundary), which is what lets the Recorder spill and reload them
// independently and lets a file reader resynchronize per frame.
//
// The codec preserves records with canonical ISA field ranges exactly:
// Dir < 4 (isa defines 3 directives), register numbers < 64 (the files have
// packed operands into 6 bits since VPTRC01; the ISA defines 32+32
// registers), MemAddr 0 without HasMem. The VM can produce nothing else.

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

// zigzag mirrors encoding/binary's varint transform for signed ints; the
// decoders inline its inverse, int64(u>>1) ^ -int64(u&1).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// encodeCols appends the columnar encoding of the staged columns to dst,
// the codec's only encoder. firstSeq (st.FirstSeq) is the stream position
// of element 0; withSeq selects whether the seq column is emitted (the
// in-memory Recorder keeps it for bit-identical replay of arbitrary
// streams, the file format drops it). The fixed byte columns are already in
// codec layout (one memcpy each); the integer columns run through one
// delta+zigzag pass that OR/AND-accumulates a uniformity prescan, then the
// uniform-width emitters of appendCol — the encode mirror of the
// decoder's colU1/colU2 column kinds. Canonical varints everywhere keep the
// output bit-for-bit identical to binary.AppendUvarint.
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
	dst = e.appendMemCol(dst, st.Mem[:n], st.Flags[:n], zz)
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

// appendMemCol is appendDeltaCol over the records whose flags carry
// FlagHasMem only: the sparse mem column.
func (e *chunkEncoder) appendMemCol(dst []byte, mem []int64, flags []byte, zz []uint64) []byte {
	var orv uint64
	andv := ^uint64(0)
	var prev int64
	m := 0
	for i, f := range flags {
		if f&FlagHasMem != 0 {
			v := mem[i]
			z := zigzag(v - prev)
			prev = v
			zz[m] = z
			m++
			orv |= z
			andv &= z
		}
	}
	return e.appendCol(dst, zz[:m], orv, andv)
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
// scratch. The prescan accumulators pick the layout: orv == 0 means every
// value is zero, written as a zero-width column; orv < 0x80 means every
// varint is one byte (a straight-line store loop, no per-element width
// logic); a common set bit at position ≥ 7 (andv) with orv < 0x4000 proves
// every element is in [0x80, 0x4000) — exactly two canonical bytes each.
// Anything else takes the generic binary.AppendUvarint loop via scratch, so
// an irregular column encodes identically, just slower.
func (e *chunkEncoder) appendCol(dst []byte, zz []uint64, orv, andv uint64) []byte {
	n := len(zz)
	switch {
	case orv == 0:
		dst = append(dst, 0)
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

// chunkDecoder decodes records back out of one encoded chunk, in
// consecutive record ranges. Decoding is strictly bounds-checked: any
// truncation, overlong varint, or trailing garbage is an error, never a
// panic or an out-of-range read — the same data path decodes trusted
// in-memory chunks and untrusted file frames.
type chunkDecoder struct {
	n                       int
	ops, flags, dest, reads []byte
	addr, value, mem, phase colCursor
	seq                     colCursor // zero (and unused) without the seq column
	firstSeq                int64
	withSeq                 bool
	sparseMem               bool // VPTRC03 layout: mem elements for HasMem records only
	strict                  bool // validate Op/Dir per record (file frames)
}

// init parses the chunk header and column bounds of data, laid out as
// format (FormatV3, or the dense FormatV2 of old trace files), and prescans
// each varint column's layout. firstSeq is the stream position of the
// chunk's first record (the basis Seq derives from).
func (d *chunkDecoder) init(data []byte, firstSeq int64, format Format, withSeq, strict bool) error {
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
	v3 := format == FormatV3
	nmem := n
	if v3 {
		nmem = countFlag(d.flags, FlagHasMem)
	}
	d.n = n
	d.addr = newColCursor(varCols[0], n, true, v3)
	d.value = newColCursor(varCols[1], n, false, v3)
	d.mem = newColCursor(varCols[2], nmem, true, v3)
	d.phase = newColCursor(varCols[3], n, true, v3)
	d.seq = colCursor{}
	if withSeq {
		d.seq = newColCursor(varCols[4], n, false, v3)
	}
	d.firstSeq = firstSeq
	d.withSeq = withSeq
	d.sparseMem = v3
	d.strict = strict
	return nil
}

// The chunk decoder delivers a chunk in record ranges. A full 16K-record
// chunk decodes into ~640 KiB of int64 columns — far past L1/L2 — so when
// decode and consume share one core (as in every replay walk), whole-chunk
// decode streams every column through outer cache twice: once written by
// the decoder, once read back cold by the consumer. streamBatch instead
// decodes and delivers the chunk in batchBlock-record sub-batches whose
// columns stay cache-resident between the decode loop and the consumer's
// kernel. The file reader decodes its smaller frames whole (decodeBatch).
const batchBlock = 2048

// Column layout kinds, established by one cheap prescan per column. The
// prescan (rather than speculating and redoing on a miss) is what lets a
// column decode in ranges: earlier sub-batches may already have been
// delivered when a later one would find the speculation wrong.
const (
	colGen  uint8 = iota // irregular widths: serial cursor decode
	colU1                // every varint one byte: element i at col[i]
	colU2                // every varint two bytes: element i at col[2i]
	colZero              // zero width (VPTRC03): every element zero
)

// classifyCol picks the layout of a column of n varints; zeroOK admits the
// zero-width encoding, which VPTRC02 frames never use.
func classifyCol(col []byte, n int, zeroOK bool) uint8 {
	switch {
	case zeroOK && len(col) == 0:
		return colZero
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

// colCursor decodes one zigzag varint column of n elements incrementally,
// range by range, accumulating deltas when delta is set. Uniform columns
// slice their next elements at fixed width, with no serial width chain;
// the generic kind (in practice the value column, whose widths vary record
// to record) continues a serial decode from the saved byte cursor.
type colCursor struct {
	col   []byte
	kind  uint8
	delta bool
	pos   int   // byte cursor: the bytes decoded so far
	acc   int64 // delta accumulator
}

func newColCursor(col []byte, n int, delta, zeroOK bool) colCursor {
	return colCursor{col: col, kind: classifyCol(col, n, zeroOK), delta: delta}
}

// decode fills out with the column's next len(out) elements.
func (c *colCursor) decode(out []int64) error {
	switch c.kind {
	case colZero:
		clear(out) // zero deltas from a zero start sum to zero too
	case colU1:
		seg := c.col[c.pos : c.pos+len(out)]
		c.pos += len(out)
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
		seg := c.col[c.pos : c.pos+2*len(out)]
		c.pos += 2 * len(out)
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

// decodeSparse fills out, one element per record of flags, with the
// column's next elements at the records that set FlagHasMem and 0 at the
// others. The elements decode into the tail of out and spread forward in
// place: the source index never trails the destination (their gap is the
// count of non-memory records still ahead), so no element is overwritten
// before it moves.
func (c *colCursor) decodeSparse(out []int64, flags []byte) error {
	k := len(out)
	j := k - countFlag(flags, FlagHasMem)
	if err := c.decode(out[j:]); err != nil {
		return err
	}
	for i, f := range flags {
		h := int(f >> 3 & 1)
		out[i] = out[min(j, k-1)] & -int64(h)
		j += h
	}
	return nil
}

// trailing returns the bytes the column holds past the varints decoded so
// far.
func (c *colCursor) trailing() int { return len(c.col) - c.pos }

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

// decodeRange decodes records [start, start+k) of the initialized chunk
// into b, which then holds exactly those records: the fixed byte columns
// are exposed as direct sub-slices of the encoded data (zero decode cost —
// this is where the batch path's win over record materialization comes
// from), the varint columns are decoded into batch-owned int64 slices, and
// the packed directive bits are widened into their own column so consumers
// and directive patches index it directly. Ranges must run in order without
// gaps (generic columns continue a serial cursor); the range that ends the
// chunk also rejects bytes left over in any varint column.
func (d *chunkDecoder) decodeRange(b *Batch, start, k int) error {
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
	if err := d.addr.decode(b.Addr); err != nil {
		return err
	}
	if err := d.value.decode(b.Value); err != nil {
		return err
	}
	if d.sparseMem {
		if err := d.mem.decodeSparse(b.MemAddr, b.Flags); err != nil {
			return err
		}
	} else if err := d.mem.decode(b.MemAddr); err != nil {
		return err
	}
	if err := d.phase.decode(b.Phase); err != nil {
		return err
	}
	seq := b.Seq
	base := b.FirstSeq
	switch {
	case !d.withSeq || d.seq.kind == colZero:
		// The overwhelmingly common case: a single-stream recording's seq
		// deltas are all zero, so Seq is the stream position.
		for i := range seq {
			seq[i] = base + int64(i)
		}
	default:
		if err := d.seq.decode(seq); err != nil {
			return err
		}
		for i := range seq {
			seq[i] += base + int64(i)
		}
	}
	if start+k == d.n {
		for _, c := range [...]*colCursor{&d.addr, &d.value, &d.mem, &d.phase, &d.seq} {
			if t := c.trailing(); t != 0 {
				return fmt.Errorf("trace: %d trailing bytes in chunk varint column", t)
			}
		}
	}
	if d.strict {
		for i, op := range b.Op {
			if !isa.Opcode(op).Valid() {
				return fmt.Errorf("trace: invalid opcode %d in record %d", op, base+int64(i))
			}
			if f := b.Flags[i] >> 4; !isa.Directive(f).Valid() {
				return fmt.Errorf("trace: invalid directive %d in record %d", f, base+int64(i))
			}
		}
	}
	return nil
}

// decodeBatch decodes the whole initialized chunk into b.
func (d *chunkDecoder) decodeBatch(b *Batch) error { return d.decodeRange(b, 0, d.n) }

// streamBatch decodes the initialized chunk into b one batchBlock-record
// sub-batch at a time, invoking fn for each. The sub-batches reuse b's
// columns, so each is valid only until fn returns — the same contract as a
// whole-chunk batch. A zero-record chunk (which no encoder writes) still
// runs one empty range, so its varint columns get the trailing-bytes check.
func (d *chunkDecoder) streamBatch(b *Batch, fn func(*Batch)) error {
	for start := 0; ; start += batchBlock {
		k := min(batchBlock, d.n-start)
		if err := d.decodeRange(b, start, k); err != nil {
			return err
		}
		fn(b)
		if start+k == d.n {
			return nil
		}
	}
}

// decodeRecorded decodes a chunk the Recorder encoded itself through fn in
// sub-batches. Failure would mean memory or spill-file corruption.
func decodeRecorded(b *Batch, data []byte, firstSeq int64, fn func(*Batch)) {
	var d chunkDecoder
	err := d.init(data, firstSeq, FormatV3, true, false)
	if err == nil {
		err = d.streamBatch(b, fn)
	}
	if err != nil {
		panic("trace: corrupt recorded chunk: " + err.Error())
	}
}
