package program

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
)

// Binary image format (all integers little-endian):
//
//	magic     [8]byte  "VPIMG01\n"
//	nameLen   uint32, name bytes
//	entry     int64
//	textLen   uint32, textLen × uint64 encoded instructions
//	dataLen   uint32, dataLen × int64 words
//	symLen    uint32, symLen × { nameLen uint32, name, addr int64, data uint8 }

var magic = [8]byte{'V', 'P', 'I', 'M', 'G', '0', '1', '\n'}

// maxSegment bounds segment lengths accepted by Read, so corrupt headers
// cannot force absurd allocations.
const maxSegment = 1 << 28

// Typed decode failures. vpserve and the CLIs classify untrusted-image
// rejections with errors.Is against these.
var (
	// ErrTruncated reports an image whose header-declared section sizes
	// exceed the bytes actually present.
	ErrTruncated = errors.New("program: truncated image")
	// ErrCorrupt reports an image that is structurally invalid: bad magic,
	// absurd section lengths, undecodable instructions, trailing garbage,
	// or a decoded program that fails validation.
	ErrCorrupt = errors.New("program: corrupt image")
)

// Write serializes the program image to w.
func Write(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := writeString(bw, p.Name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, p.Entry); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.Text))); err != nil {
		return err
	}
	for i, ins := range p.Text {
		word, err := isa.Encode(ins)
		if err != nil {
			return fmt.Errorf("program: write text[%d]: %w", i, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, word); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.Data))); err != nil {
		return err
	}
	for _, w := range p.Data {
		if err := binary.Write(bw, binary.LittleEndian, w); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.Symbols))); err != nil {
		return err
	}
	for _, s := range p.Symbols {
		if err := writeString(bw, s.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, s.Addr); err != nil {
			return err
		}
		var d uint8
		if s.Data {
			d = 1
		}
		if err := binary.Write(bw, binary.LittleEndian, d); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a program image from r, validating the result. The
// whole stream is buffered so every header-declared section size can be
// checked against the bytes actually present before anything is allocated;
// failures are classified as ErrTruncated or ErrCorrupt.
func Read(r io.Reader) (*Program, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxImageBytes+1))
	if err != nil {
		return nil, fmt.Errorf("program: read image: %w", err)
	}
	if len(raw) > maxImageBytes {
		return nil, fmt.Errorf("%w: image exceeds %d bytes", ErrCorrupt, maxImageBytes)
	}
	return ReadBytes(raw)
}

// maxImageBytes bounds a whole serialized image (generously above what
// maxSegment-sized sections can produce), so a malicious stream cannot make
// Read buffer unboundedly.
const maxImageBytes = 1 << 31

// imageReader is a bounds-checked cursor over a serialized image. Every
// fetch validates the remaining byte count first, so a truncated or lying
// header fails with a typed error before any dependent allocation.
type imageReader struct {
	buf []byte
	off int
}

func (r *imageReader) remaining() int { return len(r.buf) - r.off }

// take returns the next n bytes, or ErrTruncated naming what was being read.
func (r *imageReader) take(n int, what string) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: %s needs %d bytes, %d remain (image is %d bytes)",
			ErrTruncated, what, n, r.remaining(), len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *imageReader) u32(what string) (uint32, error) {
	b, err := r.take(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *imageReader) u64(what string) (uint64, error) {
	b, err := r.take(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// length reads a section length and validates it: against maxSegment (a
// lying header must not force an absurd allocation) and against the bytes
// actually remaining for that section's elements (elemSize bytes each).
func (r *imageReader) length(what string, elemSize int) (int, error) {
	n, err := r.u32(what + " length")
	if err != nil {
		return 0, err
	}
	if n > maxSegment {
		return 0, fmt.Errorf("%w: %s length %d exceeds limit %d", ErrCorrupt, what, n, maxSegment)
	}
	if need := int(n) * elemSize; need > r.remaining() {
		return 0, fmt.Errorf("%w: header declares %d %s entries (%d bytes) but only %d bytes remain",
			ErrTruncated, n, what, need, r.remaining())
	}
	return int(n), nil
}

func (r *imageReader) str(what string) (string, error) {
	n, err := r.length(what, 1)
	if err != nil {
		return "", err
	}
	b, err := r.take(n, what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ReadBytes deserializes a program image from an in-memory buffer, strictly:
// section sizes are validated against the buffer size before decode,
// decoding must consume the buffer exactly, and the decoded program must
// pass Validate. All failures wrap ErrTruncated or ErrCorrupt.
func ReadBytes(raw []byte) (*Program, error) {
	r := &imageReader{buf: raw}
	got, err := r.take(len(magic), "magic")
	if err != nil {
		return nil, err
	}
	if [8]byte(got) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (not a program image)", ErrCorrupt, got)
	}
	p := &Program{}
	if p.Name, err = r.str("name"); err != nil {
		return nil, err
	}
	entry, err := r.u64("entry")
	if err != nil {
		return nil, err
	}
	p.Entry = int64(entry)

	textLen, err := r.length("text", 8)
	if err != nil {
		return nil, err
	}
	p.Text = make([]isa.Instruction, textLen)
	for i := range p.Text {
		word, err := r.u64("text entry")
		if err != nil {
			return nil, err
		}
		ins, err := isa.Decode(word)
		if err != nil {
			return nil, fmt.Errorf("%w: text[%d]: %v", ErrCorrupt, i, err)
		}
		p.Text[i] = ins
	}

	dataLen, err := r.length("data", 8)
	if err != nil {
		return nil, err
	}
	p.Data = make([]isa.Word, dataLen)
	for i := range p.Data {
		w, err := r.u64("data entry")
		if err != nil {
			return nil, err
		}
		p.Data[i] = int64(w)
	}

	// Symbol entries are variable-length (9 fixed bytes plus the name), so
	// the count is validated against the fixed-size floor and each entry
	// re-checks as it goes.
	symLen, err := r.length("symbols", 4+8+1)
	if err != nil {
		return nil, err
	}
	p.Symbols = make([]Symbol, symLen)
	for i := range p.Symbols {
		if p.Symbols[i].Name, err = r.str("symbol name"); err != nil {
			return nil, fmt.Errorf("symbol[%d]: %w", i, err)
		}
		addr, err := r.u64("symbol addr")
		if err != nil {
			return nil, fmt.Errorf("symbol[%d]: %w", i, err)
		}
		p.Symbols[i].Addr = int64(addr)
		kind, err := r.take(1, "symbol kind")
		if err != nil {
			return nil, fmt.Errorf("symbol[%d]: %w", i, err)
		}
		p.Symbols[i].Data = kind[0] != 0
	}

	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after symbol table", ErrCorrupt, r.remaining())
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return p, nil
}

// Save writes the image to a file.
func Save(path string, p *Program) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads an image from a file.
func Load(path string) (*Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}
