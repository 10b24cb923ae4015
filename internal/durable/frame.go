package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Frame format, shared by artifact files and the journal (the trace-file
// framing with the trace-specific payload swapped for opaque bytes):
//
//	u32  payload length (little-endian)
//	u32  CRC-32C (Castagnoli) of the payload
//	payload
//
// A clean EOF falls exactly on a frame boundary; anything else is truncation.

// frameHeaderSize is the fixed per-frame overhead.
const frameHeaderSize = 8

// maxFramePayload bounds a frame a reader will accept, rejecting absurd
// lengths from corrupt headers before allocating. Artifacts are whole cache
// entries (a large recorded trace is tens of MB), so the bound is generous.
const maxFramePayload = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one framed payload to dst and returns the extended
// slice. Zero-length payloads are legal (the frame is header-only).
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// NextFrame decodes the frame at the head of data, returning the payload and
// the remainder of data past the frame. Empty input returns (nil, nil, nil):
// a clean end exactly on a frame boundary. Errors wrap ErrTruncated (data
// ends mid-frame) or ErrCorrupt (absurd length, CRC mismatch). The returned
// payload aliases data.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	if len(data) < frameHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d-byte frame header remnant", ErrTruncated, len(data))
	}
	size := binary.LittleEndian.Uint32(data[0:])
	crc := binary.LittleEndian.Uint32(data[4:])
	if size > maxFramePayload {
		return nil, nil, fmt.Errorf("%w: frame payload length %d", ErrCorrupt, size)
	}
	if len(data) < frameHeaderSize+int(size) {
		return nil, nil, fmt.Errorf("%w: frame promises %d payload bytes, %d remain",
			ErrTruncated, size, len(data)-frameHeaderSize)
	}
	payload = data[frameHeaderSize : frameHeaderSize+int(size)]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch (stored %#x, computed %#x)", ErrCorrupt, crc, got)
	}
	return payload, data[frameHeaderSize+int(size):], nil
}

// DecodeFrames splits data into its framed payloads. A clean end yields the
// full list; a torn or corrupt tail yields the whole leading frames plus the
// error (callers such as the journal salvage the prefix). Payloads alias
// data. The second return is the byte offset of the first undecodable frame
// (== len(data) on success), which is exactly where a salvaging truncate
// cuts.
func DecodeFrames(data []byte) (payloads [][]byte, goodOffset int, err error) {
	rest := data
	for len(rest) > 0 {
		var payload []byte
		var next []byte
		payload, next, err = NextFrame(rest)
		if err != nil {
			return payloads, len(data) - len(rest), err
		}
		payloads = append(payloads, payload)
		rest = next
	}
	return payloads, len(data), nil
}
