package storage

import (
	"errors"
	"fmt"
	"slices"
)

// A Codec encodes the neighbor payload of a record into page bytes and back.
// Two codecs exist: raw (fixed 4-byte little-endian neighbors, bit-identical
// to the v1 format) and deltavarint (each neighbor stored as the uvarint of
// its difference from the previous one, exploiting the sorted-ascending
// adjacency invariant; the first value of a record is stored absolutely).
//
// Codecs are stateless and safe for concurrent use. Encoding is incremental
// so the page writer can split oversized records across run pages: the
// (prev, cont) pair seeds the delta chain, which continues across page
// boundaries within a run. The interface is sealed — codecs are identified
// elsewhere by name (see CodecByName) or by the id stored in the v2 header.
type Codec interface {
	// Name is the stable external name ("raw", "deltavarint").
	Name() string
	// ID is the identifier written into the OPTSTOR2 header.
	ID() uint16

	// countedRuns reports whether run pages record their value count in the
	// page header. Raw pages derive counts from the fixed value width so v1
	// pages stay bit-identical; variable-width codecs cannot.
	countedRuns() bool
	// maxValBytes is the worst-case encoded size of a single value, used to
	// size the per-codec minimum page (every run page must make progress).
	maxValBytes() int
	// encodedLen returns the exact payload size of encoding adj with the
	// chain seeded by (prev, cont).
	encodedLen(prev uint32, cont bool, adj []uint32) int
	// encodeInto encodes as many leading values of adj as fit in dst,
	// returning how many values were consumed and how many bytes written.
	encodeInto(dst []byte, prev uint32, cont bool, adj []uint32) (vals, n int)
	// decodeInto appends exactly count values decoded from src onto dst,
	// returning the grown slice and the bytes consumed. Errors wrap
	// ErrCorruptPage; arbitrary input must never panic.
	decodeInto(dst []uint32, src []byte, count int, prev uint32, cont bool) ([]uint32, int, error)
}

// Codec names accepted by CodecByName and the -codec CLI flags.
const (
	CodecRaw         = "raw"
	CodecDeltaVarint = "deltavarint"
)

// Named errors for header validation (see Open).
var (
	// ErrUnknownVersion is returned when a store header carries a version
	// this build does not understand.
	ErrUnknownVersion = errors.New("storage: unknown store version")
	// ErrUnknownCodec is returned for an unregistered codec name or id.
	ErrUnknownCodec = errors.New("storage: unknown page codec")
)

var (
	rawCodecInst   = rawCodec{}
	deltaCodecInst = deltaVarintCodec{}

	// codecsByID is indexed by the id stored in the v2 header.
	codecsByID = []Codec{rawCodecInst, deltaCodecInst}
)

// Codecs returns the registered codec names in id order.
func Codecs() []string {
	out := make([]string, len(codecsByID))
	for i, c := range codecsByID {
		out[i] = c.Name()
	}
	return out
}

// CodecByName resolves a codec name ("" selects raw). Unknown names return
// an error wrapping ErrUnknownCodec.
func CodecByName(name string) (Codec, error) {
	if name == "" {
		return rawCodecInst, nil
	}
	for _, c := range codecsByID {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownCodec, name, Codecs())
}

// codecByID resolves the codec id stored in a v2 header.
func codecByID(id uint16) (Codec, error) {
	if int(id) < len(codecsByID) {
		return codecsByID[id], nil
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
}

// MinPageSizeFor returns the smallest page size the codec supports: the page
// header, one record header, and one worst-case encoded value, so every run
// page is guaranteed to hold at least one neighbor.
func MinPageSizeFor(c Codec) int {
	min := pageHeaderSize + recHeaderSize + c.maxValBytes()
	if min < MinPageSize {
		min = MinPageSize
	}
	return min
}

// rawCodec stores neighbors as fixed 4-byte little-endian values — the v1
// page format, bit for bit.
type rawCodec struct{}

func (rawCodec) Name() string      { return CodecRaw }
func (rawCodec) ID() uint16        { return 0 }
func (rawCodec) countedRuns() bool { return false }
func (rawCodec) maxValBytes() int  { return 4 }

func (rawCodec) encodedLen(_ uint32, _ bool, adj []uint32) int { return 4 * len(adj) }

func (rawCodec) encodeInto(dst []byte, _ uint32, _ bool, adj []uint32) (int, int) {
	n := len(dst) / 4
	if n > len(adj) {
		n = len(adj)
	}
	for i := 0; i < n; i++ {
		putUint32(dst[4*i:], adj[i])
	}
	return n, 4 * n
}

func (rawCodec) decodeInto(dst []uint32, src []byte, count int, _ uint32, _ bool) ([]uint32, int, error) {
	if count > len(src)/4 {
		return dst, 0, fmt.Errorf("%w: %d raw neighbors exceed %d payload bytes", ErrCorruptPage, count, len(src))
	}
	dst, out := growBy(dst, count)
	src = src[:4*count]
	for i := range out {
		out[i] = getUint32(src[4*i:])
	}
	return dst, 4 * count, nil
}

// growBy extends dst by n values, growing its backing at most once, and
// returns the extended slice plus the n-value tail to fill by index.
func growBy(dst []uint32, n int) ([]uint32, []uint32) {
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	return dst, dst[base:]
}

// deltaVarintCodec stores the first value of a record as an absolute
// uvarint and every subsequent value as uvarint(v - prev) with uint32
// wraparound. Sorted ascending lists (the graph invariant) give small
// deltas and 1–2 byte encodings; arbitrary lists still round-trip because
// the wraparound subtraction is total.
type deltaVarintCodec struct{}

// maxUvarint32Len is the worst-case uvarint size of a 32-bit value.
const maxUvarint32Len = 5

func (deltaVarintCodec) Name() string      { return CodecDeltaVarint }
func (deltaVarintCodec) ID() uint16        { return 1 }
func (deltaVarintCodec) countedRuns() bool { return true }
func (deltaVarintCodec) maxValBytes() int  { return maxUvarint32Len }

// uvarint32Len returns the encoded size of x.
func uvarint32Len(x uint32) int {
	switch {
	case x < 1<<7:
		return 1
	case x < 1<<14:
		return 2
	case x < 1<<21:
		return 3
	case x < 1<<28:
		return 4
	}
	return maxUvarint32Len
}

// putUvarint32 writes x at dst[0:] and returns the bytes written. dst must
// have room for uvarint32Len(x) bytes.
func putUvarint32(dst []byte, x uint32) int {
	i := 0
	for x >= 0x80 {
		dst[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	dst[i] = byte(x)
	return i + 1
}

// uvarint32 reads one uvarint from src, rejecting encodings that overflow
// 32 bits or run past the buffer.
func uvarint32(src []byte) (uint32, int, error) {
	var x uint64
	var shift uint
	for i := 0; i < len(src) && i < maxUvarint32Len; i++ {
		b := src[i]
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if x > 1<<32-1 {
				return 0, 0, fmt.Errorf("%w: varint overflows uint32", ErrCorruptPage)
			}
			return uint32(x), i + 1, nil
		}
		shift += 7
	}
	return 0, 0, fmt.Errorf("%w: truncated varint", ErrCorruptPage)
}

func (deltaVarintCodec) encodedLen(prev uint32, cont bool, adj []uint32) int {
	n := 0
	for _, x := range adj {
		if cont {
			n += uvarint32Len(x - prev)
		} else {
			n += uvarint32Len(x)
			cont = true
		}
		prev = x
	}
	return n
}

func (deltaVarintCodec) encodeInto(dst []byte, prev uint32, cont bool, adj []uint32) (int, int) {
	vals, off := 0, 0
	for _, x := range adj {
		d := x
		if cont {
			d = x - prev
		}
		l := uvarint32Len(d)
		if off+l > len(dst) {
			break
		}
		putUvarint32(dst[off:], d)
		off += l
		prev, cont = x, true
		vals++
	}
	return vals, off
}

// decodeInto decodes 1–3-byte uvarints inline while at least three bytes
// remain, which covers every delta below 2^21. Longer values, overflow and
// truncation, and the last one or two bytes of the payload go through
// uvarint32, so every encoding it rejects is still rejected with the same
// error. Each value takes at least one byte, so a count larger than the
// payload is corrupt before any value is decoded.
func (deltaVarintCodec) decodeInto(dst []uint32, src []byte, count int, prev uint32, cont bool) ([]uint32, int, error) {
	if count > len(src) {
		return dst, 0, fmt.Errorf("%w: %d varint neighbors exceed %d payload bytes", ErrCorruptPage, count, len(src))
	}
	if !cont {
		prev = 0 // the first value is absolute: a delta from zero
	}
	base := len(dst)
	dst, out := growBy(dst, count)
	off := 0
	for i := range out {
		var d uint32
		n := 0
		if off+3 <= len(src) {
			b := src[off : off+3 : off+3]
			switch {
			case b[0] < 0x80:
				d, n = uint32(b[0]), 1
			case b[1] < 0x80:
				d, n = uint32(b[0]&0x7f)|uint32(b[1])<<7, 2
			case b[2] < 0x80:
				d, n = uint32(b[0]&0x7f)|uint32(b[1]&0x7f)<<7|uint32(b[2])<<14, 3
			}
		}
		if n == 0 {
			var err error
			if d, n, err = uvarint32(src[off:]); err != nil {
				return dst[:base+i], off, err
			}
		}
		off += n
		prev += d
		out[i] = prev
	}
	return dst, off, nil
}
