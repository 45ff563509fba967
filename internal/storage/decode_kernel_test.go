package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refDecode is the specification of Codec.decodeInto, written one byte at
// a time with no fast path: it appends count values of src onto dst and
// returns the grown slice, the bytes consumed and an error wrapping
// ErrCorruptPage. On error the values decoded before the bad one are kept,
// and the error text matches uvarint32's.
func refDecode(c Codec, dst []uint32, src []byte, count int, prev uint32, cont bool) ([]uint32, int, error) {
	off := 0
	if c.Name() == CodecRaw {
		if count > len(src)/4 {
			return dst, 0, fmt.Errorf("%w: %d raw neighbors exceed %d payload bytes", ErrCorruptPage, count, len(src))
		}
		for i := 0; i < count; i++ {
			var v uint32
			for k := 0; k < 4; k++ {
				v |= uint32(src[off]) << (8 * k)
				off++
			}
			dst = append(dst, v)
		}
		return dst, off, nil
	}
	for i := 0; i < count; i++ {
		var x uint64
		start, done := off, false
		for shift := uint(0); !done; shift += 7 {
			if off == len(src) || off-start == maxUvarint32Len {
				return dst, start, fmt.Errorf("%w: truncated varint", ErrCorruptPage)
			}
			b := src[off]
			off++
			x |= uint64(b&0x7f) << shift
			done = b < 0x80
		}
		if x > 1<<32-1 {
			return dst, start, fmt.Errorf("%w: varint overflows uint32", ErrCorruptPage)
		}
		if cont {
			x += uint64(prev)
		}
		prev, cont = uint32(x), true
		dst = append(dst, prev)
	}
	return dst, off, nil
}

// refCodec is a codec whose decoder is refDecode, so whole page spans can
// be decoded through the specification (see FuzzDecodeRange).
type refCodec struct{ Codec }

func (r refCodec) decodeInto(dst []uint32, src []byte, count int, prev uint32, cont bool) ([]uint32, int, error) {
	return refDecode(r.Codec, dst, src, count, prev, cont)
}

// checkDecodeAgrees runs one decodeInto call and its reference on the same
// input, appending onto a non-empty dst, and fails unless the results and
// errors agree. A count larger than the payload is rejected up front by
// the kernel but only after some values by the reference, so there the
// two need only both fail with ErrCorruptPage.
func checkDecodeAgrees(t *testing.T, c Codec, src []byte, count int, prev uint32, cont bool) {
	t.Helper()
	head := []uint32{42, 43}
	got, gotN, gotErr := c.decodeInto(slices.Clone(head), src, count, prev, cont)
	want, wantN, wantErr := refDecode(c, slices.Clone(head), src, count, prev, cont)
	desc := fmt.Sprintf("%s src=%x count=%d prev=%d cont=%v", c.Name(), src, count, prev, cont)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", desc, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrCorruptPage) || !errors.Is(wantErr, ErrCorruptPage) {
			t.Fatalf("%s: errors %v / %v do not wrap ErrCorruptPage", desc, gotErr, wantErr)
		}
		if !slices.Equal(got[:len(head)], head) {
			t.Fatalf("%s: dst prefix clobbered on error: %v", desc, got)
		}
		if count > len(src) {
			return
		}
	}
	if !slices.Equal(got, want) || gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s:\n got  %v, %d bytes, %v\n want %v, %d bytes, %v", desc, got, gotN, gotErr, want, wantN, wantErr)
	}
}

// TestDecodeKernelMatchesReference drives both codecs' decodeInto against
// refDecode on the cases the deltavarint fast path must get right: deltas
// at every uvarint length boundary, values that end exactly at the end of
// the payload (where fewer than three bytes remain and the fast path
// turns off), overflowing and truncated encodings, and counts larger than
// the payload; then on random byte strings.
func TestDecodeKernelMatchesReference(t *testing.T) {
	dv, raw := Codec(deltaCodecInst), Codec(rawCodecInst)
	boundaries := []uint32{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<32 - 1}

	// Every boundary delta, alone and in a chain, exactly at the payload
	// end and followed by page padding, absolute and continuing a chain.
	var chain []byte
	for _, d := range boundaries {
		enc := make([]byte, maxUvarint32Len)
		enc = enc[:putUvarint32(enc, d)]
		chain = append(chain, enc...)
		for _, prev := range []uint32{0, 5, 1<<32 - 3} {
			for _, cont := range []bool{false, true} {
				checkDecodeAgrees(t, dv, enc, 1, prev, cont)
				checkDecodeAgrees(t, dv, append(slices.Clone(enc), 0, 0, 0, 0), 1, prev, cont)
				checkDecodeAgrees(t, dv, append([]byte{1}, enc...), 2, prev, cont)
				checkDecodeAgrees(t, dv, append([]byte{0x81, 0x01}, enc...), 2, prev, cont)
			}
		}
	}
	for _, pad := range [][]byte{nil, {0}, {0, 0}, {0, 0, 0}} {
		src := append(slices.Clone(chain), pad...)
		checkDecodeAgrees(t, dv, src, len(boundaries), 0, false)
		checkDecodeAgrees(t, dv, src, len(boundaries), 9, true)
	}
	// Every encoded adjacency of ascending values round-trips through the
	// codec's own encoder, whatever bytes remain behind it.
	adj := []uint32{3, 130, 16514, 16515, 2113666, 270549122, 1<<32 - 1}
	buf := make([]byte, 64)
	vals, n := dv.encodeInto(buf, 0, false, adj)
	if vals != len(adj) {
		t.Fatalf("encoded %d of %d values", vals, len(adj))
	}
	for end := n; end <= n+3; end++ {
		checkDecodeAgrees(t, dv, buf[:end], len(adj), 0, false)
	}

	bad := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x10},       // 5-byte value over 2^32-1
		{0xff, 0xff, 0xff, 0xff, 0x7f},       // largest 5-byte overflow
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, // continuation past 5 bytes
		{0x80},                               // truncated 2-byte value
		{0x80, 0x80},                         // truncated 3-byte value
		{0xff, 0xff, 0xff},                   // truncated 4-byte value at the end
		{0xff, 0xff, 0xff, 0xff},             // truncated 5-byte value
		{0x05, 0x80},                         // good value, then truncated 2-byte
		{0x05, 0x06, 0x80, 0x80},             // good values, then truncated 3-byte
		{0x05, 0xff, 0xff, 0xff, 0xff, 0x1f}, // good value, then overflow
	}
	for _, src := range bad {
		for count := 1; count <= len(src); count++ {
			checkDecodeAgrees(t, dv, src, count, 0, false)
			checkDecodeAgrees(t, dv, src, count, 7, true)
		}
	}

	// Counts larger than the payload, for both codecs.
	for _, src := range [][]byte{nil, {1}, {1, 2, 3}, {1, 2, 3, 4, 5, 6, 7}} {
		checkDecodeAgrees(t, dv, src, len(src)+1, 0, false)
		checkDecodeAgrees(t, dv, src, 1<<30, 0, false)
		checkDecodeAgrees(t, raw, src, len(src)/4+1, 0, false)
		checkDecodeAgrees(t, raw, src, len(src)/4, 0, false)
	}

	// Random payloads biased towards continuation bytes, so every varint
	// length, overflow and truncation shows up.
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 20000; iter++ {
		src := make([]byte, rng.Intn(24))
		for i := range src {
			switch rng.Intn(3) {
			case 0:
				src[i] = byte(rng.Intn(0x80))
			default:
				src[i] = byte(0x80 | rng.Intn(0x80))
			}
		}
		count := rng.Intn(len(src) + 2)
		prev, cont := rng.Uint32(), rng.Intn(2) == 0
		checkDecodeAgrees(t, dv, src, count, prev, cont)
		checkDecodeAgrees(t, raw, src, count/4, prev, cont)
	}
}

// checkRangeAgrees decodes a page span with codec c and with its
// reference, and fails unless the records and the error class agree.
// Records decoded before an error are compared too.
func checkRangeAgrees(t *testing.T, c Codec, pageSize int, data []byte) {
	t.Helper()
	got, gotErr := DecodeRange(c, pageSize, data)
	want, wantErr := DecodeRange(refCodec{c}, pageSize, data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", c.Name(), gotErr, wantErr)
	}
	for _, sentinel := range []error{ErrCorruptPage, ErrTruncatedRun, ErrMisaligned} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			t.Fatalf("%s: err = %v, reference err = %v", c.Name(), gotErr, wantErr)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference %d (err %v)", c.Name(), len(got), len(want), gotErr)
	}
	for i := range got {
		if got[i].ID != want[i].ID || !slices.Equal(got[i].Adj, want[i].Adj) {
			t.Fatalf("%s: record %d = (%d, %v), reference (%d, %v)", c.Name(), i, got[i].ID, got[i].Adj, want[i].ID, want[i].Adj)
		}
	}
}
