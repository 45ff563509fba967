package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/optlab/opt/internal/graph"
)

// fuzzCodec maps a fuzzer-chosen byte onto a registered codec.
func fuzzCodec(sel byte) Codec {
	return codecsByID[int(sel)%len(codecsByID)]
}

// FuzzDecodeRange feeds arbitrary bytes to the page decoder under both
// codecs: it must never panic, only return records or an error, and it
// must agree with the byte-at-a-time reference decoder (refDecode) on the
// records and on the class of error.
func FuzzDecodeRange(f *testing.F) {
	// Seed with real encoded pages from each codec.
	g := graph.PaperExample()
	for i, codec := range []string{CodecRaw, CodecDeltaVarint} {
		path := filepath.Join(f.TempDir(), "g.optstore")
		s, err := BuildFileCodec(path, g, 64, codec)
		if err != nil {
			f.Fatal(err)
		}
		dev, err := s.Device()
		if err != nil {
			f.Fatal(err)
		}
		data, err := dev.ReadPages(0, int(s.NumPages))
		_ = dev.Close()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 64, byte(i))
		f.Add(data[:64], 64, byte(i))
	}
	f.Add([]byte{}, 64, byte(0))
	f.Add(make([]byte, 128), 64, byte(1))

	f.Fuzz(func(t *testing.T, raw []byte, pageSize int, sel byte) {
		if pageSize < MinPageSize || pageSize > 1<<16 {
			pageSize = 64
		}
		checkRangeAgrees(t, fuzzCodec(sel), pageSize, raw)
	})
}

// FuzzCodecRoundTrip drives arbitrary adjacency lists through the page
// writer and decoder of both codecs at a fuzzer-chosen page size: encode
// followed by decode must reproduce the records exactly (the deltavarint
// wraparound arithmetic is total, so even unsorted lists round-trip).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, 64)
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 255, 255, 255, 255}, MinPageSize)
	f.Add([]byte{9, 9, 9, 9, 1, 1, 1, 1}, 4096)

	f.Fuzz(func(t *testing.T, raw []byte, pageSize int) {
		var adj []uint32
		for len(raw) >= 4 {
			adj = append(adj, binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
		}
		// Two records exercise both slotted sharing and run splitting.
		recs := []VertexRec{
			{ID: 7, Adj: adj[:len(adj)/2]},
			{ID: 8, Adj: adj[len(adj)/2:]},
		}
		for _, c := range codecsByID {
			ps := pageSize
			if min := MinPageSizeFor(c); ps < min || ps > 1<<13 {
				ps = min
			}
			w := newPageWriter(ps, c)
			for _, r := range recs {
				w.appendRecord(r.ID, r.Adj)
			}
			pages, _ := w.finish()
			var data []byte
			for _, p := range pages {
				data = append(data, p...)
			}
			got, err := DecodeRange(c, ps, data)
			if err != nil {
				t.Fatalf("%s: decode of freshly encoded pages: %v", c.Name(), err)
			}
			if len(got) != len(recs) {
				t.Fatalf("%s: decoded %d records, want %d", c.Name(), len(got), len(recs))
			}
			for i, r := range recs {
				if got[i].ID != r.ID || !reflect.DeepEqual(append([]uint32{}, got[i].Adj...), append([]uint32{}, r.Adj...)) {
					t.Fatalf("%s: record %d: got (%d, %v), want (%d, %v)",
						c.Name(), i, got[i].ID, got[i].Adj, r.ID, r.Adj)
				}
			}
		}
	})
}

// FuzzOpenStore feeds arbitrary bytes as a store file: Open must reject or
// parse without panicking, and a successful Open must expose a consistent
// directory.
func FuzzOpenStore(f *testing.F) {
	g := graph.PaperExample()
	for _, codec := range []string{CodecRaw, CodecDeltaVarint} {
		path := filepath.Join(f.TempDir(), "g.optstore")
		if _, err := BuildFileCodec(path, g, 64, codec); err != nil {
			f.Fatal(err)
		}
		valid, err := readFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:40])
	}
	f.Add([]byte("OPTSTOR1garbage"))
	f.Add([]byte("OPTSTOR2garbage"))
	f.Add([]byte("OPTSTOR9garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.optstore")
		if err := writeFile(p, raw); err != nil {
			t.Skip()
		}
		s, err := Open(p)
		if err != nil {
			return
		}
		// A store that opened must at least have internally consistent
		// directory sizes.
		for v := 0; v < s.NumVertices && v < 1000; v++ {
			_ = s.FirstPageOf(uint32(v))
			_ = s.DegreeOf(uint32(v))
			_ = s.SpanOf(uint32(v))
		}
	})
}

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
