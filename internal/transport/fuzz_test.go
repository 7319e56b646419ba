package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzTCPFrame fuzzes the wire-format decoders (readRequest and
// readResponse over the same chunk framing) with arbitrary byte streams:
// truncated frames, length prefixes larger than the stream or the frame
// limit, and garbage payloads must all return errors — never panic,
// and never allocate anywhere near the claimed length of a lying prefix.
func FuzzTCPFrame(f *testing.F) {
	// Well-formed request frame.
	var good bytes.Buffer
	w := bufio.NewWriter(&good)
	if err := writeRequest(w, "echo", []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	// Well-formed ok and error responses.
	var okResp bytes.Buffer
	w = bufio.NewWriter(&okResp)
	if err := writeResponse(w, []byte("result"), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(okResp.Bytes())
	// Truncated frame: header promises more than the stream holds.
	var truncated bytes.Buffer
	hdr := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(hdr, 1000)
	truncated.Write(hdr[:n])
	truncated.WriteString("short")
	f.Add(truncated.Bytes())
	// Oversized prefix: larger than maxFrame.
	var oversized bytes.Buffer
	n = binary.PutUvarint(hdr, maxFrame+1)
	oversized.Write(hdr[:n])
	f.Add(oversized.Bytes())
	// Lying prefix just under the limit with almost no data: must error
	// from truncation without committing a maxFrame-sized allocation.
	var lying bytes.Buffer
	n = binary.PutUvarint(hdr, maxFrame-1)
	lying.Write(hdr[:n])
	lying.WriteString("x")
	f.Add(lying.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Request path: either both chunks decode within bounds, or an
		// error — never a panic.
		method, payload, err := readRequest(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if len(method) > maxFrame || len(payload) > maxFrame {
				t.Fatalf("decoded chunk exceeds frame limit: method=%d payload=%d", len(method), len(payload))
			}
			// A successful decode can never claim more bytes than the
			// input held.
			if len(method)+len(payload) > len(data) {
				t.Fatalf("decoded %d bytes from a %d-byte stream", len(method)+len(payload), len(data))
			}
		}
		// Response path over the same bytes.
		body, remoteMsg, err := readResponse(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if len(body) > maxFrame || len(remoteMsg) > maxFrame {
				t.Fatalf("decoded response exceeds frame limit: body=%d msg=%d", len(body), len(remoteMsg))
			}
			if len(body)+len(remoteMsg) > len(data) {
				t.Fatalf("decoded %d bytes from a %d-byte stream", len(body)+len(remoteMsg), len(data))
			}
		}
		// Payloads that survived framing still hit the wire codec:
		// arbitrary bytes must error cleanly, not panic.
		var decoded []string
		_ = Unmarshal(data, &decoded)
	})
}

// TestReadChunkLyingPrefix pins the incremental-growth behavior outside
// the fuzzer: a frame claiming maxFrame-1 bytes but delivering one must
// fail without allocating the claimed size.
func TestReadChunkLyingPrefix(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(hdr, maxFrame-1)
	buf.Write(hdr[:n])
	buf.WriteString("only this")
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data := buf.Bytes()
			if _, err := readChunk(bufio.NewReader(bytes.NewReader(data))); err == nil {
				b.Fatal("lying prefix decoded successfully")
			}
		}
	})
	// The 64KiB-step growth means a truncated stream of ~10 bytes commits
	// at most one step (plus reader buffers), nowhere near the claimed
	// 64MiB.
	if per := res.AllocedBytesPerOp(); per > 1<<20 {
		t.Fatalf("lying prefix allocated %d bytes/op (limit 1MiB)", per)
	}
}

func TestReadChunkOversizedPrefix(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(hdr, maxFrame+1)
	buf.Write(hdr[:n])
	if _, err := readChunk(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized prefix accepted")
	}
}

// FuzzResultChunk fuzzes the chunked-result frame codec with arbitrary
// bytes: truncated frames, unknown versions, lying entry counts, and
// garbage must all return errors — never panic, and never allocate an
// entries slice the bytes cannot back. Frames that do decode must
// re-encode to the exact same bytes (the codec has one canonical form).
func FuzzResultChunk(f *testing.F) {
	f.Add(EncodeChunk(ResultChunk{}))
	f.Add(EncodeChunk(ResultChunk{Gen: 7, Done: true}))
	f.Add(EncodeChunk(ResultChunk{
		Gen: 1 << 40,
		Entries: []ScoredEntry{
			{Doc: 42, Score: 3.5},
			{Doc: 41, Score: 3.5},
			{Doc: 9000000, Score: -1.25},
		},
	}))
	// Lying count: claims many entries, carries none.
	lying := []byte{chunkVersion, 0, 0, 0xff, 0xff, 0x03}
	f.Add(lying)
	// Unknown version and unknown flags.
	f.Add([]byte{99, 0, 0, 0})
	f.Add([]byte{chunkVersion, 0x80, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunk(data)
		if err != nil {
			return
		}
		if len(c.Entries) > len(data) {
			t.Fatalf("decoded %d entries from %d bytes", len(c.Entries), len(data))
		}
		round := EncodeChunk(c)
		if !bytes.Equal(round, data) {
			t.Fatalf("re-encode diverged:\n in  %x\n out %x", data, round)
		}
	})
}

// TestResultChunkRoundTrip pins the codec outside the fuzzer: typical
// chunks survive encode/decode exactly, including NaN-free negative and
// tied scores and the done flag.
func TestResultChunkRoundTrip(t *testing.T) {
	chunks := []ResultChunk{
		{},
		{Gen: 1, Done: true},
		{Gen: 123456789, Entries: []ScoredEntry{{Doc: 0, Score: 0}}},
		{Gen: 3, Done: true, Entries: []ScoredEntry{
			{Doc: 18446744073709551615, Score: 12.75},
			{Doc: 5, Score: 12.75},
			{Doc: 6, Score: -0.5},
		}},
	}
	for i, c := range chunks {
		got, err := DecodeChunk(EncodeChunk(c))
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if got.Gen != c.Gen || got.Done != c.Done || len(got.Entries) != len(c.Entries) {
			t.Fatalf("chunk %d: round trip %+v != %+v", i, got, c)
		}
		for j := range c.Entries {
			if got.Entries[j] != c.Entries[j] {
				t.Fatalf("chunk %d entry %d: %+v != %+v", i, j, got.Entries[j], c.Entries[j])
			}
		}
	}
}

// TestResultChunkLyingCount pins the allocation bound: a count claiming
// the maximum cannot allocate anywhere near it when the frame is a
// handful of bytes.
func TestResultChunkLyingCount(t *testing.T) {
	frame := []byte{chunkVersion, 0, 0}
	hdr := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(hdr, maxChunkEntries)
	frame = append(frame, hdr[:n]...)
	frame = append(frame, "short"...)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeChunk(frame); err == nil {
				b.Fatal("lying count decoded successfully")
			}
		}
	})
	if per := res.AllocedBytesPerOp(); per > 1<<12 {
		t.Fatalf("lying count allocated %d bytes/op (limit 4KiB)", per)
	}
	over := []byte{chunkVersion, 0, 0}
	n = binary.PutUvarint(hdr, maxChunkEntries+1)
	over = append(over, hdr[:n]...)
	if _, err := DecodeChunk(over); err == nil {
		t.Fatal("oversized count accepted")
	}
}

func TestReadChunkLargeValid(t *testing.T) {
	// A genuine multi-step frame (crosses the 64KiB growth step) round
	// trips intact.
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeChunk(w, payload); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, err := readChunk(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-step chunk corrupted")
	}
}
