package transport

import (
	"encoding/binary"
	"fmt"
)

// This file is the wire codec for incremental top-k result chunks: the
// payload format of the chunked search RPC (minerva's peer.query_chunk).
// A peer streams its score-sorted local result list to the query
// initiator one chunk at a time, and the initiator's threshold
// coordinator stops pulling the moment the peer provably cannot crack
// the merged top-k — so the dominant cost of the protocol is exactly
// these frames. They are written with the primitives of the RPC wire
// codec (codec.go) behind a version and flags header, and the frame
// bypasses the type registry so a caller can decode it without knowing
// the request type. A 16-entry chunk is ~200 bytes.
//
// Layout (all integers are unsigned varints unless noted):
//
//	byte    version (chunkVersion)
//	byte    flags (bit 0: done — no entries beyond this chunk)
//	uvarint generation (the server's snapshot identity; cursors are
//	        only valid within one generation)
//	uvarint entry count
//	repeat  count times:
//	  uvarint docID
//	  8 bytes score (IEEE-754 bits, big-endian)
//
// The decoder validates the count against the bytes actually present
// before allocating, so a lying count cannot commit a large allocation
// (the same discipline as the TCP framing's readChunk).

// chunkVersion is the codec version byte; decoders reject anything else.
const chunkVersion = 1

// chunkDone is the flags bit marking the final chunk of a stream.
const chunkDone = 1

// maxChunkEntries bounds one chunk: far above any real chunk size
// (initiators pull tens of entries at a time) while keeping a hostile
// count from driving a large allocation even when backed by bytes.
const maxChunkEntries = 1 << 20

// ScoredEntry is one (document, score) pair of a result chunk.
type ScoredEntry struct {
	// Doc is the global document identifier.
	Doc uint64
	// Score is the document's aggregated query score.
	Score float64
}

// ResultChunk is one decoded frame of an incremental result stream.
type ResultChunk struct {
	// Gen identifies the server's index snapshot generation. A stream's
	// cursor (entry offset) is only meaningful within one generation;
	// initiators restart the stream when it changes.
	Gen uint64
	// Done reports that the stream is exhausted: the server has no
	// entries beyond this chunk.
	Done bool
	// Entries are the chunk's results, in descending score order
	// (ties: ascending doc ID) — the stream-wide sort order.
	Entries []ScoredEntry
}

// EncodeChunk serializes a chunk into a fresh buffer.
func EncodeChunk(c ResultChunk) []byte {
	buf := make([]byte, 0, 2+2*binary.MaxVarintLen64+len(c.Entries)*(binary.MaxVarintLen64+8))
	var flags byte
	if c.Done {
		flags |= chunkDone
	}
	buf = append(buf, chunkVersion, flags)
	buf = AppendUvarint(buf, c.Gen)
	return AppendSlice(buf, c.Entries, appendScoredEntry)
}

func appendScoredEntry(b []byte, e ScoredEntry) []byte {
	return AppendFloat(AppendUvarint(b, e.Doc), e.Score)
}

func readScoredEntry(r *Reader) ScoredEntry {
	return ScoredEntry{Doc: r.Uvarint(), Score: r.Float()}
}

// DecodeChunk parses a chunk frame. Truncated frames, unknown versions,
// and counts the bytes cannot back all return errors — never a panic,
// never an allocation sized by an unverified count.
func DecodeChunk(data []byte) (ResultChunk, error) {
	if len(data) < 2 {
		return ResultChunk{}, fmt.Errorf("transport: result chunk truncated (%d bytes)", len(data))
	}
	if data[0] != chunkVersion {
		return ResultChunk{}, fmt.Errorf("transport: result chunk version %d (want %d)", data[0], chunkVersion)
	}
	if data[1]&^chunkDone != 0 {
		return ResultChunk{}, fmt.Errorf("transport: result chunk has unknown flags %#x", data[1])
	}
	r := Reader{buf: data[2:]}
	c := ResultChunk{Done: data[1]&chunkDone != 0, Gen: r.Uvarint()}
	// Peek at the count so an oversized claim is rejected by its value,
	// whatever bytes follow; ReadSlice then checks it against the bytes.
	if count, _ := canonicalUvarint(r.buf); count > maxChunkEntries {
		return ResultChunk{}, fmt.Errorf("transport: result chunk claims %d entries (limit %d)", count, maxChunkEntries)
	}
	c.Entries = ReadSlice(&r, 9, readScoredEntry)
	if err := r.Finish(); err != nil {
		return ResultChunk{}, fmt.Errorf("transport: result chunk: %w", err)
	}
	return c, nil
}

// canonicalUvarint decodes an unsigned varint and additionally rejects
// non-minimal encodings (binary.Uvarint accepts them), so every value
// has exactly one wire form and a decoded payload re-encodes to the
// same bytes — the property that lets tests compare frames byte for
// byte.
func canonicalUvarint(data []byte) (uint64, int) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, n
	}
	if n > 1 && data[n-1] == 0 {
		// A trailing zero continuation byte adds no value bits: the
		// encoding is longer than necessary.
		return 0, -n
	}
	return v, n
}
