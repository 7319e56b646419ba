package minerva

import (
	"iqn/internal/ir"
	"iqn/internal/transport"
)

// Wire codecs of the peer RPC payloads (layout: transport/codec.go).
// A peer.query answer is a []ir.Result; peer.query_chunk answers with a
// transport.ResultChunk frame, so only its request is registered.
func init() {
	transport.Register(appendQueryRequest, readQueryRequest)
	transport.Register(appendChunkRequest, readChunkRequest)
	transport.Register(appendResults, readResults)
}

func appendQueryRequest(b []byte, q queryRequest) []byte {
	b = transport.AppendStrings(b, q.Terms)
	b = transport.AppendInt(b, q.K)
	return transport.AppendBool(b, q.Conjunctive)
}

func readQueryRequest(r *transport.Reader) queryRequest {
	return queryRequest{Terms: transport.ReadStrings(r), K: r.Int(), Conjunctive: r.Bool()}
}

func appendChunkRequest(b []byte, q chunkRequest) []byte {
	b = transport.AppendStrings(b, q.Terms)
	b = transport.AppendInt(b, q.K)
	b = transport.AppendBool(b, q.Conjunctive)
	b = transport.AppendInt(b, q.Offset)
	b = transport.AppendInt(b, q.Size)
	return transport.AppendUvarint(b, q.Gen)
}

func readChunkRequest(r *transport.Reader) chunkRequest {
	return chunkRequest{
		Terms:       transport.ReadStrings(r),
		K:           r.Int(),
		Conjunctive: r.Bool(),
		Offset:      r.Int(),
		Size:        r.Int(),
		Gen:         r.Uvarint(),
	}
}

func appendResult(b []byte, res ir.Result) []byte {
	return transport.AppendFloat(transport.AppendUvarint(b, res.DocID), res.Score)
}

func readResult(r *transport.Reader) ir.Result {
	return ir.Result{DocID: r.Uvarint(), Score: r.Float()}
}

func appendResults(b []byte, rs []ir.Result) []byte {
	return transport.AppendSlice(b, rs, appendResult)
}

// readResults reads a result list; a result encodes to at least 9 bytes.
func readResults(r *transport.Reader) []ir.Result { return transport.ReadSlice(r, 9, readResult) }
