package directory

import (
	"iqn/internal/chord"
	"iqn/internal/transport"
)

// Wire codecs of the directory RPC payloads (layout:
// transport/codec.go). []Post and PeerList share one layout, so either
// side of an RPC may use either type.
func init() {
	transport.Register(appendPosts, readPosts)
	transport.Register(func(b []byte, pl PeerList) []byte { return appendPosts(b, pl) },
		func(r *transport.Reader) PeerList { return readPosts(r) })
	transport.Register(appendPeerLists, readPeerLists)
	transport.Register(appendDigestResponse, readDigestResponse)
	transport.Register(appendRepairRequest, readRepairRequest)
	transport.Register(appendGetRepairResponse, readGetRepairResponse)
	transport.Register(appendHandoffRequest, readHandoffRequest)
	transport.Register(appendHandoffPush, readHandoffPush)
	transport.Register(appendWithdrawRequest, readWithdrawRequest)
}

// Fewest bytes a Post and a HistCell encode to: one byte per varint,
// length and count, eight per float.
const (
	minPostSize     = 25
	minHistCellSize = 18
)

func appendHistCell(b []byte, c HistCell) []byte {
	b = transport.AppendFloat(b, c.Lo)
	b = transport.AppendFloat(b, c.Hi)
	b = transport.AppendInt(b, c.Count)
	return transport.AppendBytes(b, c.Synopsis)
}

func readHistCell(r *transport.Reader) HistCell {
	return HistCell{Lo: r.Float(), Hi: r.Float(), Count: r.Int(), Synopsis: r.Bytes()}
}

func appendPost(b []byte, p Post) []byte {
	b = transport.AppendString(b, p.Peer)
	b = transport.AppendString(b, p.PeerAddr)
	b = transport.AppendString(b, p.Term)
	b = transport.AppendInt(b, p.ListLength)
	b = transport.AppendFloat(b, p.MaxScore)
	b = transport.AppendFloat(b, p.AvgScore)
	b = transport.AppendInt(b, p.TermSpaceSize)
	b = transport.AppendInt(b, p.NumDocs)
	b = transport.AppendBytes(b, p.Synopsis)
	b = transport.AppendSlice(b, p.Histogram, appendHistCell)
	return transport.AppendVarint(b, p.Epoch)
}

func readPost(r *transport.Reader) Post {
	return Post{
		Peer:          r.String(),
		PeerAddr:      r.String(),
		Term:          r.String(),
		ListLength:    r.Int(),
		MaxScore:      r.Float(),
		AvgScore:      r.Float(),
		TermSpaceSize: r.Int(),
		NumDocs:       r.Int(),
		Synopsis:      r.Bytes(),
		Histogram:     transport.ReadSlice(r, minHistCellSize, readHistCell),
		Epoch:         r.Varint(),
	}
}

func appendPosts(b []byte, posts []Post) []byte { return transport.AppendSlice(b, posts, appendPost) }

func readPosts(r *transport.Reader) []Post { return transport.ReadSlice(r, minPostSize, readPost) }

func appendPeerLists(b []byte, m map[string]PeerList) []byte {
	return transport.AppendMap(b, m, func(b []byte, pl PeerList) []byte { return appendPosts(b, pl) })
}

func readPeerLists(r *transport.Reader) map[string]PeerList {
	return transport.ReadMap(r, 1, func(r *transport.Reader) PeerList { return readPosts(r) })
}

func appendDigestResponse(b []byte, d digestResponse) []byte {
	b = transport.AppendInt(b, d.Dig.Count)
	b = transport.AppendVarint(b, d.Dig.MaxEpoch)
	b = transport.AppendUvarint(b, d.Dig.Digest)
	return transport.AppendVarint(b, d.Floor)
}

func readDigestResponse(r *transport.Reader) digestResponse {
	return digestResponse{
		Dig:   TermDigest{Count: r.Int(), MaxEpoch: r.Varint(), Digest: r.Uvarint()},
		Floor: r.Varint(),
	}
}

func appendRepairRequest(b []byte, q repairRequest) []byte {
	b = transport.AppendString(b, q.Term)
	b = appendPosts(b, q.Posts)
	return transport.AppendVarint(b, q.Floor)
}

func readRepairRequest(r *transport.Reader) repairRequest {
	return repairRequest{Term: r.String(), Posts: readPosts(r), Floor: r.Varint()}
}

func appendGetRepairResponse(b []byte, g getRepairResponse) []byte {
	return transport.AppendVarint(appendPosts(b, g.Posts), g.Floor)
}

func readGetRepairResponse(r *transport.Reader) getRepairResponse {
	return getRepairResponse{Posts: readPosts(r), Floor: r.Varint()}
}

func appendHandoffRequest(b []byte, h handoffRequest) []byte {
	return transport.AppendUvarint(transport.AppendUvarint(b, uint64(h.From)), uint64(h.To))
}

func readHandoffRequest(r *transport.Reader) handoffRequest {
	return handoffRequest{From: chord.ID(r.Uvarint()), To: chord.ID(r.Uvarint())}
}

func appendHandoffPush(b []byte, h handoffPush) []byte {
	return transport.AppendVarint(appendPosts(b, h.Posts), h.Floor)
}

func readHandoffPush(r *transport.Reader) handoffPush {
	return handoffPush{Posts: readPosts(r), Floor: r.Varint()}
}

func appendWithdrawRequest(b []byte, w withdrawRequest) []byte {
	return transport.AppendStrings(transport.AppendString(b, w.Peer), w.Terms)
}

func readWithdrawRequest(r *transport.Reader) withdrawRequest {
	return withdrawRequest{Peer: r.String(), Terms: transport.ReadStrings(r)}
}
