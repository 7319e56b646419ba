package chord

import "iqn/internal/transport"

// Wire codecs of the chord RPC payloads (layout: transport/codec.go).
func init() {
	transport.Register(appendID, readID)
	transport.Register(appendNodeRef, readNodeRef)
	transport.Register(appendNodeRefs, readNodeRefs)
	transport.Register(appendLeaveNotice, readLeaveNotice)
}

func appendID(b []byte, id ID) []byte { return transport.AppendUvarint(b, uint64(id)) }

func readID(r *transport.Reader) ID { return ID(r.Uvarint()) }

func appendNodeRef(b []byte, ref NodeRef) []byte {
	return transport.AppendString(appendID(b, ref.ID), ref.Addr)
}

func readNodeRef(r *transport.Reader) NodeRef {
	return NodeRef{ID: readID(r), Addr: r.String()}
}

func appendNodeRefs(b []byte, refs []NodeRef) []byte {
	return transport.AppendSlice(b, refs, appendNodeRef)
}

// readNodeRefs reads a NodeRef slice; a ref encodes to at least 2 bytes.
func readNodeRefs(r *transport.Reader) []NodeRef {
	return transport.ReadSlice(r, 2, readNodeRef)
}

func appendLeaveNotice(b []byte, ln leaveNotice) []byte {
	b = appendNodeRef(b, ln.Departing)
	b = appendNodeRef(b, ln.Pred)
	return appendNodeRefs(b, ln.Succs)
}

func readLeaveNotice(r *transport.Reader) leaveNotice {
	return leaveNotice{Departing: readNodeRef(r), Pred: readNodeRef(r), Succs: readNodeRefs(r)}
}
