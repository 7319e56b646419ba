package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iqn/internal/transport"
)

// wire is the benchmark's only window onto the transport layer. Every
// peer's outgoing calls go through a view of it, handed to
// minerva.BuildNetworkEndpoints by its netFor hook, so bytes and (when a
// recorder is armed) call spans are taken at the boundary between the
// program's layers and the transport without touching the program.
//
// Peers are named by stable logical names. Over TCP, dial maps each name
// to the loopback port reserved for it, so Chord IDs — hashes of peer
// names — and with them the ring and every routing decision depend on
// the workload alone, never on which ports the kernel handed out.
type wire struct {
	inner transport.Network
	dial  map[string]string // logical name → listen/dial address; nil: identity
	rec   atomic.Pointer[recorder]
}

func (w *wire) addr(name string) string {
	if a, ok := w.dial[name]; ok {
		return a
	}
	return name
}

// view is one peer's outgoing path through the wire. Its byte counter is
// read before and after an op that peer runs; the load runner never runs two
// ops on one peer at once, so the difference is that op's traffic.
type view struct {
	w     *wire
	bytes atomic.Int64 // request plus response payload bytes
}

// Call implements transport.Caller.
func (v *view) Call(addr, method string, req []byte) ([]byte, error) {
	return v.call(addr, method, req, 0)
}

// CallDeadline implements transport.DeadlineCaller, so per-call budgets
// reach a deadline-capable transport exactly as they would unwrapped.
func (v *view) CallDeadline(addr, method string, req []byte, d time.Duration) ([]byte, error) {
	return v.call(addr, method, req, d)
}

func (v *view) call(addr, method string, req []byte, d time.Duration) ([]byte, error) {
	rec := v.w.rec.Load()
	var start time.Duration
	if rec != nil {
		start = rec.now()
	}
	resp, err := transport.CallTimeout(v.w.inner, v.w.addr(addr), method, req, d)
	v.bytes.Add(int64(len(req) + len(resp)))
	if rec != nil {
		rec.call(method, start, req, resp, err)
	}
	return resp, err
}

// Register implements transport.Network.
func (v *view) Register(addr string, mux *transport.Mux) (func(), error) {
	return v.w.inner.Register(v.w.addr(addr), mux)
}

// family groups RPC methods into the transport metrics' families.
type family int

const (
	famChord family = iota
	famDirGet
	famDirPost
	famPeerQuery
	famOther
	numFamilies
)

var familyNames = [numFamilies]string{"chord", "dir_get", "dir_post", "peer_query", "other"}

func familyOf(method string) family {
	switch {
	case strings.HasPrefix(method, "chord."):
		return famChord
	case method == "dir.get_batch":
		return famDirGet
	case method == "dir.post":
		return famDirPost
	case method == "peer.query":
		return famPeerQuery
	default:
		return famOther
	}
}

// Op markers for calls made outside a driven op.
const (
	noOp    = -1 // between ops: not recorded
	probeOp = -2 // a direct layer probe: recorded apart from ops
)

// callSpan is one RPC as seen from the caller's side.
type callSpan struct {
	op         int
	fam        family
	start, end time.Duration
	bytes      int
	err        bool
}

// maxCaptured bounds the payloads kept per family for the codec probes.
const maxCaptured = 64

// recorder collects call spans in memory during a traced run. The
// traced run drives one client, so every call belongs to the op named
// by cur when the call starts, fan-out goroutines included.
type recorder struct {
	base time.Time
	cur  atomic.Int64

	mu       sync.Mutex
	spans    []callSpan
	captured [numFamilies][][]byte // dir_get and peer_query responses, dir_post requests
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now()}
	r.cur.Store(noOp)
	return r
}

func (r *recorder) now() time.Duration { return time.Since(r.base) }

func (r *recorder) call(method string, start time.Duration, req, resp []byte, err error) {
	end := r.now()
	op := int(r.cur.Load())
	if op == noOp {
		return
	}
	fam := familyOf(method)
	var keep []byte
	switch fam {
	case famDirGet, famPeerQuery:
		keep = resp
	case famDirPost:
		keep = req
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, callSpan{op: op, fam: fam, start: start, end: end, bytes: len(req) + len(resp), err: err != nil})
	if err == nil && keep != nil && len(r.captured[fam]) < maxCaptured {
		r.captured[fam] = append(r.captured[fam], append([]byte(nil), keep...))
	}
}

// take returns the spans recorded so far and clears the list.
func (r *recorder) take() []callSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}
