package main

import (
	"bytes"
	"testing"
	"time"

	"iqn/internal/transport"
)

// fakeNet answers every call with a fixed payload or error and keeps
// what it was sent.
type fakeNet struct {
	resp       []byte
	err        error
	gotAddr    string
	gotMethod  string
	gotReq     []byte
	registered string
}

func (f *fakeNet) Call(addr, method string, req []byte) ([]byte, error) {
	f.gotAddr, f.gotMethod, f.gotReq = addr, method, req
	return f.resp, f.err
}

func (f *fakeNet) Register(addr string, mux *transport.Mux) (func(), error) {
	f.registered = addr
	return func() {}, nil
}

func TestViewPassesPayloadsAndErrorsThrough(t *testing.T) {
	req := []byte{0, 1, 2, 0xff, 'q'}
	resp := []byte{9, 8, 7, 0, 0, 6}
	remote := &transport.RemoteError{Method: "peer.query", Msg: "boom"}
	for _, tc := range []struct {
		name string
		resp []byte
		err  error
	}{
		{"ok", resp, nil},
		{"remote error", nil, remote},
		{"unreachable", nil, transport.ErrUnreachable},
		{"error with payload", resp, remote},
	} {
		for _, traced := range []bool{false, true} {
			f := &fakeNet{resp: tc.resp, err: tc.err}
			w := &wire{inner: f, dial: map[string]string{"peer-a": "127.0.0.1:7001"}}
			if traced {
				r := newRecorder()
				r.cur.Store(3)
				w.rec.Store(r)
			}
			v := &view{w: w}
			sent := append([]byte(nil), req...)
			got, err := v.Call("peer-a", "peer.query", sent)
			if err != tc.err {
				t.Errorf("%s traced=%t: error %v, want the inner error %v itself", tc.name, traced, err, tc.err)
			}
			if !bytes.Equal(got, tc.resp) || (got == nil) != (tc.resp == nil) {
				t.Errorf("%s traced=%t: payload %v, want %v", tc.name, traced, got, tc.resp)
			}
			if !bytes.Equal(f.gotReq, req) || f.gotMethod != "peer.query" || f.gotAddr != "127.0.0.1:7001" {
				t.Errorf("%s traced=%t: inner saw %q %q %v", tc.name, traced, f.gotAddr, f.gotMethod, f.gotReq)
			}
			if want := int64(len(req) + len(tc.resp)); v.bytes.Load() != want {
				t.Errorf("%s traced=%t: counted %d bytes, want %d", tc.name, traced, v.bytes.Load(), want)
			}
			if traced {
				spans := w.rec.Load().take()
				if len(spans) != 1 || spans[0].op != 3 || spans[0].fam != famPeerQuery || spans[0].err != (tc.err != nil) {
					t.Errorf("%s: spans %+v", tc.name, spans)
				}
			}
		}
	}
}

func TestViewDeadlineAndRegisterUseDialAddress(t *testing.T) {
	f := &fakeNet{resp: []byte("x")}
	w := &wire{inner: f, dial: map[string]string{"peer-a": "127.0.0.1:7001"}}
	v := &view{w: w}
	if _, err := v.CallDeadline("peer-a", "chord.ping", nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if f.gotAddr != "127.0.0.1:7001" {
		t.Errorf("deadline call went to %q", f.gotAddr)
	}
	if _, err := v.Register("peer-a", transport.NewMux()); err != nil {
		t.Fatal(err)
	}
	if f.registered != "127.0.0.1:7001" {
		t.Errorf("registered %q", f.registered)
	}
	// Names without a dial address pass through unchanged.
	if _, err := v.Call("other", "chord.ping", nil); err != nil || f.gotAddr != "other" {
		t.Errorf("unmapped call went to %q (err %v)", f.gotAddr, err)
	}
}

func TestRecorderSkipsCallsOutsideOps(t *testing.T) {
	f := &fakeNet{resp: []byte("r")}
	w := &wire{inner: f}
	r := newRecorder()
	w.rec.Store(r)
	v := &view{w: w}
	v.Call("a", "dir.post", []byte("p"))
	r.cur.Store(probeOp)
	v.Call("a", "dir.post", []byte("p"))
	spans := r.take()
	if len(spans) != 1 || spans[0].op != probeOp || spans[0].fam != famDirPost {
		t.Fatalf("spans %+v, want one probe dir.post", spans)
	}
	if got := r.captured[famDirPost]; len(got) != 1 || string(got[0]) != "p" {
		t.Errorf("captured %q, want the dir.post request", got)
	}
}

func TestFamilyOf(t *testing.T) {
	for method, want := range map[string]family{
		"chord.find_successor": famChord,
		"chord.successors":     famChord,
		"dir.get_batch":        famDirGet,
		"dir.post":             famDirPost,
		"peer.query":           famPeerQuery,
		"peer.query_chunk":     famOther,
		"dir.prune":            famOther,
	} {
		if got := familyOf(method); got != want {
			t.Errorf("familyOf(%q) = %s, want %s", method, familyNames[got], familyNames[want])
		}
	}
}
