package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// echoMux returns a mux with an "echo" method and an "fail" method.
func echoMux() *Mux {
	m := NewMux()
	m.Handle("echo", func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	m.Handle("fail", func([]byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	return m
}

func TestMuxDispatch(t *testing.T) {
	m := echoMux()
	resp, err := m.Dispatch("echo", []byte("hi"))
	if err != nil || string(resp) != "echo:hi" {
		t.Fatalf("Dispatch = %q, %v", resp, err)
	}
	if _, err := m.Dispatch("missing", nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("missing method error = %v", err)
	}
	if got := len(m.Methods()); got != 2 {
		t.Fatalf("Methods() = %d entries", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	type payload struct {
		A int
		B string
		C []uint64
	}
	Register(func(b []byte, p payload) []byte {
		b = AppendString(AppendInt(b, p.A), p.B)
		return AppendSlice(b, p.C, AppendUvarint)
	}, func(r *Reader) payload {
		return payload{A: r.Int(), B: r.String(), C: ReadSlice(r, 1, (*Reader).Uvarint)}
	})
	in := payload{A: 7, B: "x", C: []uint64{1, 2, 3}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != in.A || out.B != in.B || len(out.C) != 3 {
		t.Fatalf("round trip = %+v", out)
	}
	if err := Unmarshal([]byte("garbage"), &out); err == nil {
		t.Fatal("Unmarshal(garbage) succeeded")
	}
}

func TestInMemBasic(t *testing.T) {
	n := NewInMem()
	stop, err := n.Register("a", echoMux())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Call("a", "echo", []byte("1"))
	if err != nil || string(resp) != "echo:1" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	// Application error crosses as RemoteError.
	_, err = n.Call("a", "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("remote error = %v", err)
	}
	// Unknown address.
	if _, err := n.Call("nope", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown addr error = %v", err)
	}
	// Duplicate registration.
	if _, err := n.Register("a", echoMux()); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("duplicate register error = %v", err)
	}
	// Deregistration makes the address unreachable.
	stop()
	if _, err := n.Call("a", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("after stop error = %v", err)
	}
}

func TestInMemPartition(t *testing.T) {
	n := NewInMem()
	if _, err := n.Register("a", echoMux()); err != nil {
		t.Fatal(err)
	}
	n.SetPartitioned("a", true)
	if _, err := n.Call("a", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned error = %v", err)
	}
	n.SetPartitioned("a", false)
	if _, err := n.Call("a", "echo", nil); err != nil {
		t.Fatalf("reconnected error = %v", err)
	}
}

func TestInMemStats(t *testing.T) {
	n := NewInMem()
	if _, err := n.Register("a", echoMux()); err != nil {
		t.Fatal(err)
	}
	n.ResetStats()
	if _, err := n.Call("a", "echo", []byte("xxxx")); err != nil {
		t.Fatal(err)
	}
	calls, bytes := n.Stats()
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if bytes != int64(len("xxxx")+len("echo:xxxx")) {
		t.Fatalf("bytes = %d", bytes)
	}
	if got := n.Addrs(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Addrs = %v", got)
	}
}

func TestInMemConcurrentCalls(t *testing.T) {
	n := NewInMem()
	if _, err := n.Register("a", echoMux()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("m%d", i)
			resp, err := n.Call("a", "echo", []byte(msg))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != "echo:"+msg {
				errs <- fmt.Errorf("got %q", resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestInvokeTyped(t *testing.T) {
	n := NewInMem()
	m := NewMux()
	type req struct{ X, Y int }
	Register(func(b []byte, r req) []byte { return AppendInt(AppendInt(b, r.X), r.Y) },
		func(r *Reader) req { return req{X: r.Int(), Y: r.Int()} })
	m.Handle("add", func(b []byte) ([]byte, error) {
		var r req
		if err := Unmarshal(b, &r); err != nil {
			return nil, err
		}
		return Marshal(r.X + r.Y)
	})
	if _, err := n.Register("calc", m); err != nil {
		t.Fatal(err)
	}
	var sum int
	if err := Invoke(n, "calc", "add", req{2, 3}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("sum = %d", sum)
	}
	// nil response discards the payload.
	if err := Invoke(n, "calc", "add", req{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
}

// freeAddr reserves an ephemeral TCP address for a test listener.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestTCPBasic(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := tr.Call(addr, "echo", []byte("over tcp"))
	if err != nil || string(resp) != "echo:over tcp" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	// Remote application error.
	_, err = tr.Call(addr, "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("remote error = %v", err)
	}
	// Unknown method crosses as RemoteError containing the name.
	_, err = tr.Call(addr, "nope", nil)
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "nope") {
		t.Fatalf("unknown method error = %v", err)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for i := 0; i < 20; i++ {
		msg := fmt.Sprintf("%d", i)
		resp, err := tr.Call(addr, "echo", []byte(msg))
		if err != nil || string(resp) != "echo:"+msg {
			t.Fatalf("call %d = %q, %v", i, resp, err)
		}
	}
}

func TestTCPUnreachable(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	if _, err := tr.Call("127.0.0.1:1", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unreachable error = %v", err)
	}
}

func TestTCPStopServing(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(addr, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	stop()
	tr.CloseIdle()
	if _, err := tr.Call(addr, "echo", []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("after stop error = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("c%d", i)
			resp, err := tr.Call(addr, "echo", []byte(msg))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != "echo:"+msg {
				errs <- fmt.Errorf("got %q want echo:%s", resp, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := tr.Call(addr, "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(big)+5 {
		t.Fatalf("resp length = %d", len(resp))
	}
}
