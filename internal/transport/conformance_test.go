package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// harness abstracts one transport implementation for the differential
// conformance suite: both InMem and TCP must pass the exact same table,
// so code written against one behaves identically on the other.
type harness struct {
	name string
	// build returns the network and an address allocator (InMem uses
	// symbolic names, TCP needs real listen addresses).
	build func(t *testing.T) (Network, func(t *testing.T) string, func())
}

func conformanceHarnesses() []harness {
	return []harness{
		{
			name: "inmem",
			build: func(t *testing.T) (Network, func(t *testing.T) string, func()) {
				next := 0
				return NewInMem(), func(t *testing.T) string {
					next++
					return fmt.Sprintf("peer-%d", next)
				}, func() {}
			},
		},
		{
			name: "tcp",
			build: func(t *testing.T) (Network, func(t *testing.T) string, func()) {
				tr := NewTCP()
				return tr, freeAddr, tr.CloseIdle
			},
		},
		{
			// The legacy one-in-flight protocol must stay fully
			// conformant: it is the "bare" baseline the QPS benchmark
			// compares against, and old clients speak it on the wire.
			name: "tcp-bare",
			build: func(t *testing.T) (Network, func(t *testing.T) string, func()) {
				tr := NewTCP()
				tr.NoPipeline = true
				return tr, freeAddr, tr.CloseIdle
			},
		},
	}
}

// TestTransportConformance runs the same behavioral table against every
// transport implementation.
func TestTransportConformance(t *testing.T) {
	for _, h := range conformanceHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			net, addrOf, cleanup := h.build(t)
			defer cleanup()

			t.Run("echo", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				resp, err := net.Call(addr, "echo", []byte("conformance"))
				if err != nil || string(resp) != "echo:conformance" {
					t.Fatalf("Call = %q, %v", resp, err)
				}
			})

			t.Run("empty payload", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				resp, err := net.Call(addr, "echo", nil)
				if err != nil || string(resp) != "echo:" {
					t.Fatalf("empty-payload Call = %q, %v", resp, err)
				}
			})

			t.Run("remote error classification", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				_, err = net.Call(addr, "fail", nil)
				var re *RemoteError
				if !errors.As(err, &re) || re.Msg != "boom" {
					t.Fatalf("application error = %v (want *RemoteError boom)", err)
				}
				if errors.Is(err, ErrUnreachable) {
					t.Fatal("remote error also matches ErrUnreachable")
				}
				if Retryable(err) {
					t.Fatal("remote error classified retryable")
				}
			})

			t.Run("unknown method is remote error", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				_, err = net.Call(addr, "no-such-method", nil)
				var re *RemoteError
				if !errors.As(err, &re) || !strings.Contains(re.Msg, "no-such-method") {
					t.Fatalf("unknown method error = %v", err)
				}
				if Retryable(err) {
					t.Fatal("unknown-method error classified retryable")
				}
			})

			t.Run("unreachable address", func(t *testing.T) {
				addr := addrOf(t)
				// Never registered (TCP: reserved then released port).
				_, err := net.Call(addr, "echo", nil)
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("unregistered addr error = %v", err)
				}
				if !Retryable(err) {
					t.Fatal("unreachable error not classified retryable")
				}
			})

			t.Run("stop makes unreachable", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := net.Call(addr, "echo", []byte("x")); err != nil {
					t.Fatal(err)
				}
				stop()
				cleanup() // drop pooled connections so TCP re-dials
				if _, err := net.Call(addr, "echo", []byte("x")); !errors.Is(err, ErrUnreachable) {
					t.Fatalf("after stop error = %v", err)
				}
			})

			t.Run("duplicate register", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				if _, err := net.Register(addr, echoMux()); !errors.Is(err, ErrAddrInUse) {
					t.Fatalf("duplicate register error = %v", err)
				}
			})

			t.Run("concurrent calls", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				var wg sync.WaitGroup
				errs := make(chan error, 32)
				for i := 0; i < 32; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						msg := fmt.Sprintf("m%d", i)
						resp, err := net.Call(addr, "echo", []byte(msg))
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
			})

			t.Run("large payload round trip", func(t *testing.T) {
				addr := addrOf(t)
				stop, err := net.Register(addr, echoMux())
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				big := make([]byte, 256<<10)
				for i := range big {
					big[i] = byte(i * 31)
				}
				resp, err := net.Call(addr, "echo", big)
				if err != nil {
					t.Fatal(err)
				}
				if len(resp) != len(big)+5 || string(resp[:5]) != "echo:" {
					t.Fatalf("large payload resp length = %d", len(resp))
				}
				for i, b := range big {
					if resp[5+i] != b {
						t.Fatalf("payload corrupted at byte %d", i)
					}
				}
			})

			t.Run("pipelined out-of-order completion", func(t *testing.T) {
				// Handlers finish in reverse submission order: later
				// requests sleep less. Every caller must still get its
				// own payload back — on a multiplexed connection this
				// exercises response-ID matching; on InMem and bare TCP
				// it degenerates to plain concurrency.
				addr := addrOf(t)
				m := NewMux()
				m.Handle("sleepy", func(req []byte) ([]byte, error) {
					var ms int
					if err := Unmarshal(req, &ms); err != nil {
						return nil, err
					}
					time.Sleep(time.Duration(ms) * time.Millisecond)
					return req, nil
				})
				stop, err := net.Register(addr, m)
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				const callers = 16
				var wg sync.WaitGroup
				errs := make(chan error, callers)
				for i := 0; i < callers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						ms := (callers - i) * 3 // earlier callers wait longer
						req, _ := Marshal(ms)
						resp, err := net.Call(addr, "sleepy", req)
						if err != nil {
							errs <- fmt.Errorf("caller %d: %v", i, err)
							return
						}
						var got int
						if err := Unmarshal(resp, &got); err != nil || got != ms {
							errs <- fmt.Errorf("caller %d: got %d want %d (err %v)", i, got, ms, err)
						}
					}(i)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			})

			t.Run("chunk stream out of order", func(t *testing.T) {
				// A server serving result chunks by offset, with earlier
				// offsets answering slower: concurrent chunk requests
				// complete out of submission order, and every caller must
				// get the chunk for its own offset back. On a multiplexed
				// connection this exercises response-ID matching with the
				// real chunk codec as payload; on InMem and bare TCP it
				// degenerates to plain concurrency.
				addr := addrOf(t)
				const total, size = 64, 8
				entries := make([]ScoredEntry, total)
				for i := range entries {
					entries[i] = ScoredEntry{Doc: uint64(1000 + i), Score: float64(total - i)}
				}
				m := NewMux()
				m.Handle("chunk", func(req []byte) ([]byte, error) {
					var off int
					if err := Unmarshal(req, &off); err != nil {
						return nil, err
					}
					time.Sleep(time.Duration(total-off) * time.Millisecond / 2)
					end := off + size
					if end > total {
						end = total
					}
					return EncodeChunk(ResultChunk{
						Gen:     9,
						Done:    end == total,
						Entries: entries[off:end],
					}), nil
				})
				stop, err := net.Register(addr, m)
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				var wg sync.WaitGroup
				errs := make(chan error, total/size)
				for off := 0; off < total; off += size {
					wg.Add(1)
					go func(off int) {
						defer wg.Done()
						req, _ := Marshal(off)
						resp, err := net.Call(addr, "chunk", req)
						if err != nil {
							errs <- fmt.Errorf("offset %d: %v", off, err)
							return
						}
						c, err := DecodeChunk(resp)
						if err != nil {
							errs <- fmt.Errorf("offset %d: decode: %v", off, err)
							return
						}
						if c.Gen != 9 || len(c.Entries) != size {
							errs <- fmt.Errorf("offset %d: gen %d, %d entries", off, c.Gen, len(c.Entries))
							return
						}
						for i, e := range c.Entries {
							if want := entries[off+i]; e != want {
								errs <- fmt.Errorf("offset %d entry %d: %+v want %+v", off, i, e, want)
								return
							}
						}
						if c.Done != (off+size == total) {
							errs <- fmt.Errorf("offset %d: done = %t", off, c.Done)
						}
					}(off)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			})

			t.Run("chunk stream mid-stream death", func(t *testing.T) {
				// The server dies after serving the first chunk: the next
				// pull must surface a retryable connectivity error, never
				// hang and never return a fabricated chunk.
				addr := addrOf(t)
				var stopOnce sync.Once
				var stop func()
				m := NewMux()
				m.Handle("chunk", func(req []byte) ([]byte, error) {
					return EncodeChunk(ResultChunk{
						Gen:     1,
						Entries: []ScoredEntry{{Doc: 1, Score: 2}},
					}), nil
				})
				stop, err := net.Register(addr, m)
				if err != nil {
					t.Fatal(err)
				}
				defer stopOnce.Do(stop)
				resp, err := net.Call(addr, "chunk", nil)
				if err != nil {
					t.Fatal(err)
				}
				if c, err := DecodeChunk(resp); err != nil || len(c.Entries) != 1 {
					t.Fatalf("first chunk = %+v, %v", c, err)
				}
				stopOnce.Do(stop)
				cleanup() // drop pooled connections so TCP re-dials
				_, err = net.Call(addr, "chunk", nil)
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("post-death pull error = %v (want ErrUnreachable)", err)
				}
				if !Retryable(err) {
					t.Fatal("mid-stream death not classified retryable")
				}
			})

			t.Run("typed invoke", func(t *testing.T) {
				addr := addrOf(t)
				m := NewMux()
				type pair struct{ X, Y int }
				Register(func(b []byte, p pair) []byte { return AppendInt(AppendInt(b, p.X), p.Y) },
					func(r *Reader) pair { return pair{X: r.Int(), Y: r.Int()} })
				m.Handle("add", func(b []byte) ([]byte, error) {
					var p pair
					if err := Unmarshal(b, &p); err != nil {
						return nil, err
					}
					return Marshal(p.X + p.Y)
				})
				stop, err := net.Register(addr, m)
				if err != nil {
					t.Fatal(err)
				}
				defer stop()
				var sum int
				if err := Invoke(net, addr, "add", pair{20, 22}, &sum); err != nil || sum != 42 {
					t.Fatalf("Invoke = %d, %v", sum, err)
				}
			})
		})
	}
}
