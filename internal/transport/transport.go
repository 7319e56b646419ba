// Package transport is the message layer beneath the Chord overlay and
// the MINERVA peers: a small RPC abstraction with two interchangeable
// implementations — an in-process network for tests, benchmarks, and
// experiments (deterministic, optionally failure-injecting) and a real
// TCP network (length-prefixed frames over stdlib net) proving the system
// runs distributed.
//
// A peer exposes one address with a method multiplexer (Mux); subsystems
// (Chord routing, the directory service, query execution) register their
// methods on the same Mux. Payloads use one hand-written binary codec
// (codec.go): each package registers the encoder and decoder of its own
// wire types, and Marshal/Unmarshal look them up by type.
//
// The overload layer rides the same abstraction: Mux.SetLimit arms
// server-side admission control (bounded concurrency plus a short wait
// queue, fast ErrOverloaded rejects beyond both), Breakers wraps any
// Caller with per-link circuit breakers whose probe schedule is a
// deterministic PRF of (seed, link, episode), Hedged races a replica
// set with tail-tolerant duplicate reads, and RetryPolicy gives
// callers capped exponential backoff with deterministic jitter.
// All of it replays byte-identically under a fixed seed.
package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by transports.
var (
	// ErrUnreachable reports that the destination address is not serving
	// (dead peer, partition, or never registered).
	ErrUnreachable = errors.New("transport: address unreachable")
	// ErrNoMethod reports an RPC to a method the destination does not
	// implement.
	ErrNoMethod = errors.New("transport: no such method")
	// ErrAddrInUse reports a second registration of the same address.
	ErrAddrInUse = errors.New("transport: address already registered")
)

// ErrOverloaded reports a request fast-rejected by server-side
// admission control: the destination is alive but its bounded in-flight
// and queue capacity are exhausted. It does NOT match ErrUnreachable —
// the peer answered, loudly — but Retryable classifies it as retryable,
// so callers back off and try again (or a replica) instead of hanging
// on a saturated server.
var ErrOverloaded = &overloadedError{}

type overloadedError struct{}

func (*overloadedError) Error() string { return "transport: server overloaded" }

// RemoteError wraps an error string returned by the remote handler, so
// callers can distinguish transport failures (retryable against a
// replica) from application errors.
type RemoteError struct {
	// Method is the invoked method.
	Method string
	// Msg is the remote error text.
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// Handler processes one RPC request payload and returns the response
// payload. Handlers must be safe for concurrent use and must treat the
// request bytes as read-only.
type Handler func(req []byte) ([]byte, error)

// Mux dispatches incoming RPCs by method name. The zero value is not
// usable; create with NewMux. Registration is expected at setup time;
// dispatch is safe for concurrent use with registration.
//
// SetLimit arms admission control: at most maxInFlight handlers run
// concurrently, at most maxQueued callers wait for a slot, and every
// request beyond that is fast-rejected with ErrOverloaded instead of
// queuing unboundedly. The caps are plain deterministic counts — no
// clocks, no sampling — so overloaded chaos scenarios replay exactly.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]Handler

	admit    chan struct{} // in-flight slots; nil = unlimited
	maxQueue int
	qmu      sync.Mutex
	queued   int
}

// NewMux returns an empty multiplexer.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]Handler)}
}

// Handle registers a handler for a method name, replacing any previous
// registration.
func (m *Mux) Handle(method string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[method] = h
}

// SetLimit arms (or, with maxInFlight ≤ 0, disarms) admission control:
// up to maxInFlight concurrent handlers, up to maxQueued waiting
// callers, fast ErrOverloaded rejects beyond that. Call at setup time,
// before the mux serves traffic.
func (m *Mux) SetLimit(maxInFlight, maxQueued int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if maxInFlight <= 0 {
		m.admit = nil
		m.maxQueue = 0
		return
	}
	if maxQueued < 0 {
		maxQueued = 0
	}
	m.admit = make(chan struct{}, maxInFlight)
	m.maxQueue = maxQueued
}

// Dispatch routes one request to its handler, applying admission
// control when armed: a request that finds every in-flight slot busy
// and the wait queue full is rejected immediately with ErrOverloaded —
// the server sheds load instead of hanging the caller.
func (m *Mux) Dispatch(method string, req []byte) ([]byte, error) {
	m.mu.RLock()
	h := m.handlers[method]
	admit := m.admit
	maxQueue := m.maxQueue
	m.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, method)
	}
	if admit != nil {
		select {
		case admit <- struct{}{}:
		default:
			m.qmu.Lock()
			if m.queued >= maxQueue {
				m.qmu.Unlock()
				return nil, fmt.Errorf("%w: %s", ErrOverloaded, method)
			}
			m.queued++
			m.qmu.Unlock()
			admit <- struct{}{}
			m.qmu.Lock()
			m.queued--
			m.qmu.Unlock()
		}
		defer func() { <-admit }()
	}
	return h(req)
}

// Methods returns the registered method names (for diagnostics).
func (m *Mux) Methods() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.handlers))
	for k := range m.handlers {
		out = append(out, k)
	}
	return out
}

// Caller issues RPCs.
type Caller interface {
	// Call invokes method at addr with the encoded request payload
	// and returns the response payload. Application errors surface as
	// *RemoteError; connectivity problems as ErrUnreachable (possibly
	// wrapped).
	Call(addr, method string, req []byte) ([]byte, error)
}

// Network is a Caller that peers can also serve on.
type Network interface {
	Caller
	// Register starts serving the mux at addr and returns a function
	// that stops serving (the peer "leaves the network").
	Register(addr string, mux *Mux) (stop func(), err error)
}

// Invoke is the typed convenience wrapper around Caller.Call: it encodes
// req, performs the call, and decodes into resp (pass nil to discard the
// response payload).
func Invoke(c Caller, addr, method string, req, resp any) error {
	payload, err := Marshal(req)
	if err != nil {
		return err
	}
	out, err := c.Call(addr, method, payload)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	return Unmarshal(out, resp)
}
