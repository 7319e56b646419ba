package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
)

// This file is the wire codec of every RPC payload: one canonical
// binary form, written by hand per type, with no per-message type
// descriptors and no reflection beyond one type lookup per call.
//
// Primitives (a payload is their concatenation in field order; there is
// no framing beyond what each primitive carries):
//
//	unsigned int   uvarint (canonical: the shortest encoding only)
//	signed int     zigzag varint (int, int64)
//	bool           one byte, 0 or 1
//	float64        8 bytes, IEEE-754 bits, big-endian
//	string, []byte uvarint length, then the bytes
//	slice          uvarint count, then each element
//	map[string]V   uvarint count, then key/value pairs, keys strictly
//	               ascending
//	struct         its fields in declaration order
//
// Every value has exactly one encoding, so a payload that decodes
// re-encodes to the same bytes, and encoding the same value twice gives
// the same bytes (map keys are sorted, not iterated). The decoder
// checks every count and length against the bytes left before it
// allocates, rejects trailing bytes, and decodes an empty slice or
// byte string as nil.
//
// Types are looked up in a registry keyed by reflect.Type: transport
// registers the scalars below, and each package registers the codecs of
// its own wire types in init with Register. Marshal and Unmarshal
// refuse unregistered types.

// Register installs the wire codec of T, used by Marshal for values of
// type T and by Unmarshal for destinations of type *T. enc appends v's
// encoding to b; dec reads one value (a decoding failure is recorded in
// the Reader, and dec's return value is then discarded). Call from init;
// a second registration of T replaces the first.
func Register[T any](enc func(b []byte, v T) []byte, dec func(r *Reader) T) {
	encoders.Store(reflect.TypeFor[T](), func(b []byte, v any) []byte {
		return enc(b, v.(T))
	})
	decoders.Store(reflect.TypeFor[*T](), func(data []byte, p any) error {
		r := Reader{buf: data}
		v := dec(&r)
		if err := r.Finish(); err != nil {
			return err
		}
		*p.(*T) = v
		return nil
	})
}

var (
	encoders sync.Map // reflect.Type T → func([]byte, any) []byte
	decoders sync.Map // reflect.Type *T → func([]byte, any) error
)

func init() {
	Register(AppendInt, (*Reader).Int)
	Register(AppendVarint, (*Reader).Varint)
	Register(AppendUvarint, (*Reader).Uvarint)
	Register(AppendBool, (*Reader).Bool)
	Register(AppendString, (*Reader).String)
	Register(AppendStrings, ReadStrings)
	Register(func(b []byte, _ struct{}) []byte { return b },
		func(*Reader) struct{} { return struct{}{} })
}

// encodeBufs recycles Marshal's scratch buffers, so a payload is
// encoded without regrowing and copied out once at its exact size.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1<<10); return &b }}

// maxPooledBuf caps the scratch buffers kept for reuse; a rare large
// payload (a directory handoff) does not pin its buffer.
const maxPooledBuf = 64 << 10

// Marshal encodes an RPC payload value with its registered wire codec.
func Marshal(v any) ([]byte, error) {
	enc, ok := encoders.Load(reflect.TypeOf(v))
	if !ok {
		return nil, fmt.Errorf("transport: encode: no wire codec registered for %T", v)
	}
	bp := encodeBufs.Get().(*[]byte)
	b := enc.(func([]byte, any) []byte)((*bp)[:0], v)
	out := slices.Clone(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		encodeBufs.Put(bp)
	}
	return out, nil
}

// Unmarshal decodes an RPC payload into v, a pointer to a registered
// wire type. On error *v is left unchanged.
func Unmarshal(data []byte, v any) error {
	dec, ok := decoders.Load(reflect.TypeOf(v))
	if !ok {
		return fmt.Errorf("transport: decode: no wire codec registered for %T", v)
	}
	if err := dec.(func([]byte, any) error)(data, v); err != nil {
		return fmt.Errorf("transport: decode %T: %w", v, err)
	}
	return nil
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendInt appends v as a zigzag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends f's IEEE-754 bits, big-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b []byte, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendStrings appends a string slice.
func AppendStrings(b []byte, s []string) []byte { return AppendSlice(b, s, AppendString) }

// AppendSlice appends s's count and then each element with enc.
func AppendSlice[T any](b []byte, s []T, enc func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = enc(b, v)
	}
	return b
}

// AppendMap appends m's count and then its entries in ascending key
// order, so equal maps always encode to equal bytes.
func AppendMap[V any](b []byte, m map[string]V, enc func([]byte, V) []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = enc(AppendString(b, k), m[k])
	}
	return b
}

// Reader decodes one payload. The first failure sticks: later reads
// return zero values, and Finish reports the failure, so decoders are
// straight-line code with one error check at the end.
type Reader struct {
	buf []byte
	err error
}

// errTruncated reports a payload that ends inside a value.
var errTruncated = errors.New("payload truncated")

// fail records the first decoding failure.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = nil
	}
}

// Finish returns the first decoding failure, or an error when bytes are
// left over after the value.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Uvarint reads a canonical unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := canonicalUvarint(r.buf)
	if n <= 0 {
		if n == 0 {
			r.fail(errTruncated)
		} else {
			r.fail(errors.New("malformed uvarint"))
		}
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint that fits an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("int %d overflows", v))
		return 0
	}
	return int(v)
}

// Bool reads a bool byte; anything but 0 or 1 is an error.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == 0 {
		r.fail(errTruncated)
		return false
	}
	c := r.buf[0]
	if c > 1 {
		r.fail(fmt.Errorf("bool byte %#x", c))
		return false
	}
	r.buf = r.buf[1:]
	return c == 1
}

// Float reads an 8-byte IEEE-754 float.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// Count reads a count of items that each take at least minSize bytes
// and fails unless the bytes left can hold that many — so no caller
// allocates for more items than the payload could carry.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/minSize) {
		r.fail(fmt.Errorf("count %d of items of at least %d bytes exceeds the %d bytes left", n, minSize, len(r.buf)))
		return 0
	}
	return int(n)
}

// raw reads a length-prefixed byte run, aliasing the payload.
func (r *Reader) raw() []byte {
	n := r.Count(1)
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.raw()) }

// Bytes reads a length-prefixed byte slice into fresh memory; an empty
// one decodes as nil.
func (r *Reader) Bytes() []byte {
	p := r.raw()
	if len(p) == 0 {
		return nil
	}
	return slices.Clone(p)
}

// ReadStrings reads a string slice.
func ReadStrings(r *Reader) []string { return ReadSlice(r, 1, (*Reader).String) }

// ReadSlice reads a slice written by AppendSlice; minSize is the fewest
// bytes one element encodes to. An empty slice decodes as nil.
func ReadSlice[T any](r *Reader, minSize int, dec func(*Reader) T) []T {
	n := r.Count(minSize)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = dec(r)
		if r.err != nil {
			return nil
		}
	}
	return out
}

// ReadMap reads a map written by AppendMap; minSize is the fewest bytes
// one value encodes to. Keys out of ascending order (or repeated) are
// an error, since they have no canonical form.
func ReadMap[V any](r *Reader, minSize int, dec func(*Reader) V) map[string]V {
	n := r.Count(1 + minSize)
	if r.err != nil {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := r.String()
		if i > 0 && k <= prev && r.err == nil {
			r.fail(fmt.Errorf("map key %q not above %q", k, prev))
		}
		m[k] = dec(r)
		if r.err != nil {
			return nil
		}
		prev = k
	}
	return m
}
