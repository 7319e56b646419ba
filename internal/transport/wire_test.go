package transport_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"

	// The packages that own RPC wire types register their codecs in init.
	_ "iqn/internal/chord"
	_ "iqn/internal/directory"
	_ "iqn/internal/minerva"
	"iqn/internal/transport"
)

// wireTable names every wire type the RPC handlers exchange, by
// reflect.Type name. FuzzWireCodec and the tests below run over it, and
// TestWireTableMatchesRegistry fails when a package registers a type
// the table does not list.
var wireTable = []string{
	// transport scalars
	"[]string", "bool", "int", "int64", "string", "struct {}", "uint64",
	// chord: find_successor, closest_preceding, get_predecessor, notify,
	// successors, ping, leave
	"[]chord.NodeRef", "chord.ID", "chord.NodeRef", "chord.leaveNotice",
	// directory: post, get, get_batch, prune, digest, repair, get_repair,
	// handoff, handoff_push, withdraw
	"[]directory.Post", "directory.PeerList", "directory.digestResponse",
	"directory.getRepairResponse", "directory.handoffPush",
	"directory.handoffRequest", "directory.repairRequest",
	"directory.withdrawRequest", "map[string]directory.PeerList",
	// minerva: peer.query, peer.query_chunk's request
	"[]ir.Result", "minerva.chunkRequest", "minerva.queryRequest",
}

// wireTypes resolves wireTable against the registry.
func wireTypes(t testing.TB) []reflect.Type {
	byName := make(map[string]reflect.Type)
	for _, typ := range transport.WireTypes() {
		byName[typ.String()] = typ
	}
	out := make([]reflect.Type, len(wireTable))
	for i, name := range wireTable {
		typ, ok := byName[name]
		if !ok {
			t.Fatalf("wire type %s is not registered", name)
		}
		out[i] = typ
	}
	return out
}

func TestWireTableMatchesRegistry(t *testing.T) {
	wireTypes(t)
	for _, typ := range transport.WireTypes() {
		// Types declared inside transport's own tests register at run
		// time and are not RPC payloads.
		if typ.PkgPath() == "iqn/internal/transport" {
			continue
		}
		if !slices.Contains(wireTable, typ.String()) {
			t.Errorf("registered wire type %s is missing from wireTable", typ)
		}
	}
}

// sample builds a value of typ with every field, element and entry
// set to something non-zero: two elements per slice, two keys per map,
// negative ints so zigzag is exercised.
func sample(typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-300)
	case reflect.Uint8:
		v.SetUint(0xab)
	case reflect.Uint64:
		v.SetUint(1<<40 + 7)
	case reflect.Float64:
		v.SetFloat(-2.5)
	case reflect.String:
		v.SetString("term")
	case reflect.Slice:
		s := reflect.MakeSlice(typ, 2, 2)
		for i := 0; i < 2; i++ {
			s.Index(i).Set(sample(typ.Elem()))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(typ)
		for _, k := range []string{"beta", "alpha"} {
			m.SetMapIndex(reflect.ValueOf(k), sample(typ.Elem()))
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).Set(sample(typ.Field(i).Type))
		}
	}
	return v
}

func mustMarshal(t testing.TB, v reflect.Value) []byte {
	b, err := transport.Marshal(v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeAllocs decodes data as typ and returns the value, the bytes
// the decode allocated (the least of three runs, so a stray allocation
// elsewhere in the process does not count) and the decode error.
func decodeAllocs(typ reflect.Type, data []byte) (reflect.Value, uint64, error) {
	var ms0, ms1 runtime.MemStats
	least := ^uint64(0)
	var p reflect.Value
	var err error
	for i := 0; i < 3; i++ {
		p = reflect.New(typ)
		dst := p.Interface()
		runtime.ReadMemStats(&ms0)
		err = transport.Unmarshal(data, dst)
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return p.Elem(), least, err
}

// allocBound is the most a decode of n input bytes may allocate. The
// densest wire types expand about 20x (a one-byte empty string becomes
// a 16-byte header, a map entry a share of a bucket), so a count the
// decoder takes on trust, rather than checking against the bytes left
// times the element's smallest encoding, overshoots it.
func allocBound(n int) uint64 { return 32*uint64(n) + 1<<10 }

func TestWireRoundTrip(t *testing.T) {
	for _, typ := range wireTypes(t) {
		t.Run(typ.String(), func(t *testing.T) {
			in := sample(typ)
			data := mustMarshal(t, in)
			out := reflect.New(typ)
			if err := transport.Unmarshal(data, out.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in.Interface(), out.Elem().Interface()) {
				t.Fatalf("round trip:\n in  %+v\n out %+v", in, out.Elem())
			}
			// The zero value survives too; empty slices come back nil.
			zero := reflect.New(typ).Elem()
			data = mustMarshal(t, zero)
			if err := transport.Unmarshal(data, out.Interface()); err != nil {
				t.Fatal(err)
			}
			if again := mustMarshal(t, out.Elem()); !bytes.Equal(again, data) {
				t.Fatalf("zero value re-encodes as %x, want %x", again, data)
			}
			// Truncation and trailing bytes are errors, and leave the
			// destination untouched.
			full := mustMarshal(t, in)
			dst := reflect.New(typ)
			if len(full) > 0 {
				if err := transport.Unmarshal(full[:len(full)-1], dst.Interface()); err == nil {
					t.Fatal("truncated payload decoded")
				}
			}
			if err := transport.Unmarshal(append(full, 0), dst.Interface()); err == nil {
				t.Fatal("payload with a trailing byte decoded")
			}
			if !dst.Elem().IsZero() {
				t.Fatalf("failed decode wrote %+v", dst.Elem())
			}
		})
	}
}

func TestWireUnregisteredType(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := transport.Marshal(unregistered{}); err == nil {
		t.Fatal("Marshal of an unregistered type succeeded")
	}
	if err := transport.Unmarshal(nil, &unregistered{}); err == nil {
		t.Fatal("Unmarshal into an unregistered type succeeded")
	}
	// A registered type passed by value is not a destination.
	if err := transport.Unmarshal([]byte{2}, 1); err == nil {
		t.Fatal("Unmarshal into a non-pointer succeeded")
	}
}

// TestWireHostileCount splices a lying count or length into every
// position of every type's sample encoding: a huge one, and one equal
// to the bytes that follow it, which only a check against each
// element's smallest encoding rejects. Wherever it lands on a count or
// length prefix the decode must not allocate for the claim.
func TestWireHostileCount(t *testing.T) {
	for _, typ := range wireTypes(t) {
		data := mustMarshal(t, sample(typ))
		for i := 0; i <= len(data); i++ {
			for _, claim := range []uint64{1 << 40, uint64(len(data) - i)} {
				hostile := binary.AppendUvarint(append([]byte(nil), data[:i]...), claim)
				hostile = append(hostile, data[i:]...)
				if _, alloc, _ := decodeAllocs(typ, hostile); alloc > allocBound(len(hostile)) {
					t.Fatalf("%s: count %d spliced at byte %d allocated %d bytes from %d", typ, claim, i, alloc, len(hostile))
				}
			}
		}
	}
}

// FuzzWireCodec feeds arbitrary bytes to the decoder of every wire type
// (the first input byte picks the type). A decode that succeeds must
// re-encode to exactly the input, since the codec has one encoding per
// value, and no decode may allocate more than its input can back.
func FuzzWireCodec(f *testing.F) {
	types := wireTypes(f)
	for i, typ := range types {
		f.Add(byte(i), mustMarshal(f, sample(typ)))
		f.Add(byte(i), mustMarshal(f, reflect.New(typ).Elem()))
	}
	f.Add(byte(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(byte(0), []byte{0x80, 0x00}) // non-minimal uvarint
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		typ := types[int(which)%len(types)]
		v, alloc, err := decodeAllocs(typ, data)
		if alloc > allocBound(len(data)) {
			t.Fatalf("%s: decoding %d bytes allocated %d", typ, len(data), alloc)
		}
		if err != nil {
			return
		}
		if out := mustMarshal(t, v); !bytes.Equal(out, data) {
			t.Fatalf("%s: re-encode diverged:\n in  %x\n out %x", typ, data, out)
		}
	})
}
