package transport

import (
	"reflect"
	"sort"
)

// WireTypes lists every registered wire type, sorted by name, for the
// codec tests of the transport_test package.
func WireTypes() []reflect.Type {
	var out []reflect.Type
	encoders.Range(func(k, _ any) bool {
		out = append(out, k.(reflect.Type))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
