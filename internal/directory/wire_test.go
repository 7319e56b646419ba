package directory

import (
	"bytes"
	"fmt"
	"testing"

	"iqn/internal/transport"
)

// TestPeerListMapEncodingIsDeterministic pins the codec's sorted map
// keys: a dir.get_batch answer encodes to the same bytes every time,
// whatever order the map iterates in.
func TestPeerListMapEncodingIsDeterministic(t *testing.T) {
	m := make(map[string]PeerList)
	for i := 0; i < 16; i++ {
		term := fmt.Sprintf("term-%02d", i)
		for p := 0; p < 3; p++ {
			post := mkPost(fmt.Sprintf("peer-%d", p), term, 10+i*p)
			post.Histogram = []HistCell{{Lo: 0, Hi: 1.5, Count: i, Synopsis: post.Synopsis}}
			m[term] = append(m[term], post)
		}
	}
	m["empty"] = nil
	first, err := transport.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		again, err := transport.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
	var back map[string]PeerList
	if err := transport.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(m) || back["empty"] != nil || len(back["term-07"]) != 3 {
		t.Fatalf("decoded %d terms, empty=%v, term-07 has %d posts", len(back), back["empty"], len(back["term-07"]))
	}
}
