package iqn

import (
	"fmt"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/synopsis"
	"iqn/internal/transport"
)

// Wire codec micro-benchmarks over the payloads that dominate serving
// traffic: directory answers (PeerLists carrying synopses), directory
// posts, peer answers (result lists) and ring references. They use only
// transport.Marshal/Unmarshal, so the same bodies time any codec behind
// that API.

// benchPosts returns n posts for term, each with a 2048-bit MIPs
// synopsis and a two-cell histogram, as a publishing peer builds them.
func benchPosts(b *testing.B, term string, n int) []directory.Post {
	cfg := synopsis.Config{Kind: synopsis.KindMIPs, Bits: 2048, Seed: 1}
	posts := make([]directory.Post, n)
	for i := range posts {
		ids := make([]uint64, 200)
		for j := range ids {
			ids[j] = uint64(i*1000 + j)
		}
		syn, err := cfg.FromIDs(ids).MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		peer := fmt.Sprintf("peer-%03d", i)
		posts[i] = directory.Post{
			Peer: peer, PeerAddr: "127.0.0.1:" + fmt.Sprint(7000+i), Term: term,
			ListLength: 200 + i, MaxScore: 3.25, AvgScore: 1.5,
			TermSpaceSize: 4000, NumDocs: 30000, Synopsis: syn,
			Histogram: []directory.HistCell{{Lo: 0, Hi: 1.5, Count: 150}, {Lo: 1.5, Hi: 3.25, Count: 50}},
			Epoch:     12,
		}
	}
	return posts
}

func mustMarshal(b *testing.B, v any) []byte {
	data, err := transport.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkCodecPeerListMapDecode decodes a four-term dir.get_batch
// answer with 32 posts per term.
func BenchmarkCodecPeerListMapDecode(b *testing.B) {
	b.ReportAllocs()
	m := make(map[string]directory.PeerList)
	for _, term := range []string{"chord", "ring", "peer", "query"} {
		m[term] = benchPosts(b, term, 32)
	}
	data := mustMarshal(b, m)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got map[string]directory.PeerList
		if err := transport.Unmarshal(data, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecPostsEncode encodes a 50-post dir.post request.
func BenchmarkCodecPostsEncode(b *testing.B) {
	b.ReportAllocs()
	var posts []directory.Post
	for i := 0; i < 5; i++ {
		posts = append(posts, benchPosts(b, fmt.Sprintf("term-%d", i), 10)...)
	}
	b.SetBytes(int64(len(mustMarshal(b, posts))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMarshal(b, posts)
	}
}

// BenchmarkCodecResultsDecode decodes a 50-result peer.query answer.
func BenchmarkCodecResultsDecode(b *testing.B) {
	b.ReportAllocs()
	rs := make([]ir.Result, 50)
	for i := range rs {
		rs[i] = ir.Result{DocID: uint64(1_000_003 * (i + 1)), Score: 12.5 / float64(i+1)}
	}
	data := mustMarshal(b, rs)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got []ir.Result
		if err := transport.Unmarshal(data, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecNodeRef encodes and decodes the ring reference that
// every chord RPC answers with.
func BenchmarkCodecNodeRef(b *testing.B) {
	ref := chord.NodeRef{ID: chord.HashAddr("127.0.0.1:7042"), Addr: "127.0.0.1:7042"}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustMarshal(b, ref)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		data := mustMarshal(b, ref)
		for i := 0; i < b.N; i++ {
			var got chord.NodeRef
			if err := transport.Unmarshal(data, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
