package main

import (
	"runtime"
	"sort"
	"time"

	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// layerReport accumulates per-layer metrics and, for a metric that could
// not be measured as named, a note saying what was reported instead.
type layerReport struct {
	values map[string]float64
	notes  map[string]string
}

func newLayerReport() *layerReport {
	return &layerReport{values: map[string]float64{}, notes: map[string]string{}}
}

func (l *layerReport) set(name string, v float64) { l.values[name] = v }

func (l *layerReport) note(name, msg string) {
	if msg != "" {
		l.notes[name] = msg
	}
}

// interval is a span of time on the recorder's clock.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the union of ivs covers. Calls of
// one op overlap (the fan-out runs in parallel), so summing them would
// count the same wall time more than once.
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	if len(clipped) == 0 {
		return 0
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	cur := clipped[0]
	for _, iv := range clipped[1:] {
		if iv.lo <= cur.hi {
			cur.hi = max(cur.hi, iv.hi)
			continue
		}
		total += cur.hi - cur.lo
		cur = iv
	}
	return total + cur.hi - cur.lo
}

// selfTime is an op's duration minus the part its calls cover.
func selfTime(lo, hi time.Duration, calls []interval) time.Duration {
	return hi - lo - covered(calls, lo, hi)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// transportLayer reports per-family call counts, latencies and sizes
// over the traced ops, each family over the ops it serves: chord,
// dir_get and peer_query over the searches, dir_post over the
// republishes. Publishes also resolve ring owners; their chord calls are
// left out, so the chord figures are what a search pays.
func transportLayer(l *layerReport, spans []callSpan, ops []opRecord) {
	publish := map[int]bool{}
	var searches, publishes int
	for _, o := range ops {
		publish[o.id] = o.op.publish
		if o.op.publish {
			publishes++
		} else {
			searches++
		}
	}
	var lat [numFamilies][]float64
	var bytes [numFamilies]int
	errs := 0
	for _, s := range spans {
		if s.op < 0 {
			continue
		}
		if s.err {
			errs++
		}
		if publish[s.op] != (s.fam == famDirPost) {
			continue
		}
		lat[s.fam] = append(lat[s.fam], us(s.end-s.start))
		bytes[s.fam] += s.bytes
	}
	for _, f := range transportFamilies {
		n := "transport." + familyNames[f]
		calls := len(lat[f])
		per := searches
		if f == famDirPost {
			per = publishes
		}
		l.set(n+".calls_per_op", float64(calls)/float64(max(per, 1)))
		if calls == 0 {
			for _, m := range []string{".call_us_p50", ".call_us_p99", ".bytes_per_call"} {
				l.set(n+m, 0)
				l.note(n+m, "no calls of this family in the traced ops")
			}
			continue
		}
		s := sortedCopy(lat[f])
		p50, _ := percentile(s, 0.50)
		p99, note99 := tail(s, 0.99)
		l.set(n+".call_us_p50", p50)
		l.set(n+".call_us_p99", p99)
		l.note(n+".call_us_p99", note99)
		l.set(n+".bytes_per_call", float64(bytes[f])/float64(calls))
	}
	l.set("transport.errors_per_op", float64(errs)/float64(max(len(ops), 1)))
}

// minervaLayer splits each traced search into the time its RPCs cover
// and the rest: the initiator's own work (candidate assembly,
// Select-Best-Peer, the client side of the codec, its local query and
// the merge) is the search's self time; the peer.query calls' union is
// the fan-out, set by the slowest of the parallel peers.
func minervaLayer(l *layerReport, spans []callSpan, ops []opRecord) {
	byOp := map[int][]callSpan{}
	for _, s := range spans {
		if s.op >= 0 {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	var self, fanout []float64
	for _, o := range ops {
		if o.op.publish || o.failed() {
			continue
		}
		var all, queries []interval
		for _, s := range byOp[o.id] {
			iv := interval{s.start, s.end}
			all = append(all, iv)
			if s.fam == famPeerQuery {
				queries = append(queries, iv)
			}
		}
		self = append(self, us(selfTime(o.start, o.end, all)))
		if len(queries) > 0 {
			fanout = append(fanout, us(covered(queries, o.start, o.end)))
		}
	}
	l.set("minerva.search_self_us", median(self))
	l.set("minerva.fanout_us", median(fanout))
	if len(fanout) == 0 {
		l.note("minerva.fanout_us", "no traced search forwarded to a remote peer")
	}
}

// counterLayer reports the program's own counters over the traced ops.
func counterLayer(l *layerReport, before, after telemetry.Snapshot, searches int, cacheOn bool) {
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	per := func(name string) float64 {
		if searches == 0 {
			return 0
		}
		return delta(name) / float64(searches)
	}
	l.set("core.candidates_per_search", per("route.candidates"))
	l.set("core.evaluations_per_search", per("route.evaluations"))
	l.set("core.lazy_skips_per_search", per("route.lazy_skips"))
	if !cacheOn {
		l.set("directory.cache_hit_ratio", 0)
		l.note("directory.cache_hit_ratio", "directory cache off in this workload")
		return
	}
	hits, misses := delta("directory.cache_hits"), delta("directory.cache_misses")
	if hits+misses > 0 {
		l.set("directory.cache_hit_ratio", hits/(hits+misses))
	}
	l.set("directory.synopsis_decodes_per_search", per("directory.cache_synopsis_decodes"))
}

// maxProbePairs bounds the (initiator, query) pairs the direct probes use.
const maxProbePairs = 32

// probeLayers calls single layers directly, through their public
// entry points, on the pairs the traced ops searched. Any calls the
// probes make are recorded under probeOp, apart from the ops.
func probeLayers(l *layerReport, lr *loadRunner, rec *recorder, chk checkResult, cacheOn bool, epoch int64) error {
	pairs := chk.order
	if len(pairs) > maxProbePairs {
		pairs = pairs[:maxProbePairs]
	}
	peers := lr.d.net.Peers
	k := lr.in.spec.K
	rec.take()
	rec.cur.Store(probeOp)
	defer rec.cur.Store(noOp)

	// chord: owner resolution for every query term.
	var lookups []float64
	for _, pr := range pairs {
		p := peers[pr.peer]
		for _, t := range lr.in.pool[pr.query].Terms {
			t0 := time.Now()
			if _, err := p.Node().ReplicaSet(t, p.Directory().Replicas); err != nil {
				return err
			}
			lookups = append(lookups, us(time.Since(t0)))
		}
	}
	chordCalls := 0
	for _, s := range rec.take() {
		if s.fam == famChord {
			chordCalls++
		}
	}
	l.set("chord.replicaset_us", median(lookups))
	l.set("chord.rpcs_per_lookup", float64(chordCalls)/float64(max(len(lookups), 1)))

	// directory: a fresh fetch of each query's PeerLists.
	var fetches []float64
	decodes := 0
	for _, pr := range pairs {
		p := peers[pr.peer]
		t0 := time.Now()
		lists, _, err := p.Directory().FetchAllReportOpts(lr.in.pool[pr.query].Terms, 0, directory.FetchOptions{Fresh: true})
		if err != nil {
			return err
		}
		fetches = append(fetches, us(time.Since(t0)))
		for _, pl := range lists {
			for _, post := range pl {
				if post.Peer != p.Name() && len(post.Synopsis) > 0 {
					decodes++
				}
			}
		}
	}
	l.set("directory.fetch_us", median(fetches))
	if !cacheOn {
		// Without the cache every candidate synopsis is decoded on every
		// search and the program counts none of it: count the posts a
		// search decodes from the fetched lists instead.
		l.set("directory.synopsis_decodes_per_search", float64(decodes)/float64(max(len(pairs), 1)))
		l.note("directory.synopsis_decodes_per_search", "cache off: synopsis-carrying posts of other peers per fetched query")
	}

	// ir: each planned peer's local query and the initiator's merge.
	var localq, merges []float64
	var localNs, postings float64
	calls := 0
	for _, pr := range pairs {
		terms := lr.in.pool[pr.query].Terms
		members := []*minerva.Peer{peers[pr.peer]}
		for _, id := range chk.replays[pr].Plan.Peers {
			if q := lr.d.net.Peer(string(id)); q != nil {
				members = append(members, q)
			}
		}
		var lists [][]ir.Result
		for _, q := range members {
			t0 := time.Now()
			rs := q.LocalSearch(terms, k, false)
			d := time.Since(t0)
			localq = append(localq, us(d))
			localNs += float64(d.Nanoseconds())
			for _, t := range terms {
				postings += float64(q.Index().DocFreq(t))
			}
			calls++
			lists = append(lists, rs)
		}
		t0 := time.Now()
		ir.Merge(lists, 0)
		merges = append(merges, us(time.Since(t0)))
	}
	l.set("ir.localq_us", median(localq))
	l.set("ir.postings_per_query", postings/float64(max(calls, 1)))
	if postings > 0 {
		l.set("ir.localq_ns_per_posting", localNs/postings)
	}
	l.set("ir.merge_us", median(merges))

	// minerva and directory: a republish split into its two steps, on
	// publishProbes peers spread over the ring.
	const publishProbes = 8
	var builds, publishes []float64
	for i := 0; i < publishProbes; i++ {
		p := peers[(i*len(peers))/publishProbes]
		t0 := time.Now()
		posts, err := p.BuildPosts()
		if err != nil {
			return err
		}
		builds = append(builds, us(time.Since(t0)))
		for j := range posts {
			posts[j].Epoch = epoch + int64(i)
		}
		t0 = time.Now()
		if err := p.Directory().Publish(posts); err != nil {
			return err
		}
		publishes = append(publishes, us(time.Since(t0))/1000)
	}
	l.set("minerva.build_posts_us", median(builds))
	l.note("minerva.build_posts_us", "BuildPosts is memoized per index generation: this is what a republish pays; the first build is part of setup_s")
	l.set("directory.publish_ms", median(publishes))
	rec.take()

	codecLayer(l, rec)
	return nil
}

// codecReps repeats each codec measurement so every payload gives a
// stable per-call figure.
const codecReps = 5

// codecLayer times the wire codec on payloads the run itself produced:
// directory answers, peer answers and directory posts captured by the
// wire.
func codecLayer(l *layerReport, rec *recorder) {
	rec.mu.Lock()
	getResp := rec.captured[famDirGet]
	queryResp := rec.captured[famPeerQuery]
	postReq := rec.captured[famDirPost]
	rec.mu.Unlock()

	decodeAll := func(payloads [][]byte, into func() any) []float64 {
		var out []float64
		for _, b := range payloads {
			for r := 0; r < codecReps; r++ {
				v := into()
				t0 := time.Now()
				if err := transport.Unmarshal(b, v); err != nil {
					continue
				}
				out = append(out, us(time.Since(t0)))
			}
		}
		return out
	}
	newLists := func() any { return &map[string]directory.PeerList{} }
	newResults := func() any { return &[]ir.Result{} }
	newPosts := func() any { return &[]directory.Post{} }

	set := func(name string, xs []float64, what string) {
		l.set(name, median(xs))
		if len(xs) == 0 {
			l.note(name, "no "+what+" captured in this run")
		}
	}
	set("codec.peerlist.decode_us", decodeAll(getResp, newLists), "directory answers")
	set("codec.results.decode_us", decodeAll(queryResp, newResults), "peer answers")

	var encodes []float64
	for _, b := range postReq {
		var posts []directory.Post
		if err := transport.Unmarshal(b, &posts); err != nil {
			continue
		}
		for r := 0; r < codecReps; r++ {
			t0 := time.Now()
			if _, err := transport.Marshal(posts); err != nil {
				break
			}
			encodes = append(encodes, us(time.Since(t0)))
		}
	}
	set("codec.posts.encode_us", encodes, "directory posts")

	// Allocations per decoded KB over one pass of every captured payload.
	var kb float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, g := range []struct {
		payloads [][]byte
		into     func() any
	}{{getResp, newLists}, {queryResp, newResults}, {postReq, newPosts}} {
		for _, b := range g.payloads {
			if transport.Unmarshal(b, g.into()) == nil {
				kb += float64(len(b)) / 1024
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	if kb > 0 {
		l.set("codec.decode_allocs_per_kb", float64(ms1.Mallocs-ms0.Mallocs)/kb)
	}
}
