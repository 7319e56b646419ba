package minerva

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"iqn/internal/core"
	"iqn/internal/directory"
	"iqn/internal/ir"
	"iqn/internal/telemetry"
	"iqn/internal/topk"
	"iqn/internal/transport"
)

// This file is the initiator side of the incremental top-k protocol
// (SearchOptions.TopKStreaming): instead of pulling every selected
// peer's full local top-K in one response, the initiator pulls
// score-descending chunks (MethodQueryChunk) round by round and feeds
// them to a topk.Coordinator, which stops each peer the moment its
// score upper bound — seeded from the directory's published MaxScore
// statistics the search already fetched for routing, refined to the
// last score of every received chunk — drops strictly below θ, the
// k-th best merged score. The entries the threshold proves irrelevant
// never cross the wire, and the merged top-k is exactly the pull
// path's (ir.Merge at the same depth) — the protocol trades round
// trips for bytes, never results.
//
// The pull loop is round-based on purpose: within a round every active
// stream is pulled concurrently (like execute's forward fan-out), but
// chunks are ingested and stop decisions taken in stable stream order
// after the round completes. Chunk counts, early stops, and the span
// tree are therefore deterministic functions of the query's inputs and
// fault schedule — never of goroutine scheduling — which is what lets
// sim's differential twin runs compare traces byte for byte.
//
// Failure semantics mirror the pull path's: a stream lost mid-flight
// (peer death, exhausted retries) is removed wholesale — its entries
// are dropped from the merge, so a failed peer contributes nothing,
// exactly as an unanswered peer.query contributes nothing — and
// re-routing may bring in replacement streams. Removing entries can
// lower θ and legitimately re-open streams stopped under the old
// threshold; the round loop re-checks Stopped every round, so the
// final result is exact over the surviving peers. A peer that swapped
// its index mid-stream answers with a stale-cursor error; the stream
// restarts from offset 0 against the new generation (bounded times)
// rather than mixing two snapshots' orderings.

// maxStreamRestarts bounds consecutive stale-cursor restarts with no
// successful chunk in between: a peer re-indexing faster than the
// stream can pull even one chunk is failed, not chased forever. A
// restart that makes progress resets the count — steady churn with
// progress between generation bumps never exhausts the cap.
const maxStreamRestarts = 2

// peerStream is the client-side cursor of one remote result stream.
type peerStream struct {
	peer core.PeerID
	// offset is the next entry index to pull.
	offset int
	// gen pins the server snapshot generation after the first chunk
	// (0 = not pinned yet).
	gen uint64
	// restarts counts stale-cursor restarts since the last successful
	// chunk (reset on progress, capped by maxStreamRestarts).
	restarts int
	// failed marks the stream dead (entries dropped, error reported).
	failed bool
	// reached records that at least one chunk arrived (the stream's
	// candidate seeds Reroute like an answered peer in pull mode).
	reached bool
	// entries counts pulled entries (the per-peer result count).
	entries int
	// delivered accumulates the entries pulled from the current
	// generation, feeding the adaptive log's divergence detector. A
	// stale-cursor restart discards it along with the cursor — the old
	// generation's ordering must not be mixed with the new one's.
	delivered []ir.Result
	// attempts accumulates transport attempts across chunks.
	attempts int
}

// chunkOutcome is one stream's answer (or failure) to a round's pull.
type chunkOutcome struct {
	chunk    transport.ResultChunk
	attempts int
	err      error
}

// isStaleCursor reports whether a chunk pull failed because the
// server's index generation moved under the cursor.
func isStaleCursor(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re) && strings.Contains(err.Error(), staleCursorMsg)
}

// streamSeedBounds computes each candidate peer's seeded score upper
// bound from the directory statistics the search already fetched: the
// sum over the query's distinct terms of the peer's posted MaxScore.
// Local scores aggregate per-term contributions additively over
// distinct terms (ir.Index.Search collapses duplicates), so no
// document at the peer can score above this sum — a sound ceiling
// until the first chunk refines it. Like routing itself, the seed
// trusts the published statistics; a peer whose index grew since its
// last publish is re-bounded by its first chunk.
func streamSeedBounds(terms []string, lists map[string]directory.PeerList) map[core.PeerID]float64 {
	bounds := map[core.PeerID]float64{}
	seen := map[string]bool{}
	for _, term := range terms {
		if seen[term] {
			continue
		}
		seen[term] = true
		for _, post := range lists[term] {
			bounds[core.PeerID(post.Peer)] += post.MaxScore
		}
	}
	return bounds
}

// executeStreaming runs the plan under the incremental top-k protocol
// and returns the execution outcome plus the merged top-k (already at
// the streaming merge depth — the caller does not run ir.Merge).
func (p *Peer) executeStreaming(q core.Query, plan core.Plan, lists map[string]directory.PeerList, initiator *core.Candidate, cands []core.Candidate, opts SearchOptions, prior func(core.PeerID) float64, dl *core.Deadline, span *telemetry.Span) (execOutcome, []ir.Result) {
	m := p.cfg.Metrics
	coord := topk.NewCoordinator(opts.streamK())
	bounds := streamSeedBounds(q.Terms, lists)
	out := execOutcome{
		perPeer:    make(map[core.PeerID]int, len(plan.Peers)),
		deliveries: make(map[core.PeerID][]ir.Result, len(plan.Peers)),
	}
	byID := make(map[core.PeerID]*core.Candidate, len(cands))
	for i := range cands {
		byID[cands[i].Peer] = &cands[i]
	}
	tried := make(map[core.PeerID]bool, len(plan.Peers))
	var reached []core.Candidate
	var streams []*peerStream
	addStream := func(peer core.PeerID) {
		tried[peer] = true
		b, ok := bounds[peer]
		if !ok {
			b = math.Inf(1)
		}
		coord.AddSource(string(peer), b)
		streams = append(streams, &peerStream{peer: peer})
	}
	// Local lists never cross the wire: they are offered to the
	// coordinator complete, like the pull path appending LocalSearch to
	// the merge input.
	offerLocal := func(id string) int {
		self := p.LocalSearch(q.Terms, opts.k(), opts.Conjunctive)
		entries := make([]topk.DocScore, len(self))
		for i, r := range self {
			entries[i] = topk.DocScore{Doc: r.DocID, Score: r.Score}
		}
		coord.Offer(id, entries, true)
		return len(entries)
	}
	selfPlanned := false
	for _, peer := range plan.Peers {
		if string(peer) == p.name {
			out.perPeer[peer] = offerLocal(string(peer))
			selfPlanned = true
			continue
		}
		addStream(peer)
	}
	// Offering the initiator's own results before the first pull gives
	// the coordinator a strong θ up front — the seeded bounds can then
	// cut weak peers off with zero chunks pulled.
	if !opts.DisableSelf && !selfPlanned {
		offerLocal("self:" + p.name)
	}
	chunkSize := opts.chunkSize(p.cfg)
	rerouteRounds := 0
	for round := 0; ; round++ {
		var batch []*peerStream
		for _, ps := range streams {
			if ps.failed || coord.Stopped(string(ps.peer)) {
				continue
			}
			batch = append(batch, ps)
		}
		if len(batch) == 0 {
			break
		}
		pullSpan := span.Child("pull")
		pullSpan.SetInt("round", int64(round))
		pullSpan.SetInt("peers", int64(len(batch)))
		if dl.Expired() {
			pullSpan.Set("budget_expired", "true")
			pullSpan.End()
			for _, ps := range batch {
				ps.failed = true
				coord.RemoveSource(string(ps.peer))
				out.perPeer[ps.peer] = 0
				out.errs = append(out.errs, PerPeerError{
					Peer:        ps.peer,
					Attempts:    ps.attempts,
					Err:         "minerva: deadline budget exhausted mid-stream",
					Unreachable: true,
				})
			}
			break
		}
		pullStart := time.Now()
		outcomes := p.pullRound(batch, q, opts, chunkSize, dl, pullSpan)
		pullSpan.SetDuration("spent", time.Since(pullStart))
		pullSpan.End()
		var failed []int // indexes into out.errs from this round
		fail := func(ps *peerStream, errText string, unreachable bool) {
			ps.failed = true
			coord.RemoveSource(string(ps.peer))
			out.perPeer[ps.peer] = 0
			out.errs = append(out.errs, PerPeerError{
				Peer:        ps.peer,
				Attempts:    ps.attempts,
				Err:         errText,
				Unreachable: unreachable,
			})
			failed = append(failed, len(out.errs)-1)
		}
		for i, co := range outcomes {
			ps := batch[i]
			ps.attempts += co.attempts
			if co.err != nil {
				if isStaleCursor(co.err) && ps.restarts < maxStreamRestarts {
					// The peer re-indexed under the cursor: drop what the
					// old generation sent and restart against the new one.
					ps.restarts++
					ps.offset, ps.gen = 0, 0
					ps.delivered = nil
					b, ok := bounds[ps.peer]
					if !ok {
						b = math.Inf(1)
					}
					coord.AddSource(string(ps.peer), b)
					m.Counter("topk.stream_restarts").Inc()
					continue
				}
				m.Counter("search.peer_errors." + errCause(co.err)).Inc()
				fail(ps, co.err.Error(), transport.Retryable(co.err))
				continue
			}
			chunk := co.chunk
			if len(chunk.Entries) == 0 && !chunk.Done {
				// A non-final empty chunk would stall the cursor forever;
				// treat it as a protocol violation, not progress.
				fail(ps, "minerva: empty non-final result chunk", false)
				continue
			}
			ps.gen = chunk.Gen
			// A successful chunk at the (possibly new) generation is
			// progress: forgive past stale-cursor restarts so the cap
			// bounds consecutive fruitless restarts, not lifetime restarts.
			// A long-lived stream under steady churn would otherwise be
			// dropped after maxStreamRestarts+1 generation bumps even when
			// every restart drained fresh entries.
			ps.restarts = 0
			m.Counter("topk.chunks").Inc()
			if n := len(chunk.Entries); n > 0 {
				entries := make([]topk.DocScore, n)
				for j, e := range chunk.Entries {
					entries[j] = topk.DocScore{Doc: e.Doc, Score: e.Score}
				}
				coord.Offer(string(ps.peer), entries, chunk.Done)
				for _, e := range chunk.Entries {
					ps.delivered = append(ps.delivered, ir.Result{DocID: e.Doc, Score: e.Score})
				}
				ps.offset += n
				ps.entries += n
				m.Counter("topk.stream_entries").Add(int64(n))
			} else {
				coord.Offer(string(ps.peer), nil, true)
			}
			if !ps.reached {
				ps.reached = true
				if c := byID[ps.peer]; c != nil {
					reached = append(reached, *c)
				}
			}
		}
		if len(failed) == 0 || opts.NoReroute || rerouteRounds >= maxRerouteRounds || dl.Expired() {
			continue
		}
		var remaining []core.Candidate
		for i := range cands {
			if !tried[cands[i].Peer] {
				remaining = append(remaining, cands[i])
			}
		}
		if len(remaining) == 0 {
			continue
		}
		rerouteRounds++
		rerouteSpan := span.Child("reroute")
		rerouteSpan.SetInt("failed", int64(len(failed)))
		rerouteSpan.SetInt("remaining", int64(len(remaining)))
		ropts := core.Options{
			MaxPeers:      len(failed),
			Aggregation:   opts.Aggregation,
			UseHistograms: opts.UseHistograms,
			Parallelism:   opts.Parallelism,
			Span:          rerouteSpan,
			Metrics:       m,
			Prior:         prior,
		}
		if opts.NoveltyOnly {
			ropts.QualityWeight, ropts.NoveltyWeight = 0, 1
		}
		replan, err := core.Reroute(q, initiator, reached, remaining, ropts)
		rerouteSpan.End()
		if err != nil {
			continue
		}
		// Pair replacements with this round's failures in selection
		// order; replacement streams join the next round's batch.
		for j, np := range replan.Peers {
			if j < len(failed) {
				out.errs[failed[j]].Replacement = np
			}
			out.rerouted = append(out.rerouted, np)
			addStream(np)
		}
	}
	for _, ps := range streams {
		if ps.failed {
			continue
		}
		out.perPeer[ps.peer] = ps.entries
		out.deliveries[ps.peer] = ps.delivered
		if coord.EarlyStopped(string(ps.peer)) {
			m.Counter("topk.early_stops").Inc()
		}
	}
	out.budgetExpired = dl.Expired() && len(out.errs) > 0
	// Same deterministic error order as execute — and the same caveat:
	// Replacement pairing indexes into errs, so the sort must stay after
	// the last round.
	sort.Slice(out.errs, func(i, j int) bool {
		if out.errs[i].Peer != out.errs[j].Peer {
			return out.errs[i].Peer < out.errs[j].Peer
		}
		return out.errs[i].Err < out.errs[j].Err
	})
	mergeSpan := span.Child("merge")
	docs := coord.Results()
	merged := make([]ir.Result, len(docs))
	for i, d := range docs {
		merged[i] = ir.Result{DocID: d.Doc, Score: d.Score}
	}
	mergeSpan.SetInt("merged_docs", int64(coord.Merged()))
	mergeSpan.SetInt("results", int64(len(merged)))
	mergeSpan.End()
	return out, merged
}

// pullRound pulls one chunk from every stream of the batch
// concurrently, each under the search's retry policy capped by the
// remaining deadline budget, and reports per-stream outcomes in batch
// order. Spans are created sequentially before any goroutine launches,
// exactly like forward, so the trace stays deterministic under any
// scheduling.
func (p *Peer) pullRound(batch []*peerStream, q core.Query, opts SearchOptions, chunkSize int, dl *core.Deadline, span *telemetry.Span) []chunkOutcome {
	caller := p.caller()
	policy := opts.Retry
	policy.Timeout = dl.Cap(policy.Timeout)
	out := make([]chunkOutcome, len(batch))
	spans := make([]*telemetry.Span, len(batch))
	for i, ps := range batch {
		spans[i] = span.Child("call")
		spans[i].Setf("peer", "%s", ps.peer)
		spans[i].SetInt("offset", int64(ps.offset))
	}
	var wg sync.WaitGroup
	for i, ps := range batch {
		wg.Add(1)
		go func(i int, ps *peerStream) {
			defer wg.Done()
			s := spans[i]
			req := chunkRequest{
				Terms:       q.Terms,
				K:           opts.k(),
				Conjunctive: opts.Conjunctive,
				Offset:      ps.offset,
				Size:        chunkSize,
				Gen:         ps.gen,
			}
			// The response is the raw chunk frame (transport.EncodeChunk),
			// not a registered wire type, so the call runs through the
			// policy directly and decodes with DecodeChunk instead of
			// InvokeRetry's Unmarshal.
			payload, err := transport.Marshal(req)
			if err != nil {
				out[i] = chunkOutcome{err: err}
				s.Set("cause", "marshal")
				s.End()
				return
			}
			var raw []byte
			attempts, err := policy.Do(string(ps.peer), func() error {
				var cerr error
				raw, cerr = transport.CallTimeout(caller, string(ps.peer), methodQueryChunk, payload, policy.Timeout)
				return cerr
			})
			if attempts > 1 {
				p.cfg.Metrics.Counter("transport.retries").Add(int64(attempts - 1))
			}
			s.SetInt("attempts", int64(attempts))
			if err == nil {
				var chunk transport.ResultChunk
				if chunk, err = transport.DecodeChunk(raw); err == nil {
					s.SetInt("entries", int64(len(chunk.Entries)))
					if chunk.Done {
						s.Set("done", "true")
					}
					out[i] = chunkOutcome{chunk: chunk, attempts: attempts}
					s.End()
					return
				}
			}
			s.Set("cause", errCause(err))
			out[i] = chunkOutcome{attempts: attempts, err: err}
			s.End()
		}(i, ps)
	}
	wg.Wait()
	return out
}
