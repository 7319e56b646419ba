package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"iqn/internal/ir"
	"iqn/internal/minerva"
)

// loadRunner runs ops against one deployment.
type loadRunner struct {
	in    *inputs
	d     *deployment
	opts  minerva.SearchOptions
	locks []sync.Mutex // one per peer: a peer runs one driven op at a time

	next   atomic.Int64 // draws of the search sequence
	pubs   atomic.Int64 // draws of the republish sequence
	traced atomic.Int64 // ids of traced ops
}

func newLoadRunner(in *inputs, d *deployment) *loadRunner {
	return &loadRunner{
		in:    in,
		d:     d,
		opts:  minerva.SearchOptions{K: in.spec.K, MaxPeers: in.spec.MaxPeers},
		locks: make([]sync.Mutex, len(d.net.Peers)),
	}
}

// opRecord is one completed op.
type opRecord struct {
	op     op
	lat    time.Duration
	bytes  int64 // request plus response payload bytes of the op's calls
	err    error
	answer uint64 // hash of a search's merged results
	// Set in traced phases only: the op's id and interval on the
	// recorder's clock.
	id         int
	start, end time.Duration
}

func (r *opRecord) failed() bool { return r.err != nil }

// gen draws the next op of a phase; it is safe for concurrent use.
type gen func() op

func (lr *loadRunner) searchGen() gen {
	return func() op { return lr.in.searchAt(lr.next.Add(1) - 1) }
}

func (lr *loadRunner) publishGen() gen {
	return func() op { return lr.in.publishAt(lr.pubs.Add(1) - 1) }
}

// phase is a closed loop: each of clients issues its next op as soon as
// the previous one returns, until dur has passed. It returns the ops in
// completion order per client and the phase's wall time.
func (lr *loadRunner) phase(next gen, clients int, dur time.Duration) ([]opRecord, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]opRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], lr.do(next()))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []opRecord
	for _, recs := range per {
		out = append(out, recs...)
	}
	return out, wall
}

// rewarm searches every (initiator, query) pair once, untimed and
// unchecked, so every directory cache entry a search of the workload can
// use is filled.
func (lr *loadRunner) rewarm(clients int) {
	inits := int64(len(lr.in.initiators))
	n := inits * int64(len(lr.in.pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
				lr.do(op{peer: lr.in.initiators[i%inits], query: int(i / inits)})
			}
		}()
	}
	wg.Wait()
}

// do runs one op on its peer.
func (lr *loadRunner) do(o op) opRecord {
	l := &lr.locks[o.peer]
	l.Lock()
	defer l.Unlock()
	p := lr.d.net.Peers[o.peer]
	v := lr.d.views[o.peer]
	r := opRecord{op: o, id: noOp}
	rec := lr.d.wire.rec.Load()
	if rec != nil {
		r.id = int(lr.traced.Add(1) - 1)
		rec.cur.Store(int64(r.id))
		r.start = rec.now()
	}
	b0 := v.bytes.Load()
	t0 := time.Now()
	if o.publish {
		r.err = p.PublishPostsEpoch(o.epoch)
	} else {
		var sr *minerva.SearchResult
		sr, r.err = p.Search(lr.in.pool[o.query].Terms, lr.opts)
		if r.err == nil {
			if sr.Degraded() {
				r.err = fmt.Errorf("degraded search: %d peers lost", len(sr.Errors))
			}
			r.answer = answerHash(sr.Results)
		}
	}
	r.lat = time.Since(t0)
	r.bytes = v.bytes.Load() - b0
	if rec != nil {
		r.end = rec.now()
		rec.cur.Store(noOp)
	}
	return r
}

// answerHash fingerprints a merged result list, doc IDs and score bits
// in order.
func answerHash(rs []ir.Result) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(b[:8], r.DocID)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pair is an (initiator, query) combination. A search's answer depends
// on both: the initiator merges its own list and is never a candidate.
type pair struct{ peer, query int }

// checkResult is the outcome of the answer check.
type checkResult struct {
	failed     int                            // op errors plus wrong answers
	mismatches int                            // wrong answers alone
	recall     float64                        // mean relative recall over search ops
	replays    map[pair]*minerva.SearchResult // the reference answers
	order      []pair                         // pairs in order of first appearance
}

// check replays every distinct (initiator, query) of recs sequentially
// with the directory cache bypassed, after the timed window, and counts
// each search whose merged list differs from its replay as failed. It
// also scores every search's relative recall against the centralized
// reference top-k, the paper's measure.
func (lr *loadRunner) check(recs []opRecord) (checkResult, error) {
	res := checkResult{replays: map[pair]*minerva.SearchResult{}}
	fresh := lr.opts
	fresh.FreshDirectory = true
	recall := map[pair]float64{}
	var recallSum float64
	var searches int
	for _, r := range recs {
		if r.failed() {
			res.failed++
			continue
		}
		if r.op.publish {
			continue
		}
		k := pair{r.op.peer, r.op.query}
		want, ok := res.replays[k]
		if !ok {
			var err error
			want, err = lr.d.net.Peers[k.peer].Search(lr.in.pool[k.query].Terms, fresh)
			if err != nil {
				return res, fmt.Errorf("replay %v: %w", k, err)
			}
			res.replays[k] = want
			res.order = append(res.order, k)
			ref := lr.d.net.ReferenceTopK(lr.in.pool[k.query].Terms, lr.in.spec.K, false)
			recall[k] = ir.RelativeRecall(want.Results, ref)
		}
		if answerHash(want.Results) != r.answer {
			res.failed++
			res.mismatches++
			continue
		}
		searches++
		recallSum += recall[k]
	}
	if searches > 0 {
		res.recall = recallSum / float64(searches)
	}
	return res, nil
}
