package main

import (
	"fmt"
	"math"
	"net"
	"sort"
	"time"

	"iqn/internal/dataset"
	"iqn/internal/ir"
	"iqn/internal/minerva"
	"iqn/internal/telemetry"
	"iqn/internal/transport"
)

// spec is one workload's parameters. They are printed with every result.
type spec struct {
	Name string `json:"name"`
	// DataSeed generates the deployment: the corpus, its collections,
	// the synopsis permutations and the query pool. It is fixed per
	// workload; the run's --seed draws the request stream over it.
	DataSeed  int64   `json:"data_seed"`
	Transport string  `json:"transport"` // "inmem" or "tcp" (multiplexed framing)
	Docs      int     `json:"docs"`
	Fragments int     `json:"fragments"` // sliding-window collection assignment
	Window    int     `json:"window"`
	Offset    int     `json:"offset"`
	CacheTTL  string  `json:"cache_ttl"` // directory read cache TTL; "0s" disables it
	Pool      int     `json:"query_pool"`
	ZipfS     float64 `json:"zipf_s"`
	// Initiators is how many peers issue searches, spread evenly over
	// the ring's collection order; 0 means every peer.
	Initiators int `json:"initiators"`
	K          int `json:"k"`
	MaxPeers   int `json:"max_peers"`
	Clients    int `json:"clients"`
}

// An untraced run measures in cycles of about cycleLen: searches, then
// republishes for publishShare of the cycle, so the publish metrics
// exist for every workload.
const (
	cycleLen     = 6 * time.Second
	publishShare = 0.3
)

// cacheOn reports whether the workload's peers keep a directory cache.
func (s spec) cacheOn() bool { return s.CacheTTL != "0s" }

// Workloads. Each stresses different layers:
//   - search-warm: steady-state serving. The directory cache is warm
//     and the local query at each peer dominates a search.
//   - search-cold-tcp: no directory cache and real sockets, so every
//     search pays ring lookups, directory fetches, the codec and the
//     transport; the local query is small.
var workloads = []spec{
	{Name: "search-warm", DataSeed: 1, Transport: "inmem", Docs: 30000, Fragments: 20, Window: 4, Offset: 2,
		CacheTTL: "1h", Pool: 50, ZipfS: 1.1, K: 50, MaxPeers: 5, Clients: 2},
	{Name: "search-cold-tcp", DataSeed: 1, Transport: "tcp", Docs: 12000, Fragments: 64, Window: 4, Offset: 1,
		CacheTTL: "0s", Pool: 400, ZipfS: 1.01, Initiators: 8, K: 50, MaxPeers: 5, Clients: 2},
}

func findWorkload(name string) (spec, error) {
	for _, s := range workloads {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are what the load runner needs while it measures: the query pool
// and the op sequence, drawn from the run's seed.
type inputs struct {
	spec       spec
	seed       int64 // the run's seed: it draws the op sequence
	peers      int
	pool       []dataset.Query
	cdf        []float64 // Zipf CDF over pool ranks
	initiators []int     // peer indexes that issue searches
}

// source is the corpus and its split into peer collections. Runs
// hold it only to boot and, regenerated, to build the recall reference:
// kept while measuring, it would only add to the heap the collector
// scans and so to the variance of every timing.
type source struct {
	corpus *dataset.Corpus
	cols   []dataset.Collection
}

func generate(s spec) source {
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: s.Docs, Seed: s.DataSeed})
	return source{corpus, dataset.AssignSlidingWindow(corpus, s.Fragments, s.Window, s.Offset)}
}

// makeInputs generates the workload's deployment data and the run's op
// sequence. The data is the same for every seed. Drawn per seed, the
// corpus and query pool moved recall and wire bytes per search by up to
// 8% between seeds, and Zipf weights put 16-26% of all searches on the
// first query of the pool, so one draw of the pool set the cost of a
// whole run.
func makeInputs(s spec, seed int64) (*inputs, source, error) {
	src := generate(s)
	pool := dataset.GenerateQueries(src.corpus, dataset.QueryConfig{Count: s.Pool, Seed: s.DataSeed})
	if len(pool) == 0 || len(src.cols) == 0 {
		return nil, source{}, fmt.Errorf("workload %s: empty inputs", s.Name)
	}
	in := &inputs{spec: s, seed: seed, peers: len(src.cols), pool: pool}
	var sum float64
	in.cdf = make([]float64, len(pool))
	for r := range pool {
		sum += math.Pow(float64(r+1), -s.ZipfS)
		in.cdf[r] = sum
	}
	for r := range in.cdf {
		in.cdf[r] /= sum
	}
	n := s.Initiators
	if n <= 0 || n > in.peers {
		n = in.peers
	}
	for i := 0; i < n; i++ {
		in.initiators = append(in.initiators, i*in.peers/n)
	}
	return in, src, nil
}

// op is one entry of the shared op sequence.
type op struct {
	publish bool
	peer    int   // initiator or publisher, an index into the peers
	query   int   // pool index (searches)
	epoch   int64 // publication round (publishes)
}

// splitmix64 is a fixed-output mixer: op i is a pure function of the
// seed and i, whichever client happens to draw it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// searchAt is the i-th search: initiators rotate, queries follow Zipf.
func (in *inputs) searchAt(i int64) op {
	u := float64(splitmix64(uint64(in.seed)*0x632be59bd9b4e019^uint64(i))>>11) / (1 << 53)
	q := sort.SearchFloat64s(in.cdf, u)
	if q >= len(in.pool) {
		q = len(in.pool) - 1
	}
	return op{peer: in.initiators[int(i%int64(len(in.initiators)))], query: q}
}

// publishAt is the j-th republish: publishers rotate over every peer,
// each at the next epoch.
func (in *inputs) publishAt(j int64) op {
	return op{publish: true, peer: int(j % int64(in.peers)), epoch: j + 1}
}

// deployment is one booted network.
type deployment struct {
	net     *minerva.Network
	wire    *wire
	views   []*view // by peer index
	metrics *telemetry.Registry
	tcp     *transport.TCP
}

func (d *deployment) close() {
	d.net.Close()
	if d.tcp != nil {
		d.tcp.CloseIdle()
	}
}

// boot deploys the workload's network: one peer per collection, ring
// built, collections indexed, posts published. This is what setup_s
// times.
func boot(in *inputs, cols []dataset.Collection) (*deployment, error) {
	ttl, err := time.ParseDuration(in.spec.CacheTTL)
	if err != nil {
		return nil, err
	}
	d := &deployment{metrics: telemetry.NewRegistry()}
	d.wire = &wire{}
	switch in.spec.Transport {
	case "inmem":
		d.wire.inner = transport.NewInMem()
	case "tcp":
		d.tcp = transport.NewTCP()
		d.wire.inner = d.tcp
		if d.wire.dial, err = reserveLoopback(cols); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", in.spec.Transport)
	}
	byName := map[string]*view{}
	netFor := func(name string) transport.Network {
		v := &view{w: d.wire}
		byName[name] = v
		return v
	}
	cfg := minerva.Config{
		SynopsisSeed:      uint64(in.spec.DataSeed) + 99,
		DirectoryCacheTTL: ttl,
		Metrics:           d.metrics,
	}
	d.net, err = minerva.BuildNetworkEndpoints(&view{w: d.wire}, netFor, nil, cols, cfg)
	if err != nil {
		if d.tcp != nil {
			d.tcp.CloseIdle()
		}
		return nil, err
	}
	for _, p := range d.net.Peers {
		d.views = append(d.views, byName[p.Name()])
	}
	return d, nil
}

// reserveLoopback picks a free loopback port for every collection's
// peer by binding and releasing it.
func reserveLoopback(cols []dataset.Collection) (map[string]string, error) {
	out := make(map[string]string, len(cols))
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for _, c := range cols {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		held = append(held, l)
		out[c.Name] = l.Addr().String()
	}
	return out, nil
}

// buildReference indexes the whole corpus centrally: the ground truth
// that Network.ReferenceTopK, and with it recall, is measured against.
// It is not part of the deployment, so it is built once, outside
// setup_s and after the timed window.
func buildReference(in *inputs) *ir.Index {
	idx := ir.NewIndex()
	for _, d := range generate(in.spec).corpus.Docs {
		idx.AddDocument(d.ID, d.Terms)
	}
	idx.Finalize()
	return idx
}
