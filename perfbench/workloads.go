package main

// The three workloads. Each is a fixed number of operations replayed from
// the seed, not a fixed duration, so dataset growth, WAL compaction count and
// plan-cache history are identical from run to run; the operation count is
// sized from --seconds so one run measures for about that long on a 2-CPU
// host.

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strconv"
)

// opKind names what one operation sends.
type opKind uint8

const (
	opTopK opKind = iota
	opMax
	opSVT
	opBatch
	opAppend
)

func (k opKind) path() string {
	return [...]string{"/v1/topk", "/v1/max", "/v1/svt", "/v1/batch", ""}[k]
}

func (k opKind) String() string {
	return [...]string{"topk", "max", "svt", "batch", "append"}[k]
}

// op is one request of a workload. Bodies are rendered on demand from the
// scenario's shared pools rather than stored, so a 60k-operation run does
// not hold 60k encoded answer vectors.
type op struct {
	kind    opKind
	tenant  string
	eps     float64 // total ε the request charges
	k       int
	thresh  float64
	vec     int    // inline answers: index into scenario.vecs
	dataset string // dataset-backed request or append target
	spec    specJSON
	items   []batchItem // opBatch
	delta   string      // opAppend: FIMI text
	records int         // opAppend: records in delta
}

// batchItem is one entry of a /v1/batch request.
type batchItem struct {
	kind   opKind
	eps    float64
	k      int
	thresh float64
	vec    int
}

// datasetFile is one preloaded dataset.
type datasetFile struct {
	name    string
	path    string
	records int
	items   int
}

// monitorSpec is one SVT threshold monitor registered during setup.
type monitorSpec struct {
	dataset   string
	item      int
	threshold float64
	eps       float64
	maxAns    int
	seed      uint64
}

// scenario is a workload's generated inputs for one seed.
type scenario struct {
	name     string
	datasets []datasetFile
	monitors []monitorSpec
	// subscribe is the index of the monitor whose SSE stream the
	// subscriber reads (-1: none).
	subscribe int
	warm      [][]op // per connection, not measured
	conns     [][]op // per connection, measured
	vecs      [][]byte
	vecLen    []int
	// timed selects the operations the latency percentiles cover (nil:
	// every operation); conn is the operation's connection index.
	timed func(conn int, o *op) bool
	// setups is how many times one run sets the server up; setup_s is the
	// median.
	setups int
	// pinScans checks that each dataset's count_scans ends at exactly one
	// plus the filter reads sent to it.
	pinScans bool
}

// monitorTenant pays for the ingest-monitor workload's monitors.
const monitorTenant = "mon"

// mechInline: 2 connections, 64 Zipf-skewed tenants, the paper's mechanisms
// on client-supplied answer vectors of 1024 entries (batch items carry 128
// each, so a batch also carries ~1k answers). Every request journals one
// charge record. Why: the per-op cost is small, so server -> engine codec
// -> accountant -> persist -> core/rng dominate; plan and store never run,
// so a plan or store change predicts no change here.
func mechInline(seed int64, seconds int) *scenario {
	const (
		conns    = 2
		tenants  = 64
		vecs     = 256
		vecLen   = 1024
		batchLen = 128
		opsPerS  = 1100 // per connection
	)
	s := &scenario{name: "mech-inline", subscribe: -1, setups: 9}
	vr := newRand(seed, "vectors")
	for i := 0; i < vecs; i++ {
		vals := make([]int, vecLen)
		for j := range vals {
			vals[j] = vr.IntN(10_000)
		}
		s.vecs = append(s.vecs, intsJSON(vals))
		s.vecLen = append(s.vecLen, vecLen)
		short := vals[:batchLen]
		s.vecs = append(s.vecs, intsJSON(short))
		s.vecLen = append(s.vecLen, batchLen)
	}
	tz := newZipf(tenants, 1.1)
	gen := func(r *rand.Rand, n int) []op {
		ops := make([]op, n)
		for i := range ops {
			o := &ops[i]
			o.tenant = fmt.Sprintf("t%02d", tz.draw(r))
			o.vec = 2 * r.IntN(vecs)
			o.eps = 0.01
			switch u := r.IntN(100); {
			case u < 40:
				o.kind, o.k = opTopK, 1+r.IntN(10)
			case u < 60:
				o.kind = opMax
			case u < 85:
				o.kind, o.k, o.thresh = opSVT, 1+r.IntN(5), 9900
			default:
				o.kind, o.eps = opBatch, 0
				for j := 0; j < 8; j++ {
					it := batchItem{kind: opKind(j % 3), eps: 0.005, vec: 2*r.IntN(vecs) + 1}
					switch it.kind {
					case opTopK:
						it.k = 1 + r.IntN(5)
					case opSVT:
						it.k, it.thresh = 1+r.IntN(3), 9000
					}
					o.items = append(o.items, it)
					o.eps += it.eps
				}
			}
		}
		return ops
	}
	for c := 0; c < conns; c++ {
		s.warm = append(s.warm, gen(newRand(seed, "warm"+strconv.Itoa(c)), 500))
		s.conns = append(s.conns, gen(newRand(seed, "ops"+strconv.Itoa(c)), opsPerS*seconds))
	}
	return s
}

// queryScan: 2 connections, each replaying its own sequence against its own
// dataset — the kosarak-shaped 990k-record one and the 32-block clustered
// one. Requests are dataset-resolved topk and adaptive svt over a Zipf
// population of 1024 specs (all_items, filter, union/intersect/minus), 4x
// the 256-entry plan cache; the skew puts the hit ratio well away from 50%
// and from 99%, so neither percentile sits on the step between 2 ms hits
// and 30 ms scans. Why: plan compile, zone skipping, the parallel scan and
// the store's plan cache do most of the work here.
func queryScan(dir string, seed int64, seconds int) (*scenario, error) {
	const prewarm = 192
	// The latency percentiles cover the large dataset's connection: with
	// ~80% plan-cache hits its median is a cached topk over 41k answers and
	// its p99 a full scan. The clustered connection's sub-millisecond
	// requests, twelve times as many, would otherwise set the median alone.
	s := &scenario{name: "query-scan", subscribe: -1, setups: 3,
		timed: func(conn int, _ *op) bool { return conn == 0 }}
	large, cluster, err := writeBoth(dir, seed)
	if err != nil {
		return nil, err
	}
	s.datasets = []datasetFile{large, cluster}
	type stream struct {
		ds      datasetFile
		specs   []specJSON
		opsPerS int
		thresh  float64
	}
	streams := []stream{
		{large, largeSpecs(newRand(seed, "large-specs")), 100, 1000},
		{cluster, clusterSpecs(newRand(seed, "cluster-specs")), 1000, 100},
	}
	z := newZipf(specPopulation, 1.1)
	for c, st := range streams {
		gen := func(r *rand.Rand, n int, rank func() int) []op {
			ops := make([]op, n)
			for i := range ops {
				o := &ops[i]
				o.tenant = "q" + strconv.Itoa(r.IntN(8))
				o.dataset, o.spec, o.eps = st.ds.name, st.specs[rank()], 0.01
				if r.IntN(10) < 7 {
					o.kind, o.k = opTopK, 10
				} else {
					o.kind, o.k, o.thresh = opSVT, 5, st.thresh
				}
			}
			return ops
		}
		// The warm-up first requests the prewarm hottest specs once each, in
		// rank order, so the measured phase starts with the plan cache near
		// its steady state instead of in its cold-start transient.
		next := 0
		warm := gen(newRand(seed, "prewarm"+strconv.Itoa(c)), prewarm, func() int { next++; return next - 1 })
		// The popularity ranks requested are one fixed Zipf draw, the same
		// for every seed: which ranks miss the plan cache, and when, follows
		// from the cache's sweep policy, and a seeded rank sequence would
		// move the run's scan count by over 10% from seed to seed. The seed
		// still picks the data, the spec behind each rank, the tenants and
		// the mechanisms.
		ranks := newRand(0, "ranks"+strconv.Itoa(c))
		rank := func() int { return z.draw(ranks) }
		s.warm = append(s.warm, append(warm, gen(newRand(seed, "warm"+strconv.Itoa(c)), st.opsPerS, rank)...))
		s.conns = append(s.conns, gen(newRand(seed, "ops"+strconv.Itoa(c)), st.opsPerS*seconds, rank))
	}
	return s, nil
}

// ingestMonitor: 1 appender connection and 1 SSE subscriber. Appends of 16
// FIMI records go to the large dataset twice for every append to the
// clustered one (so the append median sits inside the large-append mode,
// not on the step between the two), and each append is followed by one
// filter topk on the dataset just appended to. Each dataset has 4 adaptive
// SVT monitors with explicit seeds, two far above and two far below their
// thresholds, with answer budgets larger than the run so none retires. Why:
// this is the only workload on the store write path (PrepareAppend /
// InstallAppend and the O(dataset) generation copy), persist.AppendDelta,
// core.SVTStream and SSE delivery, and the read after each write pays the
// plan-cache flush the append forces.
func ingestMonitor(dir string, seed int64, seconds int) (*scenario, error) {
	const (
		cyclesPerS = 13 // one cycle: large, large, cluster appends + reads
		deltaLen   = 16
	)
	s := &scenario{name: "ingest-monitor", subscribe: 0, setups: 3, pinScans: true,
		timed: func(_ int, o *op) bool { return o.kind == opAppend }}
	large, cluster, err := writeBoth(dir, seed)
	if err != nil {
		return nil, err
	}
	s.datasets = []datasetFile{large, cluster}
	cycles := cyclesPerS * seconds
	warmCycles := 2
	appends := 3 * (cycles + warmCycles)
	mr := newRand(seed, "monitors")
	for _, m := range []struct {
		ds        string
		item      int
		threshold float64
	}{
		{large.name, 0, 1000}, {large.name, 1, 1000}, // counts ~10^5: above
		{large.name, 30_000, 1e6}, {large.name, 40_000, 1e6}, // counts ~10: below
		{cluster.name, 0, 100}, {cluster.name, 1, 100},
		{cluster.name, clusterShared, 1e6}, {cluster.name, clusterShared + 1, 1e6},
	} {
		s.monitors = append(s.monitors, monitorSpec{
			dataset: m.ds, item: m.item, threshold: m.threshold,
			eps: 1, maxAns: appends + 16, seed: mr.Uint64()>>1 + 1,
		})
	}
	lg := newLargeGen(newRand(seed, "large-deltas"))
	cg := &recordGen{r: newRand(seed, "cluster-deltas")}
	reads := newRand(seed, "reads")
	// Single-filter reads: each one after an append is a plan-cache miss
	// costing exactly one record scan, so count_scans must end at one
	// (registration) plus the reads — appends themselves never rescan.
	var lspecs, cspecs []specJSON
	for i, it := range bandItems(newRand(seed, "read-specs"))[:16] {
		lspecs = append(lspecs, filterSpec(0, it))
		if i%4 == 0 {
			cspecs = append(cspecs, filterSpec(0, it%clusterShared))
		} else {
			cspecs = append(cspecs, filterSpec(0, clusterShared+it%(clusterBlocks*clusterPerBlock)))
		}
	}
	pair := func(ds datasetFile) []op {
		var fimi []byte
		var buf []int32
		for i := 0; i < deltaLen; i++ {
			if ds.name == large.name {
				buf = lg.large(buf)
			} else {
				buf = cg.cluster(buf, cg.r.IntN(clusterBlocks))
			}
			fimi = appendFIMIRecord(fimi, buf)
		}
		specs := lspecs
		if ds.name == cluster.name {
			specs = cspecs
		}
		return []op{
			{kind: opAppend, dataset: ds.name, delta: string(fimi), records: deltaLen},
			{kind: opTopK, tenant: "ing", eps: 0.01, k: 10, dataset: ds.name, spec: specs[reads.IntN(len(specs))]},
		}
	}
	gen := func(n int) []op {
		var ops []op
		for i := 0; i < n; i++ {
			ops = append(ops, pair(large)...)
			ops = append(ops, pair(large)...)
			ops = append(ops, pair(cluster)...)
		}
		return ops
	}
	s.warm = [][]op{gen(warmCycles)}
	s.conns = [][]op{gen(cycles)}
	return s, nil
}

func writeBoth(dir string, seed int64) (datasetFile, datasetFile, error) {
	large := datasetFile{name: "large", path: filepath.Join(dir, "large.dat")}
	cluster := datasetFile{name: "cluster", path: filepath.Join(dir, "cluster.dat")}
	var err error
	if large.records, large.items, err = writeLarge(large.path, seed); err != nil {
		return large, cluster, err
	}
	cluster.records, cluster.items, err = writeCluster(cluster.path, seed)
	return large, cluster, err
}

func intsJSON(vals []int) []byte {
	b := []byte{'['}
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendBody renders o's request body.
func (s *scenario) appendBody(dst []byte, o *op) []byte {
	switch o.kind {
	case opBatch:
		dst = append(dst, `{"tenant":"`...)
		dst = append(dst, o.tenant...)
		dst = append(dst, `","requests":[`...)
		for i := range o.items {
			it := &o.items[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"mechanism":"`...)
			dst = append(dst, it.kind.String()...)
			dst = append(dst, `","request":`...)
			dst = s.appendMech(dst, "", it.kind, it.eps, it.k, it.thresh, it.vec, "", "")
			dst = append(dst, '}')
		}
		return append(dst, "]}"...)
	case opAppend:
		dst = append(dst, `{"fimi":`...)
		dst = strconv.AppendQuote(dst, o.delta)
		return append(dst, '}')
	}
	return s.appendMech(dst, o.tenant, o.kind, o.eps, o.k, o.thresh, o.vec, o.dataset, o.spec)
}

func (s *scenario) appendMech(dst []byte, tenant string, kind opKind, eps float64, k int, thresh float64, vec int, dataset string, spec specJSON) []byte {
	dst = append(dst, '{')
	if tenant != "" {
		dst = append(dst, `"tenant":"`...)
		dst = append(dst, tenant...)
		dst = append(dst, `",`...)
	}
	dst = append(dst, `"epsilon":`...)
	dst = strconv.AppendFloat(dst, eps, 'g', -1, 64)
	if kind == opTopK || kind == opSVT {
		dst = append(dst, `,"k":`...)
		dst = strconv.AppendInt(dst, int64(k), 10)
	}
	if kind == opSVT {
		dst = append(dst, `,"adaptive":true,"threshold":`...)
		dst = strconv.AppendFloat(dst, thresh, 'g', -1, 64)
	}
	if dataset != "" {
		dst = append(dst, `,"dataset":"`...)
		dst = append(dst, dataset...)
		dst = append(dst, `","queries":`...)
		dst = append(dst, spec...)
	} else {
		dst = append(dst, `,"monotonic":true,"answers":`...)
		dst = append(dst, s.vecs[vec]...)
	}
	return append(dst, '}')
}

// opsTotal counts measured operations across connections.
func (s *scenario) opsTotal() int {
	n := 0
	for _, c := range s.conns {
		n += len(c)
	}
	return n
}

// epsByTenant sums the ε every planned request and monitor would charge.
func (s *scenario) epsByTenant() map[string]float64 {
	m := map[string]float64{}
	for _, set := range [][][]op{s.warm, s.conns} {
		for _, c := range set {
			for i := range c {
				if c[i].kind != opAppend {
					m[c[i].tenant] += c[i].eps
				}
			}
		}
	}
	for _, mon := range s.monitors {
		m[monitorTenant] += mon.eps
	}
	return m
}

func buildScenario(workload, dir string, seed int64, seconds int) (*scenario, error) {
	switch workload {
	case "mech-inline":
		return mechInline(seed, seconds), nil
	case "query-scan":
		return queryScan(dir, seed, seconds)
	case "ingest-monitor":
		return ingestMonitor(dir, seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want mech-inline, query-scan or ingest-monitor)", workload)
}
