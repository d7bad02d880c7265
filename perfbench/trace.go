package main

// The traced run. It first repeats the measured run against the real server
// (tracing off) for the server's own stage and cache counters, then replays
// the same seeded operations in-process twice — untraced, then traced —
// calling each module's public entry points in the order the server does
// and recording one span per call from this file. Nothing inside the program
// changes. Spans are kept in memory and written out when the run ends.
//
// Each pass builds its own stack from the generated files (store, log,
// accountants, monitors), so every pass starts from the state the server
// starts from. The untraced and traced passes do the same work with the
// same noise: the only difference between them is the recording of spans,
// which trace.overhead_ratio measures.
//
// The replay differs from the server in three stated ways: the charge is
// journalled by an explicit persist.AppendCharge after the accountant admits
// it (the server runs the same call from the accountant's journal hook);
// batch items execute one after another with live noise (the server fans
// them out over its pool with pre-drawn noise); and core spans are shadow
// calls with the same inputs and their own noise source, made after the
// operation's root span closes, so they are subtracted from
// engine.execute's self time without adding to the operation's latency.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/freegap/freegap/internal/accountant"
	"github.com/freegap/freegap/internal/core"
	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/persist"
	"github.com/freegap/freegap/internal/query/plan"
	"github.com/freegap/freegap/internal/rng"
	"github.com/freegap/freegap/internal/store"
)

// span is one timed call. start and end are nanoseconds since the tracer's
// epoch; parent is an index into the same tracer's spans (-1: a root).
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int32
}

// tracer records one goroutine's spans. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// layerStats accumulates what the replay observes besides spans.
type layerStats struct {
	mu           sync.Mutex
	planLookups  int
	planHits     int
	planCompile  time.Duration
	scanned      int
	skipped      int
	scanTime     time.Duration // resolutions that scanned records
	workers      int
	workerScans  int
	appends      int
	flushes      int
	prepareBytes uint64
	prepareCalls int
	missSpecs    []missSpec
	fsyncs       []time.Duration
	compactions  []time.Duration
	recording    bool
	casRetries   uint64
	walBytes     int64
}

// missSpec is a composite spec that missed the plan cache and scanned
// enough records to take the parallel path, kept for the GOMAXPROCS=1 scan
// comparison.
type missSpec struct {
	dataset string
	spec    string
}

// world is the in-process stack: the same store, log, accountants and
// mechanisms the server composes.
type world struct {
	sc     *scenario
	st     *store.Store
	log    *persist.Log
	mechs  map[opKind]engine.Mechanism
	acct   map[string]*accountant.Accountant
	mons   map[string][]*replayMonitor
	seq    map[string]uint64
	stats  *layerStats
	limits dataset.FIMILimits
}

type replayMonitor struct {
	item   int
	stream *core.SVTStream
}

// newWorld loads the scenario's datasets into a fresh store and opens a
// fresh log in stateDir.
func newWorld(stateDir string, sc *scenario, budget float64) (*world, error) {
	w := &world{
		sc: sc, st: store.New(), acct: map[string]*accountant.Accountant{},
		mons: map[string][]*replayMonitor{}, seq: map[string]uint64{},
		stats: &layerStats{},
		mechs: map[opKind]engine.Mechanism{},
	}
	reg := engine.DefaultRegistry()
	for _, k := range []opKind{opTopK, opMax, opSVT} {
		m, err := reg.Get(k.String())
		if err != nil {
			return nil, err
		}
		w.mechs[k] = m
	}
	lim := w.st.Limits()
	w.limits = dataset.FIMILimits{MaxRecords: lim.MaxRecords, MaxItemID: int32(lim.MaxItems) - 1}
	for _, d := range sc.datasets {
		db, err := dataset.ReadFIMIFileLimited(d.path, w.limits)
		if err != nil {
			return nil, err
		}
		if _, err := w.st.Register(d.name, "file:"+d.path, db); err != nil {
			return nil, err
		}
	}
	var err error
	if w.log, err = persist.Open(stateDir, persist.Options{Fsync: persist.FsyncBatch}); err != nil {
		return nil, err
	}
	s := w.stats
	w.log.SetMetrics(persist.Metrics{
		ObserveFsync: func(d time.Duration) {
			s.mu.Lock()
			if s.recording {
				s.fsyncs = append(s.fsyncs, d)
			}
			s.mu.Unlock()
		},
		ObserveCompaction: func(d time.Duration) {
			s.mu.Lock()
			if s.recording {
				s.compactions = append(s.compactions, d)
			}
			s.mu.Unlock()
		},
	})
	for tenant := range sc.epsByTenant() {
		a, err := accountant.New(budget)
		if err != nil {
			return nil, err
		}
		w.acct[tenant] = a
	}
	return w, nil
}

// registerMonitors starts every monitor's SVT run with its
// registration-time arrival, as the server does when a monitor is created.
func (w *world) registerMonitors() error {
	for _, m := range w.sc.monitors {
		stream, err := core.NewSVTStream(&core.AdaptiveSVTWithGap{
			K: m.maxAns, Epsilon: m.eps, Threshold: m.threshold, Monotonic: true, MaxAnswers: m.maxAns,
		}, rng.NewXoshiro(m.seed))
		if err != nil {
			return err
		}
		e, err := w.st.Get(m.dataset)
		if err != nil {
			return err
		}
		stream.Arrive(e.View().Arena().Counts()[m.item])
		w.mons[m.dataset] = append(w.mons[m.dataset], &replayMonitor{item: m.item, stream: stream})
	}
	return nil
}

func (w *world) close() {
	_ = w.log.Close()
	_ = w.st.Close()
}

// casRetries sums the accountants' CAS retry counters.
func (w *world) casRetries() uint64 {
	var n uint64
	for _, a := range w.acct {
		n += a.CASRetries()
	}
	return n
}

// resolver is the engine.Resolver the replay hands ResolveRequest: the same
// leaf lookups and planner calls the server's resolver makes.
type resolver struct {
	w  *world
	tr *tracer
}

func (r resolver) Resolve(name string, spec *engine.QuerySpec) ([]float64, bool, error) {
	e, err := r.w.st.Get(name)
	if err != nil {
		return nil, false, err
	}
	switch spec.Kind {
	case engine.QueryAllItems:
		return e.ResolveAll(), true, nil
	case engine.QueryItemCount:
		a, err := e.ResolveItems(spec.Items)
		return a, true, err
	}
	start := time.Now()
	res, err := plan.Resolve(r.w.st, e, spec, plan.Options{})
	took := time.Since(start)
	if err != nil {
		return nil, false, err
	}
	if r.tr != nil {
		s := r.w.stats
		s.mu.Lock()
		s.planLookups++
		s.planCompile += res.Compile
		if res.CacheHit {
			s.planHits++
		} else {
			if res.Stats.RecordsScanned > 0 {
				s.scanned += res.Stats.RecordsScanned
				s.scanTime += took - res.Compile
			}
			s.skipped += res.Stats.RecordsSkipped
			if res.Stats.ParallelWorkers > 0 {
				s.workers += res.Stats.ParallelWorkers
				s.workerScans++
			}
			if len(s.missSpecs) < 24 && res.Stats.RecordsScanned >= plan.DefaultMinParallelRecords {
				b, _ := json.Marshal(spec)
				s.missSpecs = append(s.missSpecs, missSpec{name, string(b)})
			}
		}
		s.mu.Unlock()
	}
	return res.Answers, res.Monotonic, nil
}

// replayer runs one goroutine's operations.
type replayer struct {
	w   *world
	tr  *tracer
	src rng.Source
	// shadowSrc is the shadow calls' noise, kept apart from src so the
	// operations draw the same noise as in a pass without shadow calls.
	shadowSrc rng.Source
	scr       *engine.Scratch
	body      []byte
	out       []byte
	lats      []time.Duration
	conn      int
	req       int32
	// shadow holds the inputs of the core call to time after the root span.
	shadow []shadowCall
	// prepares holds the appends whose PrepareAppend heap bytes are measured
	// after the root span, by a second call between two ReadMemStats (which
	// stop the world, so they stay out of the timed operation).
	prepares []pendingPrepare
}

type pendingPrepare struct {
	dataset string
	delta   [][]int32
}

type shadowCall struct {
	parent  int32
	kind    opKind
	k       int
	eps     float64
	thresh  float64
	mono    bool
	answers []float64
}

func (rp *replayer) run(ops []op) error {
	for i := range ops {
		o := &ops[i]
		rp.req++
		start := time.Now()
		root := rp.tr.begin("op", -1, rp.req)
		var err error
		if o.kind == opAppend {
			err = rp.appendOp(root, o)
		} else {
			err = rp.mechOp(root, o)
		}
		rp.tr.end(root)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", o.kind, err)
		}
		if rp.w.sc.timed == nil || rp.w.sc.timed(rp.conn, o) {
			rp.lats = append(rp.lats, time.Since(start))
		}
		rp.runShadows()
	}
	return nil
}

// mechOp replays one mechanism request (or batch) through decode, resolve,
// validate, charge, journal, execute and encode.
func (rp *replayer) mechOp(root int32, o *op) error {
	w := rp.w
	rp.body = w.sc.appendBody(rp.body[:0], o)
	type item struct {
		kind opKind
		mech engine.Mechanism
		req  engine.Request
		k    int
		th   float64
	}
	var items []item
	s := rp.tr.begin("engine.decode", root, rp.req)
	if o.kind == opBatch {
		var env struct {
			Tenant   string `json:"tenant"`
			Requests []struct {
				Mechanism string          `json:"mechanism"`
				Request   json.RawMessage `json:"request"`
			} `json:"requests"`
		}
		if err := json.Unmarshal(rp.body, &env); err != nil {
			return err
		}
		for j, r := range env.Requests {
			it := o.items[j]
			mech := w.mechs[it.kind]
			req, _, err := engine.DecodeRequest(mech, r.Request, nil)
			if err != nil {
				return err
			}
			req.Base().Tenant = env.Tenant
			items = append(items, item{it.kind, mech, req, it.k, it.thresh})
		}
	} else {
		mech := w.mechs[o.kind]
		req, _, err := engine.DecodeRequest(mech, rp.body, rp.scr)
		if err != nil {
			return err
		}
		items = append(items, item{o.kind, mech, req, o.k, o.thresh})
	}
	rp.tr.end(s)

	if o.dataset != "" {
		s = rp.tr.begin("plan.resolve", root, rp.req)
		for _, it := range items {
			if err := engine.ResolveRequest(it.req, resolver{w, rp.tr}); err != nil {
				return err
			}
		}
		rp.tr.end(s)
	}

	s = rp.tr.begin("engine.validate", root, rp.req)
	charges := make([]accountant.Charge, len(items))
	for j, it := range items {
		if err := it.mech.Validate(it.req, engine.Limits{}); err != nil {
			return err
		}
		charges[j] = accountant.Charge{Label: it.mech.Name(), Epsilon: it.mech.Cost(it.req)}
	}
	rp.tr.end(s)

	s = rp.tr.begin("accountant.spend", root, rp.req)
	err := w.acct[o.tenant].SpendBatch(charges)
	rp.tr.end(s)
	if err != nil {
		return err
	}
	s = rp.tr.begin("persist.append_charge", root, rp.req)
	w.log.AppendCharge(o.tenant, charges)
	rp.tr.end(s)

	resps := make([]engine.Response, len(items))
	s = rp.tr.begin("engine.execute", root, rp.req)
	for j, it := range items {
		scr := rp.scr
		if len(items) > 1 {
			scr = nil
		}
		if resps[j], err = it.mech.Execute(rp.src, it.req, scr); err != nil {
			return err
		}
	}
	rp.tr.end(s)
	if len(items) == 1 {
		b := items[0].req.Base()
		rp.shadow = append(rp.shadow, shadowCall{s, items[0].kind, items[0].k, b.Epsilon, items[0].th, b.Monotonic, b.Answers})
	}

	s = rp.tr.begin("engine.encode", root, rp.req)
	for _, resp := range resps {
		resp.SetBilling(o.tenant, charges[0].Epsilon, 0)
		if rp.out, _, _, err = engine.AppendResponse(rp.out[:0], resp); err != nil {
			return err
		}
	}
	rp.tr.end(s)
	return nil
}

// appendOp replays one dataset append: parse, prepare, journal, install,
// and one SVT arrival per monitor watching the dataset.
func (rp *replayer) appendOp(root int32, o *op) error {
	w := rp.w
	s := rp.tr.begin("dataset.fimi_parse", root, rp.req)
	parsed, err := dataset.ReadFIMILimited(strings.NewReader(o.delta), o.dataset, w.limits)
	rp.tr.end(s)
	if err != nil {
		return err
	}
	delta := make([][]int32, parsed.NumRecords())
	for i := range delta {
		delta[i] = parsed.Record(i)
	}
	s = rp.tr.begin("store.prepare_append", root, rp.req)
	p, err := w.st.PrepareAppend(o.dataset, delta)
	rp.tr.end(s)
	if err != nil {
		return err
	}
	rp.prepares = append(rp.prepares, pendingPrepare{o.dataset, delta})
	w.seq[o.dataset]++
	s = rp.tr.begin("persist.append_delta", root, rp.req)
	err = w.log.AppendDelta(persist.AppendRecord{Name: o.dataset, Seq: w.seq[o.dataset], Records: delta})
	rp.tr.end(s)
	if err != nil {
		return err
	}
	cached := p.Entry().Plans().Len()
	s = rp.tr.begin("store.install_append", root, rp.req)
	e, err := w.st.InstallAppend(p)
	rp.tr.end(s)
	if err != nil {
		return err
	}
	counts := e.View().Arena().Counts()
	for _, m := range w.mons[o.dataset] {
		s = rp.tr.begin("core.svtstream_arrive", root, rp.req)
		_, ok := m.stream.Arrive(counts[m.item])
		rp.tr.end(s)
		if !ok {
			return fmt.Errorf("monitor on %s item %d retired", o.dataset, m.item)
		}
	}
	if rp.tr != nil {
		st := w.stats
		st.mu.Lock()
		st.appends++
		if cached > 0 && e.Plans().Len() == 0 {
			st.flushes++
		}
		st.mu.Unlock()
	}
	return nil
}

// runShadows times the core mechanism calls the last operation's Execute
// made, with the same inputs, and records them as children of its
// engine.execute span; then it measures the heap bytes of the operation's
// PrepareAppend.
func (rp *replayer) runShadows() {
	for _, c := range rp.shadow {
		name := "core." + c.kind.String()
		s := rp.tr.begin(name, c.parent, rp.req)
		switch c.kind {
		case opTopK:
			m := core.TopKWithGap{K: c.k, Epsilon: c.eps, Monotonic: c.mono}
			_, _ = m.RunScratch(rp.shadowSrc, c.answers, &rp.scr.TopK)
		case opMax:
			m := core.TopKWithGap{K: 1, Epsilon: c.eps, Monotonic: c.mono}
			_, _ = m.RunScratch(rp.shadowSrc, c.answers, &rp.scr.TopK)
		case opSVT:
			m := &core.AdaptiveSVTWithGap{K: c.k, Epsilon: c.eps, Threshold: c.thresh, Monotonic: c.mono}
			_, _ = m.RunScratch(rp.shadowSrc, c.answers, &rp.scr.SVT)
		}
		rp.tr.end(s)
	}
	rp.shadow = rp.shadow[:0]
	for _, p := range rp.prepares {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := rp.w.st.PrepareAppend(p.dataset, p.delta)
		runtime.ReadMemStats(&m1)
		if err == nil {
			st := rp.w.stats
			st.mu.Lock()
			st.prepareBytes += m1.TotalAlloc - m0.TotalAlloc
			st.prepareCalls++
			st.mu.Unlock()
		}
	}
	rp.prepares = rp.prepares[:0]
}

// pass registers the monitors, replays the warm-up and then conns, each
// connection's ops on its own goroutine, traced or not.
func (w *world) pass(traced bool, seed int64, conns [][]op) ([]*replayer, error) {
	if err := w.registerMonitors(); err != nil {
		return nil, err
	}
	// Garbage left by earlier work is collected now, not during the pass.
	runtime.GC()
	rps := make([]*replayer, len(w.sc.conns))
	for i := range rps {
		s := uint64(seed)*31 + uint64(i) + 1
		rps[i] = &replayer{w: w, conn: i, src: rng.NewXoshiro(s), shadowSrc: rng.NewXoshiro(^s), scr: engine.NewScratch()}
	}
	var (
		runErr error
		wg     sync.WaitGroup
		mu     sync.Mutex
	)
	run := func(sets [][]op) {
		for i, rp := range rps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := rp.run(sets[i]); err != nil {
					mu.Lock()
					runErr = err
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	run(w.sc.warm)
	if runErr != nil {
		return nil, runErr
	}
	epoch := time.Now()
	for _, rp := range rps {
		rp.lats = rp.lats[:0]
		if traced {
			rp.tr = &tracer{epoch: epoch}
		}
	}
	// The WAL is drained on both sides of the measured replay, so the bytes
	// this process writes in between are the measured operations' own.
	if err := w.log.Flush(); err != nil {
		return nil, err
	}
	cas0 := w.casRetries()
	io0, err := procField(os.Getpid(), "io", "wchar")
	if err != nil {
		return nil, err
	}
	w.stats.mu.Lock()
	w.stats.recording = traced
	w.stats.mu.Unlock()
	run(conns)
	w.stats.mu.Lock()
	w.stats.recording = false
	w.stats.mu.Unlock()
	if runErr != nil {
		return nil, runErr
	}
	if err := w.log.Flush(); err != nil {
		return nil, err
	}
	io1, err := procField(os.Getpid(), "io", "wchar")
	if err != nil {
		return nil, err
	}
	if traced {
		w.stats.casRetries = w.casRetries() - cas0
		w.stats.walBytes = io1 - io0
	}
	return rps, nil
}

// scanSpeedup re-resolves the specs that missed the plan cache, uncached, at
// GOMAXPROCS=2 and GOMAXPROCS=1, and returns t(1)/t(2) with its base.
func (w *world) scanSpeedup() (float64, map[string]any, error) {
	specs := w.stats.missSpecs
	if len(specs) == 0 {
		return 0, map[string]any{"resolutions": 0}, nil
	}
	timeAt := func(procs int) (time.Duration, int, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var total time.Duration
		records := 0
		for round := 0; round < 2; round++ {
			for _, m := range specs {
				var spec engine.QuerySpec
				if err := json.Unmarshal([]byte(m.spec), &spec); err != nil {
					return 0, 0, err
				}
				e, err := w.st.Get(m.dataset)
				if err != nil {
					return 0, 0, err
				}
				start := time.Now()
				res, err := plan.Resolve(w.st, e, &spec, plan.Options{NoCache: true})
				total += time.Since(start)
				if err != nil {
					return 0, 0, err
				}
				records += res.Stats.RecordsScanned
			}
		}
		return total, records, nil
	}
	t2, recs, err := timeAt(2)
	if err != nil {
		return 0, nil, err
	}
	t1, _, err := timeAt(1)
	if err != nil {
		return 0, nil, err
	}
	return t1.Seconds() / t2.Seconds(), map[string]any{
		"resolutions": 2 * len(specs), "records_scanned": recs,
		"cpu1_ms": t1.Seconds() * 1e3, "cpu2_ms": t2.Seconds() * 1e3,
	}, nil
}

// layerAgg is one span name's totals.
type layerAgg struct {
	calls int
	total int64 // ns
	self  int64 // ns: duration minus the children's durations
}

func aggregate(rps []*replayer) (map[string]*layerAgg, int) {
	agg := map[string]*layerAgg{}
	roots := 0
	for _, rp := range rps {
		if rp.tr == nil {
			continue
		}
		sp := rp.tr.spans
		child := make([]int64, len(sp))
		for _, s := range sp {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range sp {
			a := agg[s.name]
			if a == nil {
				a = &layerAgg{}
				agg[s.name] = a
			}
			a.calls++
			a.total += s.end - s.start
			a.self += s.end - s.start - child[i]
			if s.parent < 0 {
				roots++
			}
		}
	}
	return agg, roots
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, rps []*replayer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for g, rp := range rps {
		if rp.tr == nil {
			continue
		}
		for _, s := range rp.tr.spans {
			fmt.Fprintf(bw, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"request":%d,"goroutine":%d}`+"\n",
				s.name, s.start, s.end, s.parent, s.req, g)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer is the --trace 1 run.
func perLayer(ctx context.Context, env *runEnv, sc *scenario, out io.Writer) (*result, error) {
	h, err := runHTTP(ctx, env, sc, 1)
	if err != nil {
		return nil, err
	}
	report(out, "env", h.envInfo)
	res := outcome(h.l)
	m := serverMetrics(h)

	budget := env.budget
	if budget == 0 {
		budget = autoBudget(sc)
	}
	// Two untraced passes, then the traced one. Each pass's stack is closed
	// before the next builds its own, so no two hold the datasets at once.
	// The first pass, over the first quarter of the ops, only warms the
	// process: a first in-process pass has run up to 10% slower than those
	// after it on ingest-monitor. trace.overhead_ratio compares the second
	// untraced pass with the traced one.
	var plain []*replayer
	for i := range 2 {
		w, err := newWorld(filepath.Join(env.work, fmt.Sprintf("replay-plain%d", i)), sc, budget)
		if err != nil {
			return nil, err
		}
		conns := sc.conns
		if i == 0 {
			conns = make([][]op, len(sc.conns))
			for j, ops := range sc.conns {
				conns[j] = ops[:len(ops)/4]
			}
		}
		plain, err = w.pass(false, env.seed, conns)
		w.close()
		if err != nil {
			return nil, err
		}
	}
	w, err := newWorld(filepath.Join(env.work, "replay-traced"), sc, budget)
	if err != nil {
		return nil, err
	}
	defer w.close()
	traced, err := w.pass(true, env.seed, sc.conns)
	if err != nil {
		return nil, err
	}
	speedup, speedBase, err := w.scanSpeedup()
	if err != nil {
		return nil, err
	}

	agg, roots := aggregate(traced)
	ops := float64(sc.opsTotal())
	meanUs := func(name string) float64 {
		if a := agg[name]; a != nil && a.calls > 0 {
			return float64(a.total) / float64(a.calls) / 1e3
		}
		return 0
	}
	st := w.stats
	per := func(num float64, den int) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, n := range []string{"engine.decode", "engine.validate", "engine.execute", "engine.encode",
		"core.topk", "core.max", "core.svt", "core.svtstream_arrive", "accountant.spend",
		"persist.append_charge", "persist.append_delta", "plan.resolve",
		"store.prepare_append", "store.install_append", "dataset.fimi_parse"} {
		set(n+"_us", meanUs(n), "us")
	}
	set("accountant.cas_retries_per_op", float64(st.casRetries)/ops, "count")
	fs := durationsMs(st.fsyncs)
	set("persist.fsync_p99_ms", quantile(fs, 0.99), "ms")
	set("persist.compactions", float64(len(st.compactions)), "count")
	set("persist.compaction_ms", meanMs(st.compactions), "ms")
	set("persist.wal_bytes_per_op", float64(st.walBytes)/ops, "B")
	set("plan.compile_us", per(float64(st.planCompile.Nanoseconds())/1e3, st.planLookups), "us")
	set("plan.cache_hit_ratio", per(float64(st.planHits), st.planLookups), "ratio")
	set("plan.records_scanned_per_op", float64(st.scanned)/ops, "count")
	set("plan.records_skipped_ratio", per(float64(st.skipped), st.scanned+st.skipped), "ratio")
	set("plan.scan_ns_per_record", per(float64(st.scanTime.Nanoseconds()), st.scanned), "ns")
	set("plan.parallel_workers_mean", per(float64(st.workers), st.workerScans), "count")
	set("plan.scan_speedup_cpu2_vs_cpu1", speedup, "ratio")
	set("store.prepare_append_bytes", per(float64(st.prepareBytes), st.prepareCalls), "B")
	set("store.plan_cache_flushes_per_append", per(float64(st.flushes), st.appends), "ratio")

	// Self time per operation by layer; the root spans' self time is what no
	// module call covers. The two sum to the traced mean by construction.
	tracedLats, plainLats := latsOf(traced), latsOf(plain)
	selfPerOp := map[string]float64{}
	sum := 0.0
	for name, a := range agg {
		v := float64(a.self) / float64(roots) / 1e3
		selfPerOp[name] = v
		sum += v
	}
	set("trace.unattributed_us", selfPerOp["op"], "us")
	set("trace.op_mean_us", meanUs("op"), "us")
	tracedP50, plainP50 := quantile(tracedLats, 0.5), quantile(plainLats, 0.5)
	set("trace.overhead_ratio", tracedP50/nonZero(plainP50), "ratio")

	report(out, "bases", map[string]any{
		"ops": sc.opsTotal(), "traced_roots": roots, "plan_lookups": st.planLookups,
		"plan_hits": st.planHits, "records_scanned": st.scanned, "records_skipped": st.skipped,
		"scans_with_workers": st.workerScans, "appends": st.appends, "fsyncs": len(st.fsyncs),
		"compactions": len(st.compactions), "cas_retries": st.casRetries, "wal_bytes": st.walBytes,
		"latency_samples": len(tracedLats), "scan_speedup": speedBase,
		"overhead": map[string]any{"traced_p50_ms": tracedP50, "untraced_p50_ms": plainP50, "untraced_samples": len(plainLats)},
		"calls":    callsOf(agg),
	})
	report(out, "self_us_per_op", map[string]any{"layers": selfPerOp, "sum": sum, "traced_mean": meanUs("op")})
	if err := os.MkdirAll(filepath.Join(env.root, ".bench_build", "trace"), 0o755); err == nil {
		path := filepath.Join(env.root, ".bench_build", "trace", sc.name+".spans.jsonl")
		if err := writeSpans(path, traced); err != nil {
			return nil, err
		}
		report(out, "spans", path)
	}
	res.Metrics = m
	return res, nil
}

// serverMetrics derives the server.* and client.* per-layer metrics from the
// untraced run: /metrics deltas across the measured phase, and the client's
// own samples.
func serverMetrics(h *httpResult) map[string]metric {
	m := map[string]metric{}
	ops := float64(h.ops)
	d := func(name string) float64 { return h.after.sum(name) - h.before.sum(name) }
	stages := 0.0
	for _, s := range []string{"decode", "resolve", "validate", "charge", "execute", "encode"} {
		key := `freegap_stage_seconds_sum{stage="` + s + `"}`
		v := (h.after[key] - h.before[key]) * 1e6 / ops
		stages += v
		m["server.stage_"+s+"_us"] = metric{v, "us"}
	}
	m["server.unattributed_us"] = metric{float64(h.latSum.Microseconds())/ops - stages, "us"}
	m["server.plan_cache_hit_ratio"] = metric{ratio(d("freegap_plan_cache_hits_total"), d("freegap_plan_cache_misses_total")), "ratio"}
	m["server.records_skipped_per_op"] = metric{d("freegap_records_skipped_total") / ops, "count"}
	m["server.cas_retries_per_op"] = metric{d("freegap_admission_cas_retries_total") / ops, "count"}
	m["server.fsync_p99_ms"] = metric{1e3 * histQuantile(h.before, h.after, "freegap_fsync_seconds", 0.99), "ms"}
	compactions := d("freegap_compaction_seconds_count")
	m["server.compactions"] = metric{compactions, "count"}
	m["server.compaction_ms"] = metric{1e3 * d("freegap_compaction_seconds_sum") / math.Max(compactions, 1), "ms"}
	m["server.write_bytes_per_op"] = metric{float64(h.writes) / ops, "B"}
	m["server.scan_workers_mean"] = metric{d("freegap_scan_workers_sum") / math.Max(d("freegap_scan_workers_count"), 1), "count"}
	lat := durationsMs(h.lats)
	m["client.latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	lags := durationsMs(h.lags)
	m["client.verdict_lag_p50_ms"] = metric{quantile(lags, 0.5), "ms"}
	m["client.verdict_lag_p99_ms"] = metric{quantile(lags, 0.99), "ms"}
	return m
}

func latsOf(rps []*replayer) []float64 {
	var all []time.Duration
	for _, rp := range rps {
		all = append(all, rp.lats...)
	}
	return durationsMs(all)
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds() * 1e3 / float64(len(ds))
}

func nonZero(v float64) float64 {
	if v == 0 {
		return math.Inf(1)
	}
	return v
}

func callsOf(agg map[string]*layerAgg) map[string]int {
	out := map[string]int{}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out[n] = agg[n].calls
	}
	return out
}
