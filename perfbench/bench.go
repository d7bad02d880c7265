package main

// One measured run against the real server: set it up (several times, for a
// median set-up time), warm it up, measure the seeded operation sequence,
// and check what the server reports against what was sent.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// runEnv is one invocation's settings.
type runEnv struct {
	root    string // the checkout root
	work    string // this run's scratch directory under .bench_build
	bin     string // the dpserver binary
	seed    int64
	seconds int
	budget  float64 // -budget override; 0 sizes it from the workload
}

// serverSeed is the fixed noise seed every server runs with.
const serverSeed = 20190701

// live is one set-up server, ready to time.
type live struct {
	srv *server
	// ctl is the set-up and inspection connection. It is idle while the
	// workload is measured, so it does not add to the workload's connections.
	ctl      *http.Client
	sub      *subscriber
	monIDs   []string
	stateDir string
	l        *ledger
	setup    time.Duration
}

// autoBudget sizes the per-tenant budget so no planned request can be
// refused: twice the largest tenant's planned spend, plus one.
func autoBudget(sc *scenario) float64 {
	top := 0.0
	for _, v := range sc.epsByTenant() {
		top = max(top, v)
	}
	return math.Ceil(2*top) + 1
}

// setUp starts a server on a fresh state directory and brings it to the
// point where the workload can be timed: datasets loaded, monitors
// registered, the SSE subscriber connected.
func setUp(env *runEnv, sc *scenario, budget float64, n int) (*live, error) {
	stateDir := filepath.Join(env.work, "state"+strconv.Itoa(n))
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-budget", strconv.FormatFloat(budget, 'g', -1, 64),
		"-seed", strconv.Itoa(serverSeed),
		"-state-dir", stateDir,
		"-fsync", "batch",
	}
	for _, d := range sc.datasets {
		args = append(args, "-preload", d.name+"="+d.path)
	}
	start := time.Now()
	srv, err := startServer(env.bin, args, filepath.Join(env.work, "server"+strconv.Itoa(n)+".log"))
	if err != nil {
		return nil, err
	}
	lv := &live{srv: srv, ctl: newConn(), stateDir: stateDir, l: newLedger(sc)}
	fail := func(err error) (*live, error) {
		lv.tearDown()
		return nil, err
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(lv.ctl, srv.base, "/healthz", &health); err != nil || health.Status != "ok" {
		return fail(fmt.Errorf("server not healthy (%q): %v", health.Status, err))
	}
	for _, m := range sc.monitors {
		var info struct {
			ID string `json:"id"`
		}
		req := map[string]any{
			"tenant": monitorTenant, "dataset": m.dataset, "item": m.item,
			"threshold": m.threshold, "epsilon": m.eps, "max_answers": m.maxAns,
			"adaptive": true, "seed": m.seed,
		}
		if err := postJSON(lv.ctl, srv.base, "/v1/monitors", req, &info); err != nil {
			return fail(err)
		}
		lv.monIDs = append(lv.monIDs, info.ID)
		lv.l.spent[monitorTenant] += m.eps
	}
	if sc.subscribe >= 0 {
		if lv.sub, err = subscribe(srv.base, lv.monIDs[sc.subscribe]); err != nil {
			return fail(err)
		}
	}
	lv.setup = time.Since(start)
	return lv, nil
}

// tearDown stops the subscriber and the server, waits for both, and removes
// the state directory.
func (lv *live) tearDown() {
	if lv.sub != nil {
		lv.sub.close()
	}
	lv.ctl.CloseIdleConnections()
	lv.srv.stop()
	_ = os.RemoveAll(lv.stateDir)
}

// httpResult is what one measured run against the server produced.
type httpResult struct {
	setups  []float64 // seconds
	elapsed time.Duration
	rounds  []roundStat
	lats    []time.Duration
	latSum  time.Duration
	ops     int
	rssMB   float64
	writes  int64 // bytes the server wrote (wchar) during the measured phase
	before  promSample
	after   promSample
	lags    []time.Duration
	l       *ledger
	envInfo map[string]any
}

// measureRounds is how many consecutive rounds the measured sequence is cut
// into; each round is a contiguous slice of every connection's operations.
const measureRounds = 5

// roundStat is one round's throughput and server CPU time per operation.
type roundStat struct {
	rps, cpuMsOp float64
}

// runHTTP measures sc against the real server.
func runHTTP(ctx context.Context, env *runEnv, sc *scenario, setups int) (*httpResult, error) {
	budget := env.budget
	if budget == 0 {
		budget = autoBudget(sc)
	}
	res := &httpResult{}
	var lv *live
	for i := 0; i < setups; i++ {
		var err error
		if lv, err = setUp(env, sc, budget, i); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, lv.setup.Seconds())
		if i < setups-1 {
			lv.tearDown()
		}
	}
	defer lv.tearDown()
	res.l = lv.l

	conns := make([]*conn, len(sc.conns))
	for i := range conns {
		conns[i] = &conn{sc: sc, base: lv.srv.base, c: newConn(), l: lv.l}
		defer conns[i].c.CloseIdleConnections()
	}
	phase(ctx, conns, sc.warm, nil)

	pid := lv.srv.cmd.Process.Pid
	cpu0, err := lv.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	w0, err := procField(pid, "io", "wchar")
	if err != nil {
		return nil, err
	}
	if res.before, err = scrape(lv.ctl, lv.srv.base); err != nil {
		return nil, err
	}
	lv.l.mu.Lock()
	firstSeq := lv.l.seq[lv.l.subDataset] + 1
	lv.l.mu.Unlock()

	// The measured sequence runs as consecutive rounds; throughput and CPU
	// time per operation are reported as medians over them.
	prev := cpu0
	for r := 0; r < measureRounds; r++ {
		slice := make([][]op, len(sc.conns))
		n := 0
		for i, ops := range sc.conns {
			slice[i] = ops[r*len(ops)/measureRounds : (r+1)*len(ops)/measureRounds]
			n += len(slice[i])
		}
		pr := phase(ctx, conns, slice, sc.timed)
		cpu, err := lv.srv.cpuTime()
		if err != nil {
			return nil, err
		}
		res.elapsed += pr.elapsed
		res.lats = append(res.lats, pr.lats...)
		res.latSum += pr.latSum
		res.rounds = append(res.rounds, roundStat{
			rps:     float64(n) / pr.elapsed.Seconds(),
			cpuMsOp: float64((cpu - prev).Microseconds()) / 1e3 / float64(n),
		})
		prev = cpu
	}
	res.ops = sc.opsTotal()
	w1, err := procField(pid, "io", "wchar")
	if err != nil {
		return nil, err
	}
	res.writes = w1 - w0
	if res.after, err = scrape(lv.ctl, lv.srv.base); err != nil {
		return nil, err
	}
	if res.rssMB, err = lv.srv.peakRSS(); err != nil {
		return nil, err
	}
	if lv.sub != nil {
		res.lags = verdictLags(lv, firstSeq)
	}
	finalChecks(lv, sc, budget)
	res.envInfo = environment(lv, env, sc, budget, res.after)
	return res, nil
}

// verdictLags waits for the subscriber to catch up, checks every verdict
// against the append that released it, and returns the measured appends'
// lags: from sending the append to reading its verdict on the stream.
func verdictLags(lv *live, firstSeq uint64) []time.Duration {
	l, sub := lv.l, lv.sub
	l.mu.Lock()
	last := l.seq[l.subDataset]
	l.mu.Unlock()
	sub.waitFor(last, 10*time.Second)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for _, e := range sub.errs {
		l.fail("verdict stream: %s", e)
	}
	if sub.retired {
		l.mismatch("the subscribed monitor retired")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var lags []time.Duration
	for seq := uint64(1); seq <= last; seq++ {
		at, ok := sub.recvAt[seq]
		switch {
		case !ok:
			l.failed++
			l.errs = append(l.errs, fmt.Sprintf("verdict for append seq %d never arrived", seq))
		case sub.recs[seq] != l.replyRecs[seq]:
			l.failed++
			l.errs = append(l.errs, fmt.Sprintf("verdict seq %d evaluated at %d records, append reply says %d", seq, sub.recs[seq], l.replyRecs[seq]))
		case seq >= firstSeq:
			lags = append(lags, at.Sub(l.sentAt[seq]))
		}
	}
	return lags
}

// finalChecks compares the server's ledgers with what the benchmark sent.
func finalChecks(lv *live, sc *scenario, budget float64) {
	l := lv.l
	for tenant, sent := range l.spent {
		var b struct {
			Budget    float64 `json:"budget"`
			Spent     float64 `json:"spent"`
			Remaining float64 `json:"remaining"`
		}
		if err := getJSON(lv.ctl, lv.srv.base, "/v1/tenants/"+tenant+"/budget", &b); err != nil {
			l.mismatch("tenant %s: %v", tenant, err)
			continue
		}
		tol := 1e-9 * max(1, budget)
		if math.Abs(b.Spent-sent) > tol || math.Abs(b.Remaining-(budget-sent)) > tol || b.Budget != budget {
			l.mismatch("tenant %s: server reports spent %v remaining %v of %v; sent %v", tenant, b.Spent, b.Remaining, b.Budget, sent)
		}
	}
	for _, d := range sc.datasets {
		var info struct {
			Records    int `json:"records"`
			CountScans int `json:"count_scans"`
		}
		if err := getJSON(lv.ctl, lv.srv.base, "/v1/datasets/"+d.name, &info); err != nil {
			l.mismatch("dataset %s: %v", d.name, err)
			continue
		}
		if want := 1 + l.reads[d.name]; sc.pinScans && info.CountScans != want {
			l.mismatch("dataset %s: count_scans %d, want 1 plus %d filter reads: appends must not rescan", d.name, info.CountScans, want-1)
		}
		if info.Records != l.records[d.name] {
			l.mismatch("dataset %s: %d records, want %d initial plus appended", d.name, info.Records, l.records[d.name])
		}
	}
	if len(sc.monitors) > 0 {
		var list struct {
			Monitors []struct {
				ID      string `json:"id"`
				Retired bool   `json:"retired"`
			} `json:"monitors"`
		}
		if err := getJSON(lv.ctl, lv.srv.base, "/v1/monitors", &list); err != nil {
			l.mismatch("monitors: %v", err)
			return
		}
		if len(list.Monitors) != len(sc.monitors) {
			l.mismatch("%d monitors registered, want %d", len(list.Monitors), len(sc.monitors))
		}
		for _, m := range list.Monitors {
			if m.Retired {
				l.mismatch("monitor %s retired", m.ID)
			}
		}
	}
}

// environment records what the run ran on; scraped is the server's last
// /metrics scrape, which carries its Go version.
func environment(lv *live, env *runEnv, sc *scenario, budget float64, scraped promSample) map[string]any {
	var health struct {
		Workers int `json:"workers"`
	}
	_ = getJSON(lv.ctl, lv.srv.base, "/healthz", &health)
	var dl struct {
		Datasets []struct {
			Name       string `json:"name"`
			Records    int    `json:"records"`
			Items      int    `json:"items"`
			CountScans int    `json:"count_scans"`
		} `json:"datasets"`
	}
	_ = getJSON(lv.ctl, lv.srv.base, "/v1/datasets", &dl)
	goVersion := runtime.Version()
	for k := range scraped {
		if rest, ok := cutBetween(k, `freegap_build_info{go_version="`, `"`); ok {
			goVersion = rest
		}
	}
	return map[string]any{
		"workload":          sc.name,
		"seed":              env.seed,
		"seconds":           env.seconds,
		"host_nproc":        runtime.NumCPU(),
		"server_gomaxprocs": health.Workers,
		"go_version":        goVersion,
		"fsync":             "batch",
		"budget":            budget,
		"datasets":          dl.Datasets,
		"source_sha256":     sourceHash(env.root),
	}
}
