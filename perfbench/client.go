package main

// The HTTP side: closed-loop connections that each send their next request
// only after reading the previous reply, the SSE subscriber, and the checks
// every reply must pass. A reply that is not 2xx, times out, does not
// decode, or fails its check counts as one failed operation.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"
)

// requestTimeout bounds one request; a reply later than this is a failure.
const requestTimeout = 60 * time.Second

// newConn returns a client that holds at most one TCP connection, so the
// workload's connection count is exactly the number of clients it uses.
func newConn() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// reply is the union of every response body the workloads decode.
type reply struct {
	Tenant           string          `json:"tenant"`
	EpsilonSpent     float64         `json:"epsilon_spent"`
	BudgetRemaining  float64         `json:"budget_remaining"`
	Selections       []selectionJSON `json:"selections"`
	Index            *int            `json:"index"`
	Gap              *float64        `json:"gap"`
	Above            []aboveJSON     `json:"above"`
	AboveCount       int             `json:"above_count"`
	QueriesProcessed int             `json:"queries_processed"`
	MechanismSpent   float64         `json:"mechanism_spent"`
	Results          []struct {
		Mechanism string          `json:"mechanism"`
		Response  json.RawMessage `json:"response"`
		Error     json.RawMessage `json:"error"`
	} `json:"results"`
	Dataset         string `json:"dataset"`
	AppendedRecords int    `json:"appended_records"`
	Seq             uint64 `json:"seq"`
	Records         int    `json:"records"`
	Items           int    `json:"items"`
	MonitorVerdicts int    `json:"monitor_verdicts"`
}

type selectionJSON struct {
	Index int     `json:"index"`
	Gap   float64 `json:"gap"`
}

type aboveJSON struct {
	Index  int     `json:"index"`
	Gap    float64 `json:"gap"`
	Branch string  `json:"branch"`
}

type verdictJSON struct {
	Seq     int  `json:"seq"`
	Records int  `json:"records"`
	Retired bool `json:"retired"`
}

const epsTol = 1e-9

// checkMech validates one mechanism reply: n is the answer count the request
// was evaluated on.
func checkMech(kind opKind, k int, eps float64, n int, r *reply) error {
	switch kind {
	case opTopK:
		if len(r.Selections) != k {
			return fmt.Errorf("topk returned %d selections, want k=%d", len(r.Selections), k)
		}
		seen := map[int]bool{}
		for _, s := range r.Selections {
			if s.Index < 0 || s.Index >= n || seen[s.Index] {
				return fmt.Errorf("topk index %d repeated or outside [0,%d)", s.Index, n)
			}
			seen[s.Index] = true
			if !(s.Gap >= 0) || math.IsInf(s.Gap, 0) {
				return fmt.Errorf("topk gap %v is not a non-negative number", s.Gap)
			}
		}
	case opMax:
		if r.Index == nil || *r.Index < 0 || *r.Index >= n {
			return fmt.Errorf("max index missing or outside [0,%d)", n)
		}
		if r.Gap == nil || !(*r.Gap >= 0) || math.IsInf(*r.Gap, 0) {
			return errors.New("max gap missing or negative")
		}
	case opSVT:
		// The adaptive variant may answer more than k queries (top-branch
		// answers cost less), so the budget, not k, bounds the answer count.
		if len(r.Above) != r.AboveCount {
			return fmt.Errorf("svt above_count %d with %d answers", r.AboveCount, len(r.Above))
		}
		if r.QueriesProcessed < 1 || r.QueriesProcessed > n {
			return fmt.Errorf("svt processed %d of %d queries", r.QueriesProcessed, n)
		}
		last := -1
		for _, a := range r.Above {
			if a.Index <= last || a.Index >= r.QueriesProcessed {
				return fmt.Errorf("svt answer index %d out of stream order", a.Index)
			}
			last = a.Index
			if a.Branch != "top" && a.Branch != "middle" {
				return fmt.Errorf("svt answer branch %q", a.Branch)
			}
			if math.IsNaN(a.Gap) || math.IsInf(a.Gap, 0) {
				return fmt.Errorf("svt gap %v", a.Gap)
			}
		}
		if r.MechanismSpent < 0 || r.MechanismSpent > eps*(1+epsTol) {
			return fmt.Errorf("svt spent %v of a %v reservation", r.MechanismSpent, eps)
		}
	}
	if math.Abs(r.EpsilonSpent-eps) > epsTol {
		return fmt.Errorf("charged ε %v, sent %v", r.EpsilonSpent, eps)
	}
	if r.BudgetRemaining < 0 {
		return fmt.Errorf("budget_remaining %v is negative", r.BudgetRemaining)
	}
	return nil
}

// ledger tracks what the benchmark sent and what came back, across the
// connections of one server's lifetime.
type ledger struct {
	mu      sync.Mutex
	spent   map[string]float64 // ε admitted per tenant
	seq     map[string]uint64  // last append seq per dataset
	records map[string]int     // current record count per dataset
	items   map[string]int
	reads   map[string]int // admitted dataset-backed requests per dataset
	monPer  map[string]int // monitors per dataset
	// For the subscribed monitor's dataset: when each append seq was sent,
	// and the record count its reply reported.
	subDataset string
	sentAt     map[uint64]time.Time
	replyRecs  map[uint64]int
	failed     int
	attempted  int
	mismatches int // failed end-of-run checks
	errs       []string
}

func newLedger(sc *scenario) *ledger {
	l := &ledger{
		spent: map[string]float64{}, seq: map[string]uint64{},
		records: map[string]int{}, items: map[string]int{}, reads: map[string]int{}, monPer: map[string]int{},
		sentAt: map[uint64]time.Time{}, replyRecs: map[uint64]int{},
	}
	for _, d := range sc.datasets {
		l.records[d.name], l.items[d.name] = d.records, d.items
	}
	for _, m := range sc.monitors {
		l.monPer[m.dataset]++
	}
	if sc.subscribe >= 0 {
		l.subDataset = sc.monitors[sc.subscribe].dataset
	}
	return l
}

func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.errs) < 8 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// mismatch records a failed end-of-run check without counting an operation.
func (l *ledger) mismatch(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mismatches++
	if len(l.errs) < 16 {
		l.errs = append(l.errs, "check: "+fmt.Sprintf(format, args...))
	}
}

// conn drives one closed-loop connection.
type conn struct {
	sc   *scenario
	base string
	c    *http.Client
	l    *ledger
	body []byte
	resp bytes.Buffer
}

// send issues o, checks the reply and returns its latency.
func (cn *conn) send(ctx context.Context, o *op) (time.Duration, bool) {
	cn.body = cn.sc.appendBody(cn.body[:0], o)
	url := cn.base + o.kind.path()
	var seq uint64
	if o.kind == opAppend {
		url = cn.base + "/v1/datasets/" + o.dataset + "/append"
		cn.l.mu.Lock()
		cn.l.attempted++
		seq = cn.l.seq[o.dataset] + 1
		if o.dataset == cn.l.subDataset {
			cn.l.sentAt[seq] = time.Now()
		}
		cn.l.mu.Unlock()
	} else {
		cn.l.mu.Lock()
		cn.l.attempted++
		cn.l.mu.Unlock()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(cn.body))
	if err != nil {
		cn.l.fail("%s: %v", o.kind, err)
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := cn.c.Do(req)
	if err != nil {
		cn.l.fail("%s: %v", o.kind, err)
		return 0, false
	}
	cn.resp.Reset()
	_, err = cn.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		cn.l.fail("%s: reading reply: %v", o.kind, err)
		return lat, false
	}
	if resp.StatusCode/100 != 2 {
		cn.l.fail("%s: HTTP %d: %.200s", o.kind, resp.StatusCode, cn.resp.String())
		return lat, false
	}
	var r reply
	if err := json.Unmarshal(cn.resp.Bytes(), &r); err != nil {
		cn.l.fail("%s: undecodable reply: %v", o.kind, err)
		return lat, false
	}
	if err := cn.check(o, seq, &r); err != nil {
		cn.l.fail("%s: %v", o.kind, err)
		return lat, false
	}
	return lat, true
}

func (cn *conn) check(o *op, seq uint64, r *reply) error {
	l := cn.l
	switch o.kind {
	case opAppend:
		l.mu.Lock()
		defer l.mu.Unlock()
		want := l.records[o.dataset] + o.records
		switch {
		case r.Dataset != o.dataset || r.AppendedRecords != o.records:
			return fmt.Errorf("reply names %q/%d records, sent %q/%d", r.Dataset, r.AppendedRecords, o.dataset, o.records)
		case r.Seq != seq:
			return fmt.Errorf("append seq %d, want %d (contiguous)", r.Seq, seq)
		case r.Records != want || r.Items != l.items[o.dataset]:
			return fmt.Errorf("dataset has %d records/%d items, want %d/%d", r.Records, r.Items, want, l.items[o.dataset])
		case r.MonitorVerdicts != l.monPer[o.dataset]:
			return fmt.Errorf("append released %d verdicts, want %d (one per live monitor)", r.MonitorVerdicts, l.monPer[o.dataset])
		}
		l.seq[o.dataset], l.records[o.dataset] = seq, want
		if o.dataset == l.subDataset {
			l.replyRecs[seq] = r.Records
		}
		return nil
	case opBatch:
		if len(r.Results) != len(o.items) {
			return fmt.Errorf("batch returned %d results for %d items", len(r.Results), len(o.items))
		}
		for i, res := range r.Results {
			it := &o.items[i]
			if len(res.Error) > 0 && string(res.Error) != "null" {
				return fmt.Errorf("batch item %d failed: %s", i, res.Error)
			}
			if res.Mechanism != it.kind.String() {
				return fmt.Errorf("batch item %d is %q, sent %q", i, res.Mechanism, it.kind)
			}
			var sub reply
			if err := json.Unmarshal(res.Response, &sub); err != nil {
				return fmt.Errorf("batch item %d: %v", i, err)
			}
			if err := checkMech(it.kind, it.k, it.eps, cn.sc.vecLen[it.vec], &sub); err != nil {
				return fmt.Errorf("batch item %d: %v", i, err)
			}
		}
		if math.Abs(r.EpsilonSpent-o.eps) > epsTol {
			return fmt.Errorf("batch charged ε %v, sent %v", r.EpsilonSpent, o.eps)
		}
	default:
		n := 0
		if o.dataset != "" {
			l.mu.Lock()
			n = l.items[o.dataset]
			l.mu.Unlock()
		} else {
			n = cn.sc.vecLen[o.vec]
		}
		if err := checkMech(o.kind, o.k, o.eps, n, r); err != nil {
			return err
		}
		if r.Tenant != o.tenant {
			return fmt.Errorf("reply bills tenant %q, sent %q", r.Tenant, o.tenant)
		}
	}
	l.mu.Lock()
	l.spent[o.tenant] += o.eps
	if o.dataset != "" {
		l.reads[o.dataset]++
	}
	l.mu.Unlock()
	return nil
}

// phaseResult is one phase's timing: the wall time until every connection
// finished, and the latency samples of the operations the scenario times.
type phaseResult struct {
	elapsed time.Duration
	lats    []time.Duration
	latSum  time.Duration // every admitted operation's latency, summed
}

// phase runs every connection's ops concurrently.
func phase(ctx context.Context, conns []*conn, ops [][]op, timed func(int, *op) bool) phaseResult {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		pr phaseResult
	)
	start := time.Now()
	for i, cn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]time.Duration, 0, len(ops[i]))
			var sum time.Duration
			for j := range ops[i] {
				if ctx.Err() != nil {
					break
				}
				o := &ops[i][j]
				lat, ok := cn.send(ctx, o)
				if ok {
					sum += lat
				}
				if ok && (timed == nil || timed(i, o)) {
					mine = append(mine, lat)
				}
			}
			mu.Lock()
			pr.lats = append(pr.lats, mine...)
			pr.latSum += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	pr.elapsed = time.Since(start)
	return pr
}

// subscriber reads one monitor's SSE stream, checking that verdict seqs
// arrive in order and noting when each arrived.
type subscriber struct {
	cancel  context.CancelFunc
	done    chan struct{}
	mu      sync.Mutex
	recvAt  map[uint64]time.Time
	recs    map[uint64]int
	next    int
	errs    []string
	retired bool
}

// subscribe opens GET /v1/monitors/{id}/stream and returns once the
// registration-time verdict (seq 0) has been read.
func subscribe(base, id string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{cancel: cancel, done: make(chan struct{}),
		recvAt: map[uint64]time.Time{}, recs: map[uint64]int{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/monitors/"+id+"/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	c := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET stream: %s", resp.Status)
	}
	first := make(chan struct{})
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		defer c.CloseIdleConnections()
		br := bufio.NewReader(resp.Body)
		signalled := false
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				if !signalled {
					close(first)
				}
				return
			}
			data, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "data: ")
			if !ok {
				continue
			}
			now := time.Now()
			var v verdictJSON
			s.mu.Lock()
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				s.errs = append(s.errs, "undecodable verdict: "+err.Error())
			} else if v.Seq != s.next {
				s.errs = append(s.errs, fmt.Sprintf("verdict seq %d arrived, want %d", v.Seq, s.next))
				s.next = v.Seq + 1
			} else {
				s.next++
			}
			s.recvAt[uint64(v.Seq)], s.recs[uint64(v.Seq)] = now, v.Records
			s.retired = s.retired || v.Retired
			s.mu.Unlock()
			if !signalled {
				signalled = true
				close(first)
			}
		}
	}()
	select {
	case <-first:
	case <-time.After(requestTimeout):
	}
	s.mu.Lock()
	got := s.next
	s.mu.Unlock()
	if got == 0 {
		s.close()
		return nil, errors.New("monitor stream delivered no registration verdict")
	}
	return s, nil
}

// waitFor waits until verdict seq n has arrived or the timeout passes.
func (s *subscriber) waitFor(n uint64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		ok := uint64(s.next) > n
		s.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}

// getJSON fetches base+path into v.
func getJSON(c *http.Client, base, path string, v any) error {
	resp, err := c.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %.200s", path, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON posts body to base+path and decodes the 2xx reply into v.
func postJSON(c *http.Client, base, path string, body, v any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		rb, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %.200s", path, resp.Status, rb)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
