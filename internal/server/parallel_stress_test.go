package server

// Multi-core write-path stress: per-dataset write domains must let appends
// to different datasets proceed concurrently (the PR-9 global stream lock
// serialized them), while each dataset's own journal → install → deliver
// order — and therefore its crash-recovered counts and verdict history —
// stays exactly sequential. Run under -race these tests also check the
// prepare-outside-the-lock append build and the block-parallel query scans
// against the RCU generation swap.

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/freegap/freegap/internal/engine"
)

// distinctDomainNames returns two dataset names that hash to different write
// domains (the second is searched for, so the test cannot rot if the hash
// changes).
func distinctDomainNames(t *testing.T, s *Server) (string, string) {
	t.Helper()
	a := "alpha"
	for i := 0; i < 10*numStreamDomains; i++ {
		b := fmt.Sprintf("bravo%d", i)
		if s.domain(b) != s.domain(a) {
			return a, b
		}
	}
	t.Fatal("no dataset name found hashing to a different domain")
	return "", ""
}

// TestAppendsToDistinctDatasetsDoNotSerialize pins the tentpole claim
// directly: holding one dataset's write domain (a stalled append, a slow
// journal drain) must not block an append to a dataset in another domain.
// Under the old global streamMu this test would time out.
func TestAppendsToDistinctDatasetsDoNotSerialize(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantBudget: 10})
	a, b := distinctDomainNames(t, s)
	for _, name := range []string{a, b} {
		if _, err := s.RegisterDataset(name, "test", bigTestDataset(64)); err != nil {
			t.Fatalf("RegisterDataset(%s): %v", name, err)
		}
	}

	// Wedge a's domain, as a stalled append to a would.
	d := s.domain(a)
	d.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, data := postJSON(t, ts.URL+"/v1/datasets/"+b+"/append",
			DatasetAppendRequest{FIMI: "1 2\n"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("append to %s: %d %s", b, resp.StatusCode, data)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.mu.Unlock()
		t.Fatal("append to a different domain blocked behind a wedged dataset: cross-dataset serialization")
	}
	d.mu.Unlock()

	// And the wedged dataset serves normally once released.
	if resp, data := postJSON(t, ts.URL+"/v1/datasets/"+a+"/append",
		DatasetAppendRequest{FIMI: "1 2\n"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("append to %s after release: %d %s", a, resp.StatusCode, data)
	}
}

// TestParallelStressAcrossDatasetsWithCrashRecovery interleaves concurrent
// appends to *different* datasets with monitor deliveries and filter queries
// (the scans are big enough to take the block-parallel path), then kill-9s
// the server and checks that every dataset recovers byte-identical counts
// and a byte-identical verdict history, and that each dataset's append
// sequence numbers came out exactly 1..N with no gap or duplicate.
func TestParallelStressAcrossDatasetsWithCrashRecovery(t *testing.T) {
	const (
		numDatasets = 4
		appenders   = 2
		iters       = 12
		baseRecords = 9_000 // past DefaultMinParallelRecords: queries fan out
	)
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, 1e9)

	names := make([]string, numDatasets)
	monIDs := make([]string, numDatasets)
	for i := range names {
		names[i] = fmt.Sprintf("stress%d", i)
		// Item 3 in every record gives each dataset a universe of at least
		// 4 items before any append lands, so the k=3 queries below are
		// valid however the goroutines interleave.
		upload := DatasetUploadRequest{Name: names[i], FIMI: fimiRepeat(fmt.Sprintf("%d 1 3", i), baseRecords)}
		if resp, data := postJSON(t, ts.URL+"/v1/datasets", upload); resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: %d %s", names[i], resp.StatusCode, data)
		}
		// Threshold far above reach: every verdict stays below, so the
		// monitor never retires and answers once per append.
		create := MonitorCreateRequest{
			Tenant: "acme", Dataset: names[i], Item: 1,
			Threshold: 1e9, Epsilon: 0.5, MaxAnswers: 1, Seed: uint64(i + 1),
		}
		resp, data := postJSON(t, ts.URL+"/v1/monitors", create)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("monitor on %s: %d %s", names[i], resp.StatusCode, data)
		}
		monIDs[i] = decodeInto[MonitorCreateResponse](t, data).ID
	}

	var mu sync.Mutex
	seqs := make(map[string][]uint64)
	var wg sync.WaitGroup
	for ds := 0; ds < numDatasets; ds++ {
		for w := 0; w < appenders; w++ {
			wg.Add(1)
			go func(ds, w int) {
				defer wg.Done()
				name := names[ds]
				for i := 0; i < iters; i++ {
					resp, data := postJSON(t, ts.URL+"/v1/datasets/"+name+"/append",
						DatasetAppendRequest{FIMI: fimiRepeat(fmt.Sprintf("%d", (w*31+i)%97), 3)})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("append %s: %d %s", name, resp.StatusCode, data)
						return
					}
					ar := decodeInto[DatasetAppendResponse](t, data)
					mu.Lock()
					seqs[name] = append(seqs[name], ar.Seq)
					mu.Unlock()
				}
			}(ds, w)
		}
	}
	// Filter queries over the big datasets exercise the parallel scan path
	// while generations swap underneath.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body := TopKRequest{Common: Common{Tenant: "query", Epsilon: 0.01, Monotonic: true,
					Dataset: names[(q+i)%numDatasets],
					Queries: &QuerySpec{Kind: "filter", Where: &engine.RecordPredicate{MinLen: 1}}}, K: 3}
				resp, data := postJSON(t, ts.URL+"/v1/topk", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query: %d %s", resp.StatusCode, data)
					return
				}
			}
		}(q)
	}
	// Live SSE subscribers ride along while the appends fan verdicts out.
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			readSSEVerdicts(t, ts.URL+"/v1/monitors/"+monIDs[m]+"/stream", 3, 30*time.Second)
		}(m)
	}
	wg.Wait()

	// Each dataset's sequence numbers must be exactly 1..N: per-dataset
	// ordering survived cross-dataset concurrency.
	totalAppends := appenders * iters
	for _, name := range names {
		got := append([]uint64(nil), seqs[name]...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != totalAppends {
			t.Fatalf("%s: %d append responses, want %d", name, len(got), totalAppends)
		}
		for i, sq := range got {
			if sq != uint64(i)+1 {
				t.Fatalf("%s: seqs not contiguous from 1: %v", name, got)
			}
		}
	}

	// Snapshot the pre-crash truth.
	wantCounts := make(map[string][]float64)
	wantRecords := make(map[string]int)
	wantHistory := make(map[string][]string)
	verdictsPerMonitor := 1 + totalAppends // registration + one per append
	for i, name := range names {
		e, err := s.Datasets().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		wantCounts[name] = append([]float64(nil), e.ResolveAll()...)
		wantRecords[name] = e.Info().Records
		wantHistory[name] = readSSEVerdicts(t, ts.URL+"/v1/monitors/"+monIDs[i]+"/stream",
			verdictsPerMonitor, 20*time.Second)
	}

	crash(t, s, ts)

	s2, ts2 := newPersistentServer(t, dir, 1e9)
	for i, name := range names {
		e, err := s2.Datasets().Get(name)
		if err != nil {
			t.Fatalf("%s not restored: %v", name, err)
		}
		if got := e.Info().Records; got != wantRecords[name] {
			t.Errorf("%s: restored records = %d, want %d", name, got, wantRecords[name])
		}
		if got := e.ResolveAll(); !reflect.DeepEqual(got, wantCounts[name]) {
			t.Errorf("%s: restored counts diverged from the pre-crash vector", name)
		}
		gotHistory := readSSEVerdicts(t, ts2.URL+"/v1/monitors/"+monIDs[i]+"/stream",
			verdictsPerMonitor, 20*time.Second)
		if !reflect.DeepEqual(gotHistory, wantHistory[name]) {
			t.Errorf("%s: verdict history not replayed byte-identically", name)
		}
	}
}
