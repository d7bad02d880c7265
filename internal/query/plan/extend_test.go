package plan

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
	"github.com/freegap/freegap/internal/engine"
	"github.com/freegap/freegap/internal/store"
)

// appendTo appends delta to the named dataset in both the store and the raw
// copy the naive evaluator rescans.
func (w *testWorld) appendTo(t *testing.T, name string, delta [][]int32) {
	t.Helper()
	if _, err := w.store.Append(name, delta); err != nil {
		t.Fatalf("Append(%s): %v", name, err)
	}
	w.raw[name] = w.raw[name].AppendRecords(delta)
}

// randomRecords draws n records of 1-4 items below maxItem.
func randomRecords(r *rand.Rand, n, maxItem int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		rec := make([]int32, 1+r.Intn(4))
		for j := range rec {
			rec[j] = int32(r.Intn(maxItem))
		}
		out[i] = rec
	}
	return out
}

// extensionSpecs draws canonically distinct random specs until the pool
// holds four roots of each kind that can hold a filter: filter, threshold,
// union, intersect, minus and join.
func extensionSpecs(r *rand.Rand) []*engine.QuerySpec {
	want := map[string]int{
		engine.QueryFilter: 4, engine.QueryThreshold: 4, engine.QueryMinus: 4,
		engine.QueryJoin: 4, engine.QueryUnion: 4, engine.QueryIntersect: 4,
	}
	seen := map[string]bool{}
	var specs []*engine.QuerySpec
	for len(want) > 0 {
		spec := genSpec(r, 3)
		if want[spec.Kind] == 0 || seen[Canonical(spec)] {
			continue
		}
		seen[Canonical(spec)] = true
		if want[spec.Kind]--; want[spec.Kind] == 0 {
			delete(want, spec.Kind)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestExtendDifferential is the differential contract of cached-plan
// extension: random specs are cached, the datasets grow by a fixed sequence
// of appends, and after every append each cached resolution — extended over
// the delta or served as a hit — must be byte-identical to the naive
// evaluator and to an uncached rescan, at every scan setting. The sequence
// covers empty appends (a current stamp: every resolution is a hit),
// universe growth on both datasets, deltas straddling the 2048-record
// page/zone boundary and appends to a join target only.
func TestExtendDifferential(t *testing.T) {
	steps := []struct {
		dataset string
		n       int
		maxItem int
	}{
		{"main", 0, 16},
		{"main", 3, 20}, // items 16..19 grow the universe
		{"other", 2, 12},
		{"main", 2040, 20}, // 13 → 2053 records: crosses the first block boundary
		{"main", 1, 22},
		{"other", 0, 8},
		{"main", 4100, 20}, // spans whole blocks
		{"other", 3000, 10},
		{"main", 7, 20},
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"parallel", Options{Workers: 4, MinParallelRecords: -1}},
		{"noskip", Options{NoSkip: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t)
			e := w.entry(t, "main")
			r := rand.New(rand.NewSource(14))
			specs := extensionSpecs(r)
			check := func(step int) (hits, extended int) {
				for _, spec := range specs {
					res, err := Resolve(w.store, e, spec, tc.opts)
					if err != nil {
						t.Fatalf("step %d: Resolve(%s): %v", step, Canonical(spec), err)
					}
					want, err := naiveEval(w.raw, w.raw["main"], spec)
					if err != nil {
						t.Fatal(err)
					}
					uncached := tc.opts
					uncached.NoCache = true
					rescan, err := Resolve(w.store, e, spec, uncached)
					if err != nil {
						t.Fatal(err)
					}
					if !vecEqual(res.Answers, want) || !vecEqual(rescan.Answers, want) {
						t.Fatalf("step %d spec %s (hit=%v extended=%v):\n cached %v\n rescan %v\n  naive %v",
							step, Canonical(spec), res.CacheHit, res.Extended, res.Answers, rescan.Answers, want)
					}
					if res.CacheHit {
						hits++
					}
					if res.Extended {
						extended++
					}
				}
				return hits, extended
			}
			check(-1) // fill the cache
			for i, st := range steps {
				w.appendTo(t, st.dataset, randomRecords(r, st.n, st.maxItem))
				hits, extended := check(i)
				if st.n == 0 && hits != len(specs) {
					t.Errorf("step %d: empty append left %d of %d cached plans current", i, hits, len(specs))
				}
				if st.dataset == "main" && st.n > 0 && extended != len(specs) {
					t.Errorf("step %d: %d of %d cached plans extended after an append to their root", i, extended, len(specs))
				}
			}
		})
	}
}

// TestExtendedPlanExplain pins the observables of an extension: the
// refreshed plan reports the stamp it extended from, scans only the delta,
// charges count_scans once for the filter node, and counts as an extension
// rather than a hit or a miss.
func TestExtendedPlanExplain(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "uniform")
	spec := &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(0)}}
	if _, err := Resolve(w.store, e, spec, Options{}); err != nil {
		t.Fatal(err)
	}
	base, scans := w.raw["uniform"].NumRecords(), e.CountScans()

	delta := make([][]int32, 16)
	for i := range delta {
		delta[i] = []int32{0, 3}
	}
	w.appendTo(t, "uniform", delta)
	res, err := Resolve(w.store, e, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if res.CacheHit || !res.Extended || ex.Cached {
		t.Errorf("hit=%v extended=%v cached=%v, want an uncached extension", res.CacheHit, res.Extended, ex.Cached)
	}
	if ex.ExtendedFromRecords != base || ex.RecordsScanned != len(delta) || ex.RecordsTotal != base+len(delta) {
		t.Errorf("explain extended_from_records=%d records_scanned=%d records_total=%d, want %d, %d, %d",
			ex.ExtendedFromRecords, ex.RecordsScanned, ex.RecordsTotal, base, len(delta), base+len(delta))
	}
	if got := e.CountScans(); got != scans+1 {
		t.Errorf("count_scans %d → %d, want one more for the delta scan", scans, got)
	}
	if want, _ := naiveEval(w.raw, w.raw["uniform"], spec); !vecEqual(res.Answers, want) {
		t.Errorf("extended vector differs from naive\n got: %v\nwant: %v", res.Answers, want)
	}

	again, err := Resolve(w.store, e, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !vecEqual(again.Answers, res.Answers) {
		t.Errorf("the extended vector was not cached: hit=%v", again.CacheHit)
	}
	if h, m, x := e.Plans().Hits(), e.Plans().Misses(), e.Plans().Extensions(); h != 1 || m != 1 || x != 1 {
		t.Errorf("plan cache hits=%d misses=%d extensions=%d, want 1 each", h, m, x)
	}
}

// TestJoinCacheSeesAppendsToOtherDataset is the stale-join regression: a
// join is cached on its root dataset, and an append to the dataset it joins
// against must still change the next answer.
func TestJoinCacheSeesAppendsToOtherDataset(t *testing.T) {
	w := newTestWorld(t)
	e := w.entry(t, "main")
	spec := &engine.QuerySpec{Kind: engine.QueryJoin, Dataset: "other",
		Of: []*engine.QuerySpec{{Kind: engine.QueryAllItems}}}
	if _, err := Resolve(w.store, e, spec, Options{}); err != nil {
		t.Fatal(err)
	}
	w.appendTo(t, "other", [][]int32{{5, 6, 7}})
	want, err := naiveEval(w.raw, w.raw["main"], spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := Resolve(w.store, e, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !vecEqual(res.Answers, want) {
			t.Fatalf("resolve %d after appending to the join target: got %v, want %v", i, res.Answers, want)
		}
	}
}

// TestResolveRacingAppendCachesNoStaleVector is the stale-plan race
// regression: a resolution that pinned generation N can finish after an
// append installed N+1. Whatever it caches, a cached resolve issued after
// the append returns must equal an uncached rescan.
func TestResolveRacingAppendCachesNoStaleVector(t *testing.T) {
	const records, rounds = 200_000, 30
	recs := make([][]int32, records)
	for i := range recs {
		recs[i] = []int32{0, int32(1 + i%50)}
	}
	st := store.New()
	defer st.Close()
	e, err := st.Register("race", "test", dataset.New("race", recs))
	if err != nil {
		t.Fatal(err)
	}
	spec := &engine.QuerySpec{Kind: engine.QueryFilter, Where: &engine.RecordPredicate{Contains: items(0)}}
	for round := 0; round < rounds; round++ {
		started := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(started)
			if _, err := Resolve(st, e, spec, Options{Workers: 1}); err != nil {
				t.Error(err)
			}
		}()
		<-started
		if _, err := st.Append("race", [][]int32{{0, 1}}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		cached, err := Resolve(st, e, spec, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rescan, err := Resolve(st, e, spec, Options{Workers: 1, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if !vecEqual(cached.Answers, rescan.Answers) {
			t.Fatalf("round %d: cached resolve after the append is stale (hit=%v): item 1 count %v, rescan %v",
				round, cached.CacheHit, cached.Answers[1], rescan.Answers[1])
		}
	}
}
