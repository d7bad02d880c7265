package store

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
)

func TestAppendExtendsDerivedStateIncrementally(t *testing.T) {
	s := New()
	base := testDB(t)
	e, err := s.Register("sales", "test", base)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	delta := [][]int32{{0, 3}, {3, 3, 4}, {2}}
	if _, err := s.Append("sales", delta); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// The appended state must equal a from-scratch build over the combined
	// records...
	combined := base.AppendRecords(delta)
	want := combined.ItemCounts()
	if got := e.ResolveAll(); !reflect.DeepEqual(got, want) {
		t.Errorf("ResolveAll after append = %v, want %v", got, want)
	}
	// ...without ever rescanning the pre-append records: the only full scan
	// on record is the registration-time materialisation.
	if got := e.CountScans(); got != 1 {
		t.Errorf("CountScans after append = %d, want 1 (append must be delta-maintained)", got)
	}

	info := e.Info()
	if info.Records != combined.NumRecords() {
		t.Errorf("Records = %d, want %d", info.Records, combined.NumRecords())
	}
	if info.Items != combined.NumItems() {
		t.Errorf("Items = %d, want %d (delta grew the universe)", info.Items, combined.NumItems())
	}
	if got, want := info.MeanLength, combined.MeanLength(); got != want {
		t.Errorf("MeanLength = %v, want %v", got, want)
	}

	// The arena sketches must describe the appended counts.
	a := e.Arena()
	if !a.Has(4) {
		t.Error("presence bitset missed the newly appended item 4")
	}
	if got, want := a.MaxCount(), maxOf(want); got != want {
		t.Errorf("MaxCount = %v, want %v", got, want)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestAppendValidation(t *testing.T) {
	s := NewWithLimits(Limits{MaxRecords: 6, MaxItems: 8})
	if _, err := s.Register("sales", "test", testDB(t)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := s.Append("nope", [][]int32{{0}}); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("append to unknown dataset: err = %v, want ErrUnknownDataset", err)
	}
	if err := s.CheckAppend("sales", [][]int32{{-1}}); err == nil {
		t.Error("negative item id admitted")
	}
	if err := s.CheckAppend("sales", [][]int32{{0}, {1}, {2}}); err == nil {
		t.Error("append past MaxRecords admitted")
	}
	if err := s.CheckAppend("sales", [][]int32{{8}}); err == nil {
		t.Error("append past MaxItems admitted")
	}
	ok := [][]int32{{7}, {0, 1}}
	if err := s.CheckAppend("sales", ok); err != nil {
		t.Errorf("CheckAppend(valid delta): %v", err)
	}
	if _, err := s.Append("sales", ok); err != nil {
		t.Errorf("Append(valid delta): %v", err)
	}
	// A rejected append must leave the dataset untouched.
	if _, err := s.Append("sales", [][]int32{{0}}); err == nil {
		t.Error("append past MaxRecords admitted by Append")
	}
	e, _ := s.Get("sales")
	if got := e.Info().Records; got != 6 {
		t.Errorf("Records after rejected append = %d, want 6", got)
	}
}

// TestAppendNeverServesStalePlan pins the store half of keeping the plan
// cache across appends: an append leaves cached plans in place, but their
// stamps no longer match the entry, so a resolver's Lookup reports them
// stale (to be extended) instead of serving them; and a resolution that
// pinned the old generation cannot overwrite a newer cached vector.
func TestAppendNeverServesStalePlan(t *testing.T) {
	s := New()
	e, err := s.Register("sales", "test", testDB(t))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	current := func(pe *PlanEntry) bool {
		n, ok := pe.Records(e)
		return ok && n == e.Dataset().NumRecords()
	}
	stamped := func(answer float64) *PlanEntry {
		return &PlanEntry{Answers: []float64{answer}, Stamps: []PlanStamp{{Entry: e, Records: e.Dataset().NumRecords()}}}
	}
	old := stamped(1)
	e.Plans().Put("q", old)
	if _, fresh := e.Plans().Lookup("q", current); !fresh {
		t.Fatal("a plan stamped with the current generation is not served")
	}
	if _, err := s.Append("sales", [][]int32{{0}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	pe, fresh := e.Plans().Lookup("q", current)
	if fresh {
		t.Error("append served a stale compiled plan")
	}
	if pe != old {
		t.Error("append dropped the cached plan instead of leaving it to be extended")
	}
	if h, m, x := e.Plans().Hits(), e.Plans().Misses(), e.Plans().Extensions(); h != 1 || m != 0 || x != 1 {
		t.Errorf("hits=%d misses=%d extensions=%d, want 1, 0, 1", h, m, x)
	}

	newer := stamped(2)
	e.Plans().Put("q", newer)
	e.Plans().Put("q", old) // a resolution that pinned the old generation finishing late
	if pe, fresh := e.Plans().Lookup("q", current); !fresh || pe != newer {
		t.Error("an older-stamped Put replaced the current cached vector")
	}
}

func TestRemoveUnlinksArenaFile(t *testing.T) {
	dir := t.TempDir()
	s := New()
	e, err := s.Register("sales", "test", testDB(t))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	path := filepath.Join(dir, "sales.arena")
	if err := WriteArena(path, e.Dataset().NumRecords(), e.Arena()); err != nil {
		t.Fatalf("WriteArena: %v", err)
	}
	if p := e.Arena().Path(); p != path {
		t.Fatalf("arena path = %q, want %q", p, path)
	}
	// The path must survive append generations, or Remove after an append
	// would leak the file.
	if _, err := s.Append("sales", [][]int32{{0, 1}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if p := e.Arena().Path(); p != path {
		t.Fatalf("arena path after append = %q, want %q", p, path)
	}
	if !s.Remove("sales") {
		t.Fatal("Remove reported no dataset")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("arena file still on disk after Remove: stat err = %v", err)
	}
}

func TestExtendZonesMatchesFromScratchBuild(t *testing.T) {
	records := make([][]int32, 300)
	for i := range records {
		records[i] = []int32{int32(i % 7), int32(i % 31), int32(i % 64)}
	}
	base := dataset.New("zones", records[:130])
	z := BuildZones(base, 64)

	delta := records[130:]
	grown := base.AppendRecords(delta)
	got := ExtendZones(z, grown, base.NumRecords())
	want := BuildZones(grown, 64)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtendZones diverged from a from-scratch build:\n got %+v\nwant %+v", got, want)
	}
	// The shared prefix blocks must not be rescanned state — they are copied
	// — and the original sketches must be untouched.
	if !reflect.DeepEqual(z, BuildZones(base, 64)) {
		t.Error("ExtendZones mutated the old generation's sketches")
	}
}

func TestPlanCacheSecondChanceSweep(t *testing.T) {
	var c PlanCache
	for i := 0; i < DefaultMaxPlans; i++ {
		c.Put(fmt.Sprintf("k%d", i), &PlanEntry{})
	}
	if got := c.Len(); got != DefaultMaxPlans {
		t.Fatalf("Len = %d, want %d", got, DefaultMaxPlans)
	}
	// Touch a working set; the capacity sweep must keep it.
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missing before sweep", i)
		}
	}
	c.Put("overflow", &PlanEntry{})
	if got := c.Flushes(); got != 1 {
		t.Errorf("Flushes = %d, want 1", got)
	}
	if got := c.Len(); got != 11 {
		t.Errorf("Len after sweep = %d, want 11 (10 hot survivors + the new entry)", got)
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("hot entry k%d evicted by the sweep", i)
		}
	}
	if _, ok := c.Get("k200"); ok {
		t.Error("cold entry survived the sweep")
	}

	// The protected set is capped: a sweep with everything hot must not keep
	// the whole generation (that would just defer the same wholesale flush).
	var full PlanCache
	for i := 0; i < DefaultMaxPlans; i++ {
		key := fmt.Sprintf("k%d", i)
		full.Put(key, &PlanEntry{})
	}
	for i := 0; i < DefaultMaxPlans; i++ {
		full.Get(fmt.Sprintf("k%d", i))
	}
	full.Put("overflow", &PlanEntry{})
	if got := full.Len(); got != maxProtectedPlans+1 {
		t.Errorf("Len after all-hot sweep = %d, want %d", got, maxProtectedPlans+1)
	}
}

func TestAppendConcurrentWithReaders(t *testing.T) {
	s := New()
	e, err := s.Register("sales", "test", testDB(t))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := e.View()
				counts := v.Arena().Counts()
				// A generation view must be internally consistent: the counts
				// slice always matches the view's own dataset universe.
				if len(counts) != v.Dataset().NumItems() {
					t.Error("torn view: counts universe != dataset universe")
					return
				}
				e.ResolveAll()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Append("sales", [][]int32{{0, 1, 2}, {int32(i % 50)}}); err != nil {
			t.Errorf("Append #%d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got, want := e.Info().Records, 4+400; got != want {
		t.Errorf("Records = %d, want %d", got, want)
	}
}

// TestPagedAppendMatchesFromScratch grows a dataset by appends that land on
// and across page boundaries and checks every generation against a
// from-scratch build over the concatenated records: the records themselves,
// the stats, the counts, the zone sketches and every arena summary.
func TestPagedAppendMatchesFromScratch(t *testing.T) {
	src := rand.New(rand.NewPCG(1, 2))
	record := func() []int32 {
		r := make([]int32, src.IntN(8)) // empty records included
		for j := range r {
			r[j] = int32(src.IntN(300)) // repeats within a record included
		}
		if src.IntN(50) == 0 {
			r = append(r, int32(300+src.IntN(200))) // grows the universe
		}
		return r
	}
	records := func(n int) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			out[i] = record()
		}
		return out
	}

	all := records(1)
	s := New()
	e, err := s.Register("grow", "test", dataset.New("grow", append([][]int32(nil), all...)))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1, 2047, 2048, 2049, 0, 1}
	for i := 0; i < 8; i++ {
		sizes = append(sizes, src.IntN(3*dataset.PageSize))
	}
	grow := func(delta [][]int32) {
		all = append(all, delta...)
		if _, err := s.Append("grow", delta); err != nil {
			t.Fatalf("append %d records: %v", len(delta), err)
		}
		checkGeneration(t, fmt.Sprintf("after %d records", len(all)), e.View(), all)
	}
	for _, n := range sizes {
		grow(records(n))
	}
	// One record holding every present item raises every non-zero count,
	// the min-holders' included, so the min must rise with them.
	var every []int32
	for it, c := range e.ResolveAll() {
		if c != 0 {
			every = append(every, int32(it))
		}
	}
	grow([][]int32{every})
	if got := e.CountScans(); got != 1 {
		t.Errorf("CountScans = %d, want 1", got)
	}

	// Two appends prepared against one base with a partial tail page: each
	// fills its own copy of the tail, so installing one leaves the other and
	// the base generation as they were.
	if len(all)%dataset.PageSize == 0 {
		t.Fatal("base ends on a page boundary; the tail case needs a partial page")
	}
	base := e.View()
	deltaA, deltaB := records(100), records(100)
	pa, err := s.PrepareAppend("grow", deltaA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.PrepareAppend("grow", deltaB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallAppend(pa); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallAppend(pb); !errors.Is(err, ErrStaleAppend) {
		t.Fatalf("second install from the same base: err = %v, want ErrStaleAppend", err)
	}
	checkGeneration(t, "base after both prepares", base, all)
	checkGeneration(t, "installed append", e.View(), append(append([][]int32(nil), all...), deltaA...))
	checkGeneration(t, "dropped append", View{db: pb.next.db, arena: pb.next.arena}, append(append([][]int32(nil), all...), deltaB...))
}

// checkGeneration compares v with a from-scratch registration of records.
func checkGeneration(t *testing.T, what string, v View, records [][]int32) {
	t.Helper()
	want := dataset.New("grow", records)
	scratch, err := New().Register("grow", "test", want)
	if err != nil {
		t.Fatal(err)
	}
	wa, ga, db := scratch.Arena(), v.Arena(), v.Dataset()
	if db.NumRecords() != want.NumRecords() || db.NumItems() != want.NumItems() || db.TotalLength() != want.TotalLength() {
		t.Fatalf("%s: records/items/length = %d/%d/%d, want %d/%d/%d", what,
			db.NumRecords(), db.NumItems(), db.TotalLength(), want.NumRecords(), want.NumItems(), want.TotalLength())
	}
	for i := range records {
		if !slices.Equal(db.Record(i), records[i]) {
			t.Fatalf("%s: Record(%d) = %v, want %v", what, i, db.Record(i), records[i])
		}
	}
	if !reflect.DeepEqual(db.ItemCounts(), want.ItemCounts()) {
		t.Errorf("%s: ItemCounts diverged", what)
	}
	if !reflect.DeepEqual(ga.counts, wa.counts) || !reflect.DeepEqual(ga.present, wa.present) {
		t.Errorf("%s: arena counts or presence bitset diverged", what)
	}
	if ga.min != wa.min || ga.max != wa.max || ga.nonzero != wa.nonzero {
		t.Errorf("%s: min/max/nonzero = %v/%v/%d, want %v/%v/%d", what, ga.min, ga.max, ga.nonzero, wa.min, wa.max, wa.nonzero)
	}
	if !reflect.DeepEqual(ga.zones, wa.zones) {
		t.Errorf("%s: zone sketches diverged", what)
	}
}

// TestPrepareAppendBytesIndependentOfResidentRecords pins the claim that an
// append costs O(delta + items), not O(records): the heap bytes one
// PrepareAppend allocates for the same 16-record delta may grow by at most
// 25% from a 64k-record to a 1M-record dataset over the same item universe.
// The remaining growth is the page directory and the zone sketches, both
// O(records/PageSize).
func TestPrepareAppendBytesIndependentOfResidentRecords(t *testing.T) {
	const items = 41_270 // a kosarak-sized universe
	// Records share a few backing slices; only the record list is large.
	pool := make([][]int32, 256)
	for i := range pool {
		pool[i] = []int32{int32(i), int32(i * 7 % items), int32(items - 1 - i)}
	}
	delta := make([][]int32, 16)
	for i := range delta {
		delta[i] = []int32{int32(i), int32(i * 131 % items)}
	}
	bytesPerAppend := func(records int) int64 {
		recs := make([][]int32, records)
		for i := range recs {
			recs[i] = pool[i%len(pool)]
		}
		s := New()
		if _, err := s.Register("d", "test", dataset.New("d", recs)); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.PrepareAppend("d", delta); err != nil {
					b.Fatal(err)
				}
			}
		})
		return r.AllocedBytesPerOp()
	}
	small, large := bytesPerAppend(1<<16), bytesPerAppend(1<<20)
	t.Logf("PrepareAppend: %d B at 64k records, %d B at 1M records", small, large)
	if float64(large) > 1.25*float64(small) {
		t.Errorf("PrepareAppend allocates %d B at 1M records vs %d B at 64k: append cost grows with the resident records", large, small)
	}
}
