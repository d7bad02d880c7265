package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/freegap/freegap/internal/rng"
)

func smallDB() *Transactions {
	return New("toy", [][]int32{
		{0, 1, 2},
		{1, 2},
		{2},
		{0, 2, 3},
		{3, 3}, // duplicate item inside one transaction counts once
	})
}

func TestNewInfersUniverse(t *testing.T) {
	db := smallDB()
	if db.NumItems() != 4 {
		t.Fatalf("NumItems = %d, want 4", db.NumItems())
	}
	if db.NumRecords() != 5 {
		t.Fatalf("NumRecords = %d, want 5", db.NumRecords())
	}
	if db.Name() != "toy" {
		t.Fatalf("Name = %q", db.Name())
	}
}

func TestNewPanicsOnNegativeItem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", [][]int32{{-1}})
}

func TestItemCounts(t *testing.T) {
	counts := smallDB().ItemCounts()
	want := []float64{2, 2, 4, 2}
	if len(counts) != len(want) {
		t.Fatalf("len = %d want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("count[%d] = %v, want %v", i, counts[i], want[i])
		}
	}
}

func TestMeanLength(t *testing.T) {
	got := smallDB().MeanLength()
	want := (3.0 + 2 + 1 + 3 + 2) / 5.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanLength = %v, want %v", got, want)
	}
	empty := New("empty", nil)
	if empty.MeanLength() != 0 {
		t.Fatal("empty dataset must report zero mean length")
	}
}

func TestStatsString(t *testing.T) {
	s := smallDB().Stats()
	if s.Records != 5 || s.Items != 4 {
		t.Fatalf("unexpected stats %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string summary")
	}
}

func TestRemoveRecordAdjacency(t *testing.T) {
	db := smallDB()
	counts := db.ItemCounts()
	for i := 0; i < db.NumRecords(); i++ {
		neighbor := db.RemoveRecord(i)
		if neighbor.NumRecords() != db.NumRecords()-1 {
			t.Fatalf("record count after removal: %d", neighbor.NumRecords())
		}
		nCounts := neighbor.ItemCounts()
		// Sensitivity-1 counting queries: each count changes by at most 1 and
		// never increases when a record is removed.
		for item := range counts {
			diff := counts[item] - nCounts[item]
			if diff < 0 || diff > 1 {
				t.Fatalf("removing record %d changed item %d count by %v", i, item, diff)
			}
		}
	}
}

func TestRemoveRecordDoesNotMutateOriginal(t *testing.T) {
	db := smallDB()
	before := db.NumRecords()
	_ = db.RemoveRecord(0)
	if db.NumRecords() != before {
		t.Fatal("RemoveRecord mutated the receiver")
	}
}

func TestRemoveRecordPanicsOutOfRange(t *testing.T) {
	for _, i := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for index %d", i)
				}
			}()
			smallDB().RemoveRecord(i)
		}()
	}
}

func TestAddRecordGrowsUniverse(t *testing.T) {
	db := smallDB()
	bigger := db.AddRecord([]int32{9})
	if bigger.NumItems() != 10 {
		t.Fatalf("NumItems = %d, want 10", bigger.NumItems())
	}
	if bigger.NumRecords() != db.NumRecords()+1 {
		t.Fatal("record not added")
	}
	if db.NumItems() != 4 {
		t.Fatal("AddRecord mutated the receiver")
	}
}

func TestTopKItems(t *testing.T) {
	counts := []float64{5, 9, 1, 9, 3}
	top := TopKItems(counts, 3)
	want := []int{1, 3, 0} // ties broken by smaller index
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopKItems = %v, want %v", top, want)
		}
	}
	if got := TopKItems(counts, 100); len(got) != len(counts) {
		t.Fatalf("k beyond length should clamp, got %d", len(got))
	}
}

func TestTopKItemsPanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TopKItems([]float64{1}, -1)
}

func TestKthLargest(t *testing.T) {
	counts := []float64{5, 9, 1, 9, 3}
	cases := []struct {
		k    int
		want float64
	}{{1, 9}, {2, 9}, {3, 5}, {4, 3}, {5, 1}}
	for _, c := range cases {
		if got := KthLargest(counts, c.k); got != c.want {
			t.Errorf("KthLargest(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestKthLargestPanics(t *testing.T) {
	for _, k := range []int{0, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for k=%d", k)
				}
			}()
			KthLargest([]float64{1, 2, 3, 4, 5}, k)
		}()
	}
}

func TestRandomThresholdWithinRange(t *testing.T) {
	src := rng.NewXoshiro(4)
	counts := make([]float64, 200)
	for i := range counts {
		counts[i] = float64(1000 - i)
	}
	k := 10
	lowBound := KthLargest(counts, 8*k)  // smallest admissible threshold
	highBound := KthLargest(counts, 2*k) // largest admissible threshold
	for trial := 0; trial < 200; trial++ {
		th := RandomThreshold(src, counts, k)
		if th < lowBound || th > highBound {
			t.Fatalf("threshold %v outside [%v, %v]", th, lowBound, highBound)
		}
	}
}

func TestRandomThresholdSmallUniverse(t *testing.T) {
	src := rng.NewXoshiro(4)
	counts := []float64{10, 5, 3}
	// 2k..8k exceeds the universe; must clamp instead of panicking.
	th := RandomThreshold(src, counts, 5)
	if th < 3 || th > 10 {
		t.Fatalf("threshold %v out of data range", th)
	}
}

func TestCountAbove(t *testing.T) {
	counts := []float64{5, 9, 1, 9, 3}
	if got := CountAbove(counts, 4); got != 3 {
		t.Fatalf("CountAbove = %d, want 3", got)
	}
	if got := CountAbove(counts, 100); got != 0 {
		t.Fatalf("CountAbove = %d, want 0", got)
	}
}

func TestItemCountsPropertyMatchesNaive(t *testing.T) {
	src := rng.NewXoshiro(99)
	f := func(seed uint64) bool {
		local := rng.NewXoshiro(seed)
		n := 1 + rng.Intn(local, 40)
		items := 1 + rng.Intn(local, 20)
		records := make([][]int32, n)
		for i := range records {
			l := 1 + rng.Intn(local, 6)
			rec := make([]int32, l)
			for j := range rec {
				rec[j] = int32(rng.Intn(local, items))
			}
			records[i] = rec
		}
		db := New("prop", records)
		counts := db.ItemCounts()
		// Naive recount.
		naive := make([]float64, db.NumItems())
		for _, rec := range records {
			seen := map[int32]bool{}
			for _, it := range rec {
				if !seen[it] {
					seen[it] = true
					naive[it]++
				}
			}
		}
		for i := range naive {
			if counts[i] != naive[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: nil}
	_ = src
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRecordsNeverWritesSharedStorage(t *testing.T) {
	// Spare capacity past the caller's records and a partial tail page: an
	// append that wrote in place would land in either.
	backing := make([][]int32, PageSize+3, 2*PageSize)
	for i := range backing {
		backing[i] = []int32{int32(i % 5)}
	}
	db := New("shared", backing)
	if db.AppendRecords([][]int32{{6}}); backing[:cap(backing)][len(backing)] != nil {
		t.Error("append wrote into the caller's spare capacity")
	}
	// Two appends to one appended generation, whose tail page was built by
	// an append.
	base := db.AppendRecords([][]int32{{5}})
	a := base.AppendRecords([][]int32{{7}, {8}})
	b := base.AppendRecords([][]int32{{9}})
	if base.NumRecords() != PageSize+4 || a.NumRecords() != PageSize+6 || b.NumRecords() != PageSize+5 {
		t.Fatalf("records = %d/%d/%d", base.NumRecords(), a.NumRecords(), b.NumRecords())
	}
	if got := a.Record(PageSize + 4)[0]; got != 7 {
		t.Errorf("a's first appended record holds %d, want 7 (b overwrote it)", got)
	}
	if got := b.Record(PageSize + 4)[0]; got != 9 {
		t.Errorf("b's appended record holds %d, want 9", got)
	}
	if base.NumItems() != 6 || a.NumItems() != 9 || b.NumItems() != 10 {
		t.Errorf("items = %d/%d/%d, want 6/9/10", base.NumItems(), a.NumItems(), b.NumItems())
	}
}
