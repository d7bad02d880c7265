package dataset

import (
	"fmt"
	"sort"

	"github.com/freegap/freegap/internal/rng"
)

// PageSize is the number of records per page of a Transactions. The store's
// zone blocks are one page each.
const PageSize = 2048

// Transactions is a transaction database: each element is one record, the set
// of item identifiers that appear in that record. Item identifiers are small
// non-negative integers; duplicates within a record are ignored by the
// counting logic.
//
// Records are held in pages of PageSize records. Every page but the last is
// full, and no page is written after the database that holds it is built, so
// appended generations share their prefix pages with the database they extend
// (see AppendRecords).
type Transactions struct {
	name    string
	pages   [][][]int32
	records int
	items   int // number of distinct item ids, i.e. max id + 1
}

// New builds a Transactions database from raw records. The number of distinct
// items is inferred from the largest item id present. The name is carried
// through to reports and tables. The pages are sliced out of records without
// copying, so the caller must not modify records afterwards.
func New(name string, records [][]int32) *Transactions {
	maxItem := int32(-1)
	for _, r := range records {
		for _, it := range r {
			if it < 0 {
				panic(fmt.Sprintf("dataset: negative item id %d", it))
			}
			if it > maxItem {
				maxItem = it
			}
		}
	}
	pages := make([][][]int32, 0, (len(records)+PageSize-1)/PageSize)
	for lo := 0; lo < len(records); lo += PageSize {
		hi := min(lo+PageSize, len(records))
		// The capacity is capped so no append through a page can reach the
		// caller's records beyond it.
		pages = append(pages, records[lo:hi:hi])
	}
	return &Transactions{name: name, pages: pages, records: len(records), items: int(maxItem) + 1}
}

// WithUniverse returns a view of the database whose item universe is padded
// to at least items (ids beyond any observed item simply count zero). The
// records are shared, not copied. Synthetic generators declare universes
// larger than the ids their transactions happen to contain; a serialisation
// round trip through the FIMI text format re-infers the universe from the
// observed ids alone, and this restores the declared size so counting-query
// workloads keep their exact shape.
func (t *Transactions) WithUniverse(items int) *Transactions {
	if items <= t.items {
		return t
	}
	cp := *t
	cp.items = items
	return &cp
}

// Name returns the dataset's display name.
func (t *Transactions) Name() string { return t.name }

// NumRecords returns the number of transactions.
func (t *Transactions) NumRecords() int { return t.records }

// NumItems returns the number of distinct item identifiers (max id + 1).
func (t *Transactions) NumItems() int { return t.items }

// Record returns the i-th transaction. The returned slice must not be
// modified.
func (t *Transactions) Record(i int) []int32 { return t.pages[i/PageSize][i%PageSize] }

// Span returns the records [lo, min(hi, end of lo's page)): the longest run
// starting at lo that is stored contiguously. Scans walk a range span by span
// instead of calling Record per record. It requires 0 <= lo < hi <=
// NumRecords; the returned slice must not be modified.
func (t *Transactions) Span(lo, hi int) [][]int32 {
	page := t.pages[lo/PageSize]
	off := lo % PageSize
	return page[off:min(len(page), off+hi-lo)]
}

// MeanLength returns the average number of (possibly repeated) items per
// transaction.
func (t *Transactions) MeanLength() float64 {
	if t.records == 0 {
		return 0
	}
	return float64(t.TotalLength()) / float64(t.records)
}

// TotalLength returns the total number of item slots across every record
// (repeats included). Incremental maintainers track it so MeanLength after an
// append agrees bit-for-bit with a full recompute.
func (t *Transactions) TotalLength() int {
	total := 0
	for _, page := range t.pages {
		for _, r := range page {
			total += len(r)
		}
	}
	return total
}

// ItemCounts returns, for each item id, the number of transactions that
// contain it at least once. These are exactly the sensitivity-1 monotonic
// counting queries used throughout Section 7: adding or removing one
// transaction changes each count by at most 1.
func (t *Transactions) ItemCounts() []float64 {
	counts := make([]float64, t.items)
	seen := make([]int, t.items) // stamp of the last record that held the item, avoids clearing a bool slice per record
	stamp := 0
	for _, page := range t.pages {
		for _, r := range page {
			stamp++
			for _, it := range r {
				if seen[it] != stamp {
					seen[it] = stamp
					counts[it]++
				}
			}
		}
	}
	return counts
}

// Stats summarises a dataset the way the table in Section 7.1 does.
type Stats struct {
	Name       string
	Records    int
	Items      int
	MeanLength float64
}

// Stats returns the dataset's summary statistics.
func (t *Transactions) Stats() Stats {
	return Stats{
		Name:       t.name,
		Records:    t.NumRecords(),
		Items:      t.NumItems(),
		MeanLength: t.MeanLength(),
	}
}

// String implements fmt.Stringer with a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d records, %d unique items, mean length %.2f",
		s.Name, s.Records, s.Items, s.MeanLength)
}

// RemoveRecord returns a copy of the database with record i removed. Together
// with the original it forms an adjacent pair D ∼ D' under the add/remove-one
// notion of adjacency used by the paper's privacy proofs and by the empirical
// privacy audit in internal/validate.
func (t *Transactions) RemoveRecord(i int) *Transactions {
	if i < 0 || i >= t.records {
		panic(fmt.Sprintf("dataset: record index %d out of range [0,%d)", i, t.records))
	}
	records := make([][]int32, 0, t.records)
	for _, page := range t.pages {
		records = append(records, page...)
	}
	records = append(records[:i], records[i+1:]...)
	cp := New(t.name, records)
	cp.items = t.items
	return cp
}

// AddRecord returns a copy of the database with one extra transaction.
// Item ids beyond the current universe grow the universe.
func (t *Transactions) AddRecord(record []int32) *Transactions {
	return t.AppendRecords([][]int32{record})
}

// AppendRecords returns a database extended with the delta transactions. The
// full pages are shared with t; only the page directory and the partial tail
// page are copied, the tail because another generation built from t may see
// it and must never observe this append's writes. Appending therefore costs
// O(records/PageSize + PageSize + len(delta)), with no rescan of the shared
// prefix, and never writes into t. The transactions themselves are shared
// with the caller, not copied. Item ids beyond the current universe grow it;
// negative ids panic (callers validate deltas before applying them).
func (t *Transactions) AppendRecords(delta [][]int32) *Transactions {
	items := t.items
	for _, r := range delta {
		for _, it := range r {
			if it < 0 {
				panic(fmt.Sprintf("dataset: negative item id %d", it))
			}
			if int(it)+1 > items {
				items = int(it) + 1
			}
		}
	}
	records := t.records + len(delta)
	pages := make([][][]int32, (records+PageSize-1)/PageSize)
	full := t.records / PageSize
	copy(pages, t.pages[:full])
	var tail [][]int32
	if full < len(t.pages) {
		tail = t.pages[full]
	}
	for p := full; p < len(pages); p++ {
		page := make([][]int32, min(PageSize, records-p*PageSize))
		n := copy(page, tail)
		delta = delta[copy(page[n:], delta):]
		tail = nil
		pages[p] = page
	}
	return &Transactions{name: t.name, pages: pages, records: records, items: items}
}

// TopKItems returns the indices of the k items with the largest true counts,
// in descending count order. Ties are broken by smaller item id so the result
// is deterministic. It is the ground truth against which precision, recall
// and F-measure are computed.
func TopKItems(counts []float64, k int) []int {
	if k < 0 {
		panic("dataset: negative k")
	}
	if k > len(counts) {
		k = len(counts)
	}
	idx := make([]int, len(counts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// KthLargest returns the k-th largest value of counts (1-based: k=1 is the
// maximum). It is used to pick thresholds "from the top 2k to top 8k" the way
// Section 7.2 describes.
func KthLargest(counts []float64, k int) float64 {
	if k < 1 || k > len(counts) {
		panic(fmt.Sprintf("dataset: k=%d out of range for %d counts", k, len(counts)))
	}
	cp := append([]float64(nil), counts...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cp)))
	return cp[k-1]
}

// RandomThreshold draws a threshold uniformly between the top-2k-th and the
// top-8k-th largest counts, replicating the threshold selection protocol of
// Section 7.2 ("randomly picked from the top 2k to top 8k in each dataset").
func RandomThreshold(src rng.Source, counts []float64, k int) float64 {
	lo, hi := 2*k, 8*k
	if hi > len(counts) {
		hi = len(counts)
	}
	if lo < 1 {
		lo = 1
	}
	if lo > hi {
		lo = hi
	}
	rank := lo + rng.Intn(src, hi-lo+1)
	return KthLargest(counts, rank)
}

// CountAbove returns how many entries of counts are strictly greater than or
// equal to the threshold. It is the recall denominator for the SVT quality
// experiments (Figures 3d–3f).
func CountAbove(counts []float64, threshold float64) int {
	n := 0
	for _, c := range counts {
		if c >= threshold {
			n++
		}
	}
	return n
}
