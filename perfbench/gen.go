package main

// Seeded input generation. Every input the benchmark sends — the FIMI files
// the server preloads, the request bodies, the append deltas, the monitor
// seeds — is a pure function of (workload, seed, seconds). The server never
// generates data: its own synthetic generators are part of the program under
// test, so a change to them must not change what the benchmark measures.

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
)

const (
	// The large dataset has kosarak's shape: ~990k click-stream records over
	// 41,270 items, mean record length ~8.1 with a geometric tail, item
	// popularity Zipf-distributed. About 8M item ids (~32 MB as int32) make
	// an unselective filter scan far larger than the CPU caches.
	largeRecords = 990_000
	largeItems   = 41_270
	largeMeanLen = 8.1
	largeMaxLen  = 256

	// The clustered dataset is 32 zone blocks of 2048 records. Each block
	// draws most of its items from its own 16-item range and the rest from
	// 16 items shared by every block, so a filter on a block item is proven
	// unmatching by 31 of the 32 block sketches, while a filter on a shared
	// item scans every block.
	clusterBlock    = 2048
	clusterBlocks   = 32
	clusterRecords  = clusterBlock * clusterBlocks
	clusterShared   = 16
	clusterPerBlock = 16
	clusterItems    = clusterShared + clusterBlocks*clusterPerBlock

	// specPopulation is how many distinct query specs each query-scan
	// connection draws from: 4x the server's 256-entry plan cache.
	specPopulation = 1024
)

// zipf draws ranks in [0, n) with P(r) proportional to 1/(r+1)^s from a
// precomputed CDF, so any exponent s > 0 works (math/rand's Zipf needs s > 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	i, _ := slices.BinarySearch(z.cdf, r.Float64())
	return min(i, len(z.cdf)-1)
}

// newRand returns the generator for one named input stream of a run, so
// adding a stream never shifts the values another stream draws.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(uint64(seed), h))
}

// recordGen draws records of one dataset shape.
type recordGen struct {
	r     *rand.Rand
	items *zipf
	stamp []int32
	round int32
}

func newLargeGen(r *rand.Rand) *recordGen {
	return &recordGen{r: r, items: newZipf(largeItems, 1.0), stamp: make([]int32, largeItems)}
}

// large draws one kosarak-shaped record: 1 + Geometric(1/8.1) distinct
// Zipf-popular items, sorted.
func (g *recordGen) large(buf []int32) []int32 {
	p := 1 / largeMeanLen
	n := 1 + int(math.Log(1-g.r.Float64())/math.Log(1-p))
	n = min(n, largeMaxLen)
	return g.distinct(buf, n, func() int32 { return int32(g.items.draw(g.r)) })
}

// cluster draws one record of the given zone block: 2-6 distinct items, each
// from the block's own range with probability 3/4, else a shared item.
func (g *recordGen) cluster(buf []int32, block int) []int32 {
	n := 2 + g.r.IntN(5)
	return g.distinct(buf, n, func() int32 {
		if g.r.IntN(4) == 0 {
			return int32(g.r.IntN(clusterShared))
		}
		return int32(clusterShared + block*clusterPerBlock + g.r.IntN(clusterPerBlock))
	})
}

func (g *recordGen) distinct(buf []int32, n int, draw func() int32) []int32 {
	if g.stamp == nil {
		g.stamp = make([]int32, clusterItems)
	}
	g.round++
	buf = buf[:0]
	for len(buf) < n {
		it := draw()
		if g.stamp[it] == g.round {
			continue
		}
		g.stamp[it] = g.round
		buf = append(buf, it)
	}
	slices.Sort(buf)
	return buf
}

func appendFIMIRecord(dst []byte, rec []int32) []byte {
	for i, it := range rec {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(it), 10)
	}
	return append(dst, '\n')
}

// writeDataset writes one generated dataset as a FIMI file and returns its
// record count and item universe.
func writeDataset(path string, records int, next func(buf []int32, i int) []int32) (int, int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var (
		buf  []int32
		line []byte
		maxI int32 = -1
	)
	for i := 0; i < records; i++ {
		buf = next(buf, i)
		maxI = max(maxI, buf[len(buf)-1])
		line = appendFIMIRecord(line[:0], buf)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return records, int(maxI) + 1, nil
}

// writeLarge writes the kosarak-shaped dataset. Its last record names the
// highest item id, so the universe is exactly largeItems on every seed.
func writeLarge(path string, seed int64) (int, int, error) {
	g := newLargeGen(newRand(seed, "large-data"))
	return writeDataset(path, largeRecords, func(buf []int32, i int) []int32 {
		if i == largeRecords-1 {
			return append(buf[:0], 0, largeItems-1)
		}
		return g.large(buf)
	})
}

// writeCluster writes the clustered dataset, block by block.
func writeCluster(path string, seed int64) (int, int, error) {
	g := &recordGen{r: newRand(seed, "cluster-data")}
	return writeDataset(path, clusterRecords, func(buf []int32, i int) []int32 {
		rec := g.cluster(buf, i/clusterBlock)
		if i == clusterRecords-1 {
			// Pin the universe to clusterItems on every seed.
			rec[len(rec)-1] = clusterItems - 1
		}
		return rec
	})
}

// specJSON renders one query spec.
type specJSON = string

func filterSpec(minLen int, items ...int) specJSON {
	s := `{"kind":"filter","where":{"contains":[`
	for i, it := range items {
		if i > 0 {
			s += ","
		}
		s += strconv.Itoa(it)
	}
	s += "]"
	if minLen > 0 {
		s += fmt.Sprintf(`,"min_len":%d`, minLen)
	}
	return s + "}}"
}

func setSpec(kind string, a, b specJSON) specJSON {
	return fmt.Sprintf(`{"kind":%q,"of":[%s,%s]}`, kind, a, b)
}

// bandItems returns the large dataset's items of popularity rank 256 to
// 2303 in seeded order. Each matches well under 1% of records, so a filter
// scan costs about one pass over the records whichever items a seed puts
// on the cold ranks; the head items, matching up to half the records,
// would make the per-miss cost depend on the seed.
func bandItems(r *rand.Rand) []int {
	p := r.Perm(2048)
	for i := range p {
		p[i] += 256
	}
	return p
}

// largeSpecs is the query-scan spec population over the large dataset, in
// popularity-rank order: all_items at rank 0, then single-item filters, a
// third of them with a minimum record length. Every miss therefore costs
// exactly one pass over the records, so the work a run does depends on how
// many misses the seed draws, not on which kinds land on the cold ranks.
// The set operations run on the clustered dataset, where a miss is cheap.
func largeSpecs(r *rand.Rand) []specJSON {
	band := bandItems(r)
	specs := make([]specJSON, specPopulation)
	specs[0] = `{"kind":"all_items"}`
	for i := 1; i < len(specs); i++ {
		minLen := 0
		if i%3 == 0 {
			minLen = 2
		}
		specs[i] = filterSpec(minLen, band[i])
	}
	return specs
}

// clusterSpecs is the spec population over the clustered dataset: mostly
// selective block-item filters and set operations over them (31 of 32
// blocks skipped), with a fixed share of unselective shared-item filters
// that scan every block. The kind at each rank is fixed, so every seed has
// the same cost structure; the seed picks the items.
func clusterSpecs(r *rand.Rand) []specJSON {
	blockItem := func() int {
		return clusterShared + r.IntN(clusterBlocks*clusterPerBlock)
	}
	shared := func() int { return r.IntN(clusterShared) }
	specs := make([]specJSON, specPopulation)
	for i := range specs {
		switch {
		case i == 0:
			specs[i] = `{"kind":"all_items"}`
		case i%8 < 4:
			specs[i] = filterSpec(0, blockItem())
		case i%8 == 4:
			specs[i] = filterSpec(2+r.IntN(3), shared())
		case i%8 == 5:
			specs[i] = setSpec("union", filterSpec(0, blockItem()), filterSpec(0, blockItem()))
		case i%8 == 6:
			specs[i] = setSpec("intersect", filterSpec(0, blockItem()), filterSpec(0, shared()))
		default:
			specs[i] = setSpec("minus", filterSpec(0, blockItem()), filterSpec(0, blockItem()))
		}
	}
	return specs
}
