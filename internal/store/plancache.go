package store

// Per-dataset compiled-plan cache. Canonicalized query specs hash to a
// materialized count vector (plus the plan's explain payload), so a repeated
// composite query costs one lock-free map lookup instead of a record scan.
// Appends never flush it: each cached vector is stamped with the record
// count of every dataset its plan read, and records are append-only, so a
// matching stamp proves the vector current. A stale entry is brought up to
// date by the planner — its filter-leaf vectors are extended over the
// appended records only and the composites re-folded from them. The cache
// lives on the Entry, so removing and re-registering a name can never serve
// another dataset's vectors.
//
// Reads follow the same RCU discipline as the catalog itself: Get loads the
// current immutable generation through an atomic pointer and walks it
// without any lock, writers copy-and-swap under a mutex. The generation map
// is never mutated in place.

import (
	"sync"
	"sync/atomic"
)

// DefaultMaxPlans bounds one dataset's cached plans. When the cache is full
// a new plan triggers a second-chance sweep: plans that served a hit since
// the last sweep survive (up to maxProtectedPlans of them), the rest are
// dropped — so one client cycling syntactic spec variants cannot evict every
// other tenant's hot plans, while memory stays bounded. Flushes counts the
// sweeps, surfaced as plan_cache_flushes_total so thrash is observable.
const DefaultMaxPlans = 256

// maxProtectedPlans caps how many recently-hit plans a second-chance sweep
// carries over: half the capacity, so even a fully hot cache frees room and
// repeated sweeps cannot pin an unbounded working set.
const maxProtectedPlans = DefaultMaxPlans / 2

// PlanEntry is one cached compiled plan: the materialized full-universe
// count vector, its monotonicity, the planner's explain payload (opaque to
// the store) replayed on cache hits, and what the planner needs to bring
// the vector up to date after an append.
type PlanEntry struct {
	// Answers is the materialized count vector (read-only by contract).
	Answers []float64
	// Monotonic reports whether the spec lies in the monotone fragment.
	Monotonic bool
	// Explain is the planner's explain payload for the compiled plan.
	Explain any
	// Stamps is the data generation the vectors describe: one stamp per
	// dataset the plan read.
	Stamps []PlanStamp
	// Leaves holds the plan's filter-leaf count vectors (read-only by
	// contract), keyed by the planner's "dataset\x00canonical" memo key and
	// each taken at its dataset's stamp. A filter root's leaf is Answers
	// itself.
	Leaves map[string][]float64

	// hot is set by Get on a hit and cleared by the second-chance sweep —
	// the one bit of bookkeeping that lets eviction keep the working set.
	hot atomic.Bool
}

// PlanStamp pins one dataset generation a cached plan read. Records are
// append-only, so an entry's record count identifies its generation's data.
type PlanStamp struct {
	Entry   *Entry
	Records int
}

// Records returns the stamped record count of e, reporting false when the
// plan did not read e.
func (pe *PlanEntry) Records(e *Entry) (int, bool) {
	for _, s := range pe.Stamps {
		if s.Entry == e {
			return s.Records, true
		}
	}
	return 0, false
}

// covers reports whether pe describes a generation at least as new as
// other's on every dataset other read — the same datasets, none older. Put
// keeps such an entry rather than regress it to other.
func (pe *PlanEntry) covers(other *PlanEntry) bool {
	if len(pe.Stamps) != len(other.Stamps) {
		return false
	}
	for _, s := range other.Stamps {
		if n, ok := pe.Records(s.Entry); !ok || n < s.Records {
			return false
		}
	}
	return true
}

// planGen is one immutable generation of the cache's key → plan mapping.
type planGen = map[string]*PlanEntry

// PlanCache is a concurrency-safe compiled-plan cache keyed by canonical
// spec strings. The zero value is ready to use.
type PlanCache struct {
	// writeMu serializes Put/Reset (the copy-and-swap writers).
	writeMu sync.Mutex
	// gen points at the current immutable generation; nil means empty.
	gen atomic.Pointer[planGen]

	hits       atomic.Uint64
	misses     atomic.Uint64
	extensions atomic.Uint64
	flushes    atomic.Uint64
}

// Get returns the cached plan for key, current or not. It takes no lock and
// counts nothing. A found entry is marked as recently used, so the next
// capacity sweep keeps it.
func (c *PlanCache) Get(key string) (*PlanEntry, bool) {
	if gen := c.gen.Load(); gen != nil {
		if pe, ok := (*gen)[key]; ok {
			if !pe.hot.Load() {
				pe.hot.Store(true)
			}
			return pe, true
		}
	}
	return nil, false
}

// Lookup is Get for resolvers. current is the caller's stamp check: whether
// a cached entry describes the generations the caller would read. Lookup
// counts a current entry as a hit, a stale one as an extension (the caller
// brings it up to date) and an absent one as a miss, and reports which: pe
// is nil on a miss.
func (c *PlanCache) Lookup(key string, current func(*PlanEntry) bool) (pe *PlanEntry, fresh bool) {
	pe, ok := c.Get(key)
	switch {
	case !ok:
		c.misses.Add(1)
		return nil, false
	case current(pe):
		c.hits.Add(1)
		return pe, true
	default:
		c.extensions.Add(1)
		return pe, false
	}
}

// Put caches pe under key, unless the cached entry already covers pe's
// stamps: a resolution that pinned an older generation and finishes after a
// newer vector was cached never regresses it. A full cache runs a
// second-chance sweep first: plans that served a hit since the last sweep
// survive, capped at maxProtectedPlans, and their hot bits reset so
// survival must be re-earned.
func (c *PlanCache) Put(key string, pe *PlanEntry) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	var cur planGen
	if gen := c.gen.Load(); gen != nil {
		cur = *gen
	}
	if old, ok := cur[key]; ok && old.covers(pe) {
		return
	}
	if len(cur) >= DefaultMaxPlans {
		next := make(planGen, maxProtectedPlans+1)
		for k, v := range cur {
			if len(next) >= maxProtectedPlans {
				break
			}
			if v.hot.Load() {
				v.hot.Store(false)
				next[k] = v
			}
		}
		next[key] = pe
		c.flushes.Add(1)
		c.gen.Store(&next)
		return
	}
	next := make(planGen, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = pe
	c.gen.Store(&next)
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	if gen := c.gen.Load(); gen != nil {
		return len(*gen)
	}
	return 0
}

// Hits, Misses and Extensions return the lifetime Lookup counters.
func (c *PlanCache) Hits() uint64       { return c.hits.Load() }
func (c *PlanCache) Misses() uint64     { return c.misses.Load() }
func (c *PlanCache) Extensions() uint64 { return c.extensions.Load() }

// Flushes returns how many capacity sweeps the cache has run — the
// observable behind the plan_cache_flushes_total metric.
func (c *PlanCache) Flushes() uint64 { return c.flushes.Load() }

// Reset drops every cached plan (the counters keep running). Benchmarks use
// it to measure the cache-cold path; appends do not — stamped entries are
// extended instead.
func (c *PlanCache) Reset() {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.gen.Store(nil)
}
