package core

// Process-wide analyzer cache. Every guarantee in the pipeline —
// threshold certification, the Fig. 8 profile, Algorithm 1 charging —
// funnels through an Analyzer, and the experiment suite, the budget
// controller and the public Certify entry points all rebuild the
// exact PMF for the same Params over and over. Analyzers are
// immutable after construction (the kernels only read pmf/cum), so
// one instance can serve any number of concurrent certifications;
// this cache shares them.
//
// Contract: the cache key is the full Params value (plus, for
// non-Laplace families, a comparable PMF identity), and an Analyzer
// is a pure function of its key — there is nothing to invalidate.
// Entries are evicted LRU once the cache exceeds either an entry
// count or a total-PMF-size budget, so long-running services sweeping
// many sensor configurations cannot grow it without bound.
//
// Caches of values derived from an analyzer (the DP-Box charge
// tables) hold it too. They register an eviction hook and drop their
// entries with it, so cacheMaxSteps bounds every PMF any cache keeps
// reachable, not only the ones held here.

import (
	"container/list"
	"reflect"
	"sync"
	"sync/atomic"
)

const (
	// cacheMaxEntries bounds the number of cached analyzers.
	cacheMaxEntries = 64
	// cacheMaxSteps bounds the total retained PMF length (entries are
	// ~16 bytes per step counting the prefix sums).
	cacheMaxSteps = 1 << 21
)

type cacheKey struct {
	par Params
	id  any // nil for the native Laplace RNG; family identity otherwise
}

type cacheEntry struct {
	key cacheKey
	an  *Analyzer
}

var (
	cacheMu     sync.Mutex
	cacheByKey  = map[cacheKey]*list.Element{}
	cacheLRU    list.List // front = most recently used
	cacheSteps  int64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	evictHooks  []func(*Analyzer)
)

// OnAnalyzerEvict registers fn to run for every analyzer the cache
// drops, by LRU eviction or ResetAnalyzerCache. fn runs with the
// cache lock held, so it must not call back into the cache; by the
// time it runs, Cached already reports false for the analyzer.
func OnAnalyzerEvict(fn func(*Analyzer)) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	evictHooks = append(evictHooks, fn)
}

// Cached reports whether the process-wide cache holds a. It takes no
// lock, so a derived cache can check, under its own lock, that an
// analyzer it is about to retain has not already been evicted.
func (a *Analyzer) Cached() bool { return a.cached.Load() }

// evict marks an dropped and runs the hooks; callers hold cacheMu.
func evict(an *Analyzer) {
	an.cached.Store(false)
	for _, fn := range evictHooks {
		fn(an)
	}
}

// CachedAnalyzer returns the process-wide shared Analyzer for par,
// building (and caching) it on first use. It panics on invalid
// parameters, like NewAnalyzer. The returned Analyzer is immutable
// and safe for concurrent use.
func CachedAnalyzer(par Params) *Analyzer {
	mustValidate(par)
	return cachedAnalyzer(cacheKey{par: par}, func() *Analyzer { return NewAnalyzer(par) })
}

// CachedAnalyzerPMF is the cache hook for arbitrary noise families:
// id identifies the PMF (typically the family value plus its
// geometry) and must be comparable; build materializes the PMF only
// on a miss, so a hit skips both the PMF enumeration and the analyzer
// construction. A nil or non-comparable id bypasses the cache.
func CachedAnalyzerPMF(par Params, id any, build func() ([]float64, int64)) *Analyzer {
	mustValidate(par)
	// Value-level comparability: id may be (or contain) an interface
	// whose dynamic type is not comparable, which would panic as a
	// map key even though the static type passes.
	if id == nil || !reflect.ValueOf(id).Comparable() {
		cacheMisses.Add(1)
		pmf, maxK := build()
		return NewAnalyzerFromPMF(par, pmf, maxK)
	}
	return cachedAnalyzer(cacheKey{par: par, id: id}, func() *Analyzer {
		pmf, maxK := build()
		return NewAnalyzerFromPMF(par, pmf, maxK)
	})
}

func cachedAnalyzer(key cacheKey, build func() *Analyzer) *Analyzer {
	cacheMu.Lock()
	if el, ok := cacheByKey[key]; ok {
		cacheLRU.MoveToFront(el)
		an := el.Value.(*cacheEntry).an
		cacheMu.Unlock()
		cacheHits.Add(1)
		return an
	}
	cacheMu.Unlock()
	cacheMisses.Add(1)
	// Build outside the lock so misses for different keys proceed in
	// parallel; a rare duplicate build for the same key is resolved
	// below in favor of the first instance inserted.
	an := build()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if el, ok := cacheByKey[key]; ok {
		cacheLRU.MoveToFront(el)
		return el.Value.(*cacheEntry).an
	}
	cacheByKey[key] = cacheLRU.PushFront(&cacheEntry{key: key, an: an})
	an.cached.Store(true)
	cacheSteps += int64(len(an.pmf))
	for (len(cacheByKey) > cacheMaxEntries || cacheSteps > cacheMaxSteps) && len(cacheByKey) > 1 {
		el := cacheLRU.Back()
		ent := el.Value.(*cacheEntry)
		cacheLRU.Remove(el)
		delete(cacheByKey, ent.key)
		cacheSteps -= int64(len(ent.an.pmf))
		evict(ent.an)
	}
	return an
}

// AnalyzerCacheStats reports the cumulative cache hit and miss
// counts since process start (or the last ResetAnalyzerCache).
func AnalyzerCacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// ResetAnalyzerCache empties the cache and zeroes the counters.
// Intended for tests and long-lived processes that want a clean
// measurement window.
func ResetAnalyzerCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	for el := cacheLRU.Front(); el != nil; el = el.Next() {
		evict(el.Value.(*cacheEntry).an)
	}
	cacheByKey = map[cacheKey]*list.Element{}
	cacheLRU.Init()
	cacheSteps = 0
	cacheHits.Store(0)
	cacheMisses.Store(0)
}
