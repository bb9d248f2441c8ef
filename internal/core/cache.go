package core

import (
	"container/list"
	"reflect"
	"sync"

	"comparisondiag/internal/bitset"
	"comparisondiag/internal/syndrome"
)

// ResultCache is an engine-level memo of complete diagnosis outcomes,
// keyed by the syndrome's identity: the packed fault-hypothesis words
// of a *syndrome.Lazy plus its faulty-tester behaviour, the effective
// fault bound and the certification strategy. Two lazy syndromes that
// agree on all of those serve byte-identical test tables, so the whole
// diagnosis — fault set, Stats, even the typed error — is a pure
// function of the key and can be replayed without consulting the
// syndrome at all.
//
// The cache is opt-in (Options.ResultCache) and only consulted on the
// engine serving path; the free functions stay paper-literal and
// always recompute. It is bounded (least-recently-used eviction at
// Capacity entries), safe for concurrent use from many Diagnose and
// DiagnoseBatch callers at once, and copy-clean: entries own private
// clones of both the key fault set and the result, and every hit is
// copied out again, so no cached state is ever aliased by callers or
// scratches.
//
// A hit returns the Stats of the populating run. Results and look-up
// counts are deterministic for the sequential configuration, so for a
// fixed engine and Options the replayed Stats are exactly what a fresh
// call would report; configurations whose counts are scheduling-
// dependent (Workers or FinalWorkers above 1) replay the first run's
// counts. The syndrome's own Lookups counter does not advance on a hit
// — short-circuiting those consultations is the cache's entire point.
type ResultCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // *cacheEntry values, front = most recent
	byHash    map[uint64][]*list.Element
	hits      int64
	misses    int64
	evictions int64
	bypassed  int64

	// admitOnSecond gates admission on a hypothesis having been seen
	// before: the first sighting of a key records it in seen and skips
	// the insert, so one-shot hypotheses never displace entries that
	// are actually re-queried. seen is bounded (cleared wholesale past
	// seenBound) and keyed by the entry hash — a collision can at worst
	// admit an entry one sighting early, never corrupt a result.
	admitOnSecond bool
	seen          map[uint64]struct{}
}

// cacheEntry is one memoised diagnosis. All fields are immutable after
// insertion, so reads may continue after the cache lock is released.
// Rebind replaces entries rather than mutating them for the same
// reason.
type cacheEntry struct {
	hash     uint64
	faults   *bitset.Set // key: cloned fault hypothesis
	behavior syndrome.Behavior
	delta    int
	strategy Strategy
	epoch    uint64 // engine binding epoch the entry was produced under

	resFaults *bitset.Set // nil when the diagnosis errored
	stats     Stats
	err       error
}

// DefaultCacheCapacity bounds a ResultCache constructed with a
// non-positive capacity.
const DefaultCacheCapacity = 1024

// NewResultCache returns an empty cache holding at most capacity
// diagnosis results (≤ 0 means DefaultCacheCapacity). Every completed
// diagnosis is admitted immediately.
func NewResultCache(capacity int) *ResultCache {
	return NewResultCacheWithAdmission(capacity, false)
}

// NewResultCacheWithAdmission is NewResultCache with an explicit
// admission policy. With admitOnSecond set, a fault hypothesis is only
// cached on its second sighting: the first diagnosis of a key records
// the key and bypasses the insert (counted in CacheStats.Bypassed), so
// workloads dominated by one-shot hypotheses stop churning the LRU
// list with entries that will never be hit again. Lookups are
// unaffected — an admitted entry serves hits exactly as under the
// default policy.
func NewResultCacheWithAdmission(capacity int, admitOnSecond bool) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	c := &ResultCache{
		capacity:      capacity,
		ll:            list.New(),
		byHash:        make(map[uint64][]*list.Element),
		admitOnSecond: admitOnSecond,
	}
	if admitOnSecond {
		c.seen = make(map[uint64]struct{})
	}
	return c
}

// seenBound caps the admission-policy sighting set at a multiple of the
// cache capacity; past it the set is cleared wholesale (an O(1) reset
// beats tracking per-key recency for what is only a heuristic).
func (c *ResultCache) seenBound() int { return 8 * c.capacity }

// CacheStats is a point-in-time observability snapshot of a
// ResultCache.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// Bypassed counts completed diagnoses the admission policy declined
	// to cache (first sightings under admit-on-second-sight); always 0
	// under the default admit-everything policy.
	Bypassed          int64
	Entries, Capacity int
}

// HitRate returns Hits/(Hits+Misses) in [0, 1], and 0 for a cache that
// has never been consulted — never NaN, so exporters may publish it
// unconditionally.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache's counters. Safe for concurrent use.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bypassed: c.bypassed,
		Entries:  c.ll.Len(), Capacity: c.capacity,
	}
}

// cacheable reports whether the syndrome can act as a cache key: its
// behaviour must support Go equality (all of the package's behaviours
// are comparable structs; a hypothetical closure-backed behaviour is
// simply never cached rather than panicking on ==).
func cacheable(lz *syndrome.Lazy) bool {
	b := lz.Behavior()
	if b == nil {
		return false
	}
	return reflect.TypeOf(b).Comparable()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit value into an FNV-1a accumulator bytewise.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// faultsHash hashes a packed fault hypothesis (FNV-1a over its words) —
// the grouping key of batch-shared certification and the first half of
// the result-cache key.
func faultsHash(faults *bitset.Set) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range faults.Words() {
		h = fnvMix(h, w)
	}
	return h
}

// cacheHash extends faultsHash with the remaining key fields: the
// scalar key parts and the behaviour's name. Behaviours that differ
// only in name-invisible state (e.g. two Random seeds) land in one
// bucket and are separated by the equality walk.
func cacheHash(faults *bitset.Set, behavior syndrome.Behavior, delta int, strat Strategy) uint64 {
	h := faultsHash(faults)
	h = fnvMix(h, uint64(delta))
	h = fnvMix(h, uint64(strat))
	for _, ch := range []byte(behavior.Name()) {
		h ^= uint64(ch)
		h *= fnvPrime64
	}
	return h
}

// lookup returns the memoised entry for the syndrome under the given
// effective fault bound, strategy and engine binding epoch, promoting
// it to most-recently used. The epoch keys entries to one binding
// generation, so a diagnosis racing an Engine.Rebind can neither serve
// nor be served by results from the other side of the churn. The
// returned entry is immutable; callers copy out of it.
func (c *ResultCache) lookup(lz *syndrome.Lazy, delta int, strat Strategy, epoch uint64) (*cacheEntry, bool) {
	b := lz.Behavior()
	h := cacheHash(lz.Faults(), b, delta, strat)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byHash[h] {
		e := el.Value.(*cacheEntry)
		if e.delta == delta && e.strategy == strat && e.epoch == epoch && e.behavior == b && e.faults.Equal(lz.Faults()) {
			c.ll.MoveToFront(el)
			c.hits++
			return e, true
		}
	}
	c.misses++
	return nil, false
}

// insert memoises one diagnosis outcome, cloning the key and result so
// the entry shares no storage with the caller. A concurrent duplicate
// (two callers missing on the same key and both diagnosing) keeps the
// first entry; the outcomes are identical by construction. Under
// admit-on-second-sight the first sighting of a key only records it
// and bypasses the insert.
func (c *ResultCache) insert(lz *syndrome.Lazy, delta int, strat Strategy, epoch uint64, faults *bitset.Set, stats *Stats, err error) {
	b := lz.Behavior()
	h := cacheHash(lz.Faults(), b, delta, strat)
	e := &cacheEntry{
		hash:     h,
		faults:   lz.Faults().Clone(),
		behavior: b,
		delta:    delta,
		strategy: strat,
		epoch:    epoch,
		err:      err,
	}
	if faults != nil {
		e.resFaults = faults.Clone()
	}
	if stats != nil {
		e.stats = *stats
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.admitOnSecond {
		if _, ok := c.seen[h]; !ok {
			if len(c.seen) >= c.seenBound() {
				clear(c.seen)
			}
			c.seen[h] = struct{}{}
			c.bypassed++
			return
		}
	}
	for _, el := range c.byHash[h] {
		old := el.Value.(*cacheEntry)
		if old.delta == delta && old.strategy == strat && old.epoch == epoch && old.behavior == b && old.faults.Equal(e.faults) {
			return
		}
	}
	c.byHash[h] = append(c.byHash[h], c.ll.PushFront(e))
	for c.ll.Len() > c.capacity {
		c.evict(c.ll.Back())
	}
}

// Rebind rewrites the cache for an engine rebound across a churn delta
// (normally invoked through Engine.Rebind, which passes the right
// arguments — in the growth direction the map is the total
// SurvivorToNew, so no entry is lost to missing ids). Entries that
// cannot survive the churn are flushed: any entry touching a gone id
// (in its key hypothesis, its result fault set, or its recorded seed),
// any errored or bound-tightened entry, and any entry whose hypothesis
// exceeds the new bound. The rest are replaced — never mutated, since
// hits read entries after the lock is released — by remapped clones in
// new-id space, keyed to the new epoch and bound: their fault sets are
// exactly what a fresh diagnosis of the same hypothesis would report
// (Theorem 1 makes the result a pure function of the hypothesis while
// it respects the bound). The remapped Stats keep the populating run's
// cost profile (look-up counts, parts scanned) from before the churn,
// with Delta/Degraded/EffectiveDelta rewritten to the new binding —
// degraded reports the rebound engine's stamp, so a full recovery
// clears the fields exactly as live diagnoses would. LRU order and the
// admission sighting set are reset wholesale.
func (c *ResultCache) Rebind(oldToNew []int32, newN, oldDelta, newDelta int, epoch uint64, degraded bool) (flushed, kept int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldLL := c.ll
	c.ll = list.New()
	c.byHash = make(map[uint64][]*list.Element)
	if c.seen != nil {
		clear(c.seen)
	}
	for el := oldLL.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		ne, ok := remapEntry(e, oldToNew, newN, oldDelta, newDelta, epoch, degraded)
		if !ok {
			flushed++
			continue
		}
		c.byHash[ne.hash] = append(c.byHash[ne.hash], c.ll.PushBack(ne))
		kept++
	}
	return flushed, kept
}

// remapEntry builds the post-churn replacement for one entry, or
// reports that it must be flushed.
func remapEntry(e *cacheEntry, oldToNew []int32, newN, oldDelta, newDelta int, epoch uint64, degraded bool) (*cacheEntry, bool) {
	if e.err != nil || e.delta != oldDelta || e.resFaults == nil {
		return nil, false
	}
	if int(e.stats.Seed) >= len(oldToNew) || oldToNew[e.stats.Seed] < 0 {
		return nil, false
	}
	if e.faults.Count() > newDelta {
		return nil, false
	}
	key, ok := remapSet(e.faults, oldToNew, newN)
	if !ok {
		return nil, false
	}
	res, ok := remapSet(e.resFaults, oldToNew, newN)
	if !ok {
		return nil, false
	}
	st := e.stats
	st.Seed = oldToNew[e.stats.Seed]
	st.Delta = newDelta
	st.Degraded = degraded
	if degraded {
		st.EffectiveDelta = newDelta
	} else {
		st.EffectiveDelta = 0
	}
	return &cacheEntry{
		hash:      cacheHash(key, e.behavior, newDelta, e.strategy),
		faults:    key,
		behavior:  e.behavior,
		delta:     newDelta,
		strategy:  e.strategy,
		epoch:     epoch,
		resFaults: res,
		stats:     st,
		err:       nil,
	}, true
}

// remapSet maps a bitset through the removal's id map; ok is false when
// any member was removed.
func remapSet(s *bitset.Set, oldToNew []int32, newN int) (*bitset.Set, bool) {
	out := bitset.New(newN)
	ok := true
	s.ForEach(func(i int) bool {
		if i >= len(oldToNew) || oldToNew[i] < 0 {
			ok = false
			return false
		}
		out.Add(int(oldToNew[i]))
		return true
	})
	return out, ok
}

// evict removes one element (called with the lock held).
func (c *ResultCache) evict(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	chain := c.byHash[e.hash]
	for i, cand := range chain {
		if cand == el {
			chain[i] = chain[len(chain)-1]
			chain = chain[:len(chain)-1]
			break
		}
	}
	if len(chain) == 0 {
		delete(c.byHash, e.hash)
	} else {
		c.byHash[e.hash] = chain
	}
	c.evictions++
}
