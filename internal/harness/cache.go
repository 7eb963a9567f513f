package harness

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"muzha/internal/jsonl"
)

// Cache is the content-addressed result store: Config.Hash() -> the
// canonical Result encoding produced by muzha.EncodeResult. Sweeps
// (muzha.SweepOptions.Journal, muzhasim -resume) and the muzhad daemon
// (its cache.jsonl) open the same type on the same file format, so a
// sweep's store is a daemon's cache and the reverse. It is the only
// place the daemon keeps a Result; jobs refer to theirs by hash. It
// persists as an internal/jsonl log of entry lines — a process killed
// mid-append loses at most that one entry — and is bounded: when an
// entry or byte cap is configured, the least-recently-used results are
// evicted to stay under it, so a long-lived daemon's memory does not
// grow with every distinct scenario it has ever simulated.
//
// Eviction is an in-memory policy; the journal stays append-only
// during operation. Dead weight (evicted, superseded or unparseable
// lines) is compacted away at the next open, keeping the file
// proportional to the live set rather than the full history.
//
// Only successful results are stored. Failures depend on guard budgets
// and host load (a deadline abort on a slow machine says nothing about
// the scenario), so a failed run is always run again. The failure
// lines of a sweep journal written before sweeps shared this store are
// skipped on load and compacted away.
type Cache struct {
	mu      sync.Mutex
	log     *jsonl.Log
	limit   CacheLimit
	byKey   map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	evicted uint64
}

// CacheLimit bounds the cache; zero fields are unbounded.
type CacheLimit struct {
	// MaxEntries caps the number of cached results.
	MaxEntries int
	// MaxBytes caps the total size of cached result payloads.
	MaxBytes int64
}

// entry is one line of the store's file:
// {"key":<Config.Hash>,"ok":true,"value":<result>}. ok is always true
// when written; a line without it is skipped on load.
type entry struct {
	Key   string          `json:"key"`
	OK    bool            `json:"ok"`
	Value json.RawMessage `json:"value,omitempty"`
}

// cacheItem is one LRU slot. size is the result's unpacked length, the
// unit of CacheLimit.MaxBytes and CacheStats.Bytes.
type cacheItem struct {
	key  string
	val  packedResult
	size int64
}

// CacheStats is the cache block of the daemon's /v1/stats payload.
type CacheStats struct {
	// Entries and Bytes describe the live set.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Evictions counts entries dropped by the LRU policy since open.
	Evictions uint64 `json:"evictions"`
	// MaxEntries and MaxBytes echo the configured caps (0 = unbounded).
	MaxEntries int   `json:"max_entries,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`
}

// OpenCache opens (creating if absent) the cache journal at path,
// loads it newest-entry-most-recent, applies the limit, and compacts
// the file when it carries dead lines. A zero limit is unbounded —
// the historical behaviour.
func OpenCache(path string, limit CacheLimit) (*Cache, error) {
	c := &Cache{
		limit: limit,
		byKey: make(map[string]*list.Element),
		lru:   list.New(),
	}
	lines := 0
	log, _, err := jsonl.Open(path, func(line []byte) bool {
		lines++
		var e entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || !e.OK || len(e.Value) == 0 {
			return false
		}
		// File order is append order, so each accepted line is the most
		// recent use of its key seen so far.
		c.putLocked(e.Key, packResult(e.Value), int64(len(e.Value)))
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("harness: open cache: %w", err)
	}
	c.log = log
	// Loading counted cap evictions; they describe history, not this
	// process's churn.
	c.evicted = 0
	// Every line beyond the live set — unparseable, superseded by a
	// re-put, or evicted by the cap during load — is dead weight.
	// Compaction rewrites only the live set, in LRU order (oldest first)
	// so a future load reconstructs the same recency.
	if lines > c.lru.Len() {
		err := log.Rewrite(func(enc *json.Encoder) error {
			for el := c.lru.Back(); el != nil; el = el.Prev() {
				it := el.Value.(*cacheItem)
				if err := enc.Encode(entry{Key: it.key, OK: true, Value: it.val.unpack()}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("harness: compact cache: %w", err)
		}
	}
	return c, nil
}

// Get returns the cached canonical Result bytes for a config hash and
// marks the entry as recently used.
func (c *Cache) Get(hash string) (json.RawMessage, bool) {
	p, ok := c.lookup(hash)
	if !ok {
		return nil, false
	}
	return p.unpack(), true
}

// Has reports whether hash is stored, marking it recently used like
// Get but without inflating the result; the daemon's admission uses it
// to test for a hit.
func (c *Cache) Has(hash string) bool {
	_, ok := c.lookup(hash)
	return ok
}

func (c *Cache) lookup(hash string) (packedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[hash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// Put records a result, evicting least-recently-used entries if a cap
// is exceeded. Re-putting the same hash refreshes recency; the value is
// a pure function of the hash, so last-write-wins changes nothing.
func (c *Cache) Put(hash string, result json.RawMessage) {
	p := packResult(result)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(hash, p, int64(len(result)))
	c.log.Append(entry{Key: hash, OK: true, Value: result})
}

// putLocked applies the in-memory insert + LRU eviction; shared by Put
// and the load path (which must not write back what it just read).
func (c *Cache) putLocked(hash string, result packedResult, size int64) {
	if el, ok := c.byKey[hash]; ok {
		it := el.Value.(*cacheItem)
		c.bytes += size - it.size
		it.val, it.size = result, size
		c.lru.MoveToFront(el)
	} else {
		c.byKey[hash] = c.lru.PushFront(&cacheItem{key: hash, val: result, size: size})
		c.bytes += size
	}
	for c.overLocked() {
		el := c.lru.Back()
		if el == nil || el == c.lru.Front() {
			break // never evict the entry just inserted
		}
		it := c.lru.Remove(el).(*cacheItem)
		delete(c.byKey, it.key)
		c.bytes -= it.size
		c.evicted++
	}
}

func (c *Cache) overLocked() bool {
	if c.limit.MaxEntries > 0 && c.lru.Len() > c.limit.MaxEntries {
		return true
	}
	return c.limit.MaxBytes > 0 && c.bytes > c.limit.MaxBytes
}

// Len reports how many results the cache holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the cache for /v1/stats.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.lru.Len(),
		Bytes:      c.bytes,
		Evictions:  c.evicted,
		MaxEntries: c.limit.MaxEntries,
		MaxBytes:   c.limit.MaxBytes,
	}
}

// Close closes the cache journal, returning any latched write error.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Close()
}
