package dsr

import (
	"testing"

	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// The destination cache is bounded: learning routes to more than
// MaxCacheDsts destinations evicts the oldest-inserted destination,
// and the insertion-order bookkeeping stays O(cap).
func TestRouteCacheDstBound(t *testing.T) {
	s := sim.New(1)
	out := &stubOut{}
	var ids packet.IDGen
	cfg := DefaultConfig()
	cfg.MaxCacheDsts = 3
	r, err := New(s, 0, out, &ids, ondemand.DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Learn direct routes to dsts 1..10.
	for d := packet.NodeID(1); d <= 10; d++ {
		r.learnRoute(route(0, d))
	}
	if len(r.cache) != 3 {
		t.Fatalf("cache dsts = %d, want 3", len(r.cache))
	}
	for d := packet.NodeID(8); d <= 10; d++ {
		if _, ok := r.BestRoute(d); !ok {
			t.Fatalf("recent dst %d evicted", d)
		}
	}
	for d := packet.NodeID(1); d <= 7; d++ {
		if _, ok := r.BestRoute(d); ok {
			t.Fatalf("old dst %d survived eviction", d)
		}
	}
	if len(r.cacheOrder) >= 2*cfg.MaxCacheDsts {
		t.Fatalf("cacheOrder = %d entries, not compacted under 2*cap", len(r.cacheOrder))
	}
}

// Purged destinations leave stale order entries that eviction must
// skip, and a re-learned destination is evictable again.
func TestRouteCacheEvictionSkipsPurged(t *testing.T) {
	s := sim.New(1)
	out := &stubOut{}
	var ids packet.IDGen
	cfg := DefaultConfig()
	cfg.MaxCacheDsts = 2
	r, err := New(s, 0, out, &ids, ondemand.DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.learnRoute(route(0, 1))
	r.learnRoute(route(0, 2))
	r.purgeLink(0, 1) // dst 1 gone, stale order entry remains
	r.learnRoute(route(0, 3))
	if _, ok := r.BestRoute(2); !ok {
		t.Fatal("dst 2 evicted while a stale entry should have been skipped")
	}
	if _, ok := r.BestRoute(3); !ok {
		t.Fatal("dst 3 missing after admit")
	}
	r.learnRoute(route(0, 4)) // must evict dst 2 (oldest live)
	if _, ok := r.BestRoute(2); ok {
		t.Fatal("oldest live dst not evicted")
	}
	if len(r.cache) != 2 {
		t.Fatalf("cache dsts = %d, want 2", len(r.cache))
	}
}

// Duplicate-request suppression stays effective within the bound and
// the cache never exceeds it.
func TestSeenCacheBoundedDSR(t *testing.T) {
	disc := ondemand.DefaultConfig()
	disc.SeenCacheSize = 3
	var ids packet.IDGen
	r, err := New(sim.New(1), 0, &stubOut{}, &ids, disc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		r.od.Duplicate(1, uint32(i))
	}
	for i := 6; i < 9; i++ {
		if !r.od.Duplicate(1, uint32(i)) {
			t.Fatalf("recent request %d evicted", i)
		}
	}
	if r.od.Duplicate(1, 0) {
		t.Fatal("FIFO eviction order wrong: request 0 survived")
	}
}

func TestBoundedConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCacheDsts = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative MaxCacheDsts accepted")
	}
}
