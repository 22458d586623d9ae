package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/records"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(3)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if c.ll.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.ll.Len())
	}
	// Touch k0, making k1 the least recently used.
	if v, ok := c.get("k0"); !ok || v[0] != 0 {
		t.Fatalf("get k0 = %v, %v", v, ok)
	}
	c.put("k3", []byte{3})
	if _, ok := c.get("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	// Overwriting an existing key updates in place without eviction.
	c.put("k2", []byte{42})
	if v, _ := c.get("k2"); v[0] != 42 {
		t.Fatalf("overwrite lost: %v", v)
	}
	if c.ll.Len() != 3 {
		t.Fatalf("len after overwrite = %d, want 3", c.ll.Len())
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%32)
				if v, ok := c.get(key); ok && len(v) != 1 {
					t.Errorf("bad cached value %v", v)
					return
				}
				c.put(key, []byte{byte(i % 32)})
			}
		}(w)
	}
	wg.Wait()
	if c.ll.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.ll.Len())
	}
}

func TestSnapshotCachedColdAfterAppend(t *testing.T) {
	s := NewStore(4)
	s.Put("logs", elasticmap.Build(baseBlocks(), testOpts))
	sn, _ := s.Get("logs")
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("v"), nil }
	if _, hit, _ := sn.Cached("k", compute); hit {
		t.Fatal("first lookup hit")
	}
	if _, hit, _ := sn.Cached("k", compute); !hit {
		t.Fatal("second lookup missed")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	// A new epoch starts with a cold cache: that is the invalidation rule.
	if _, err := s.Write("logs", AppendTo(elasticmap.Build([][]records.Record{blockOf("new")}, testOpts))); err != nil {
		t.Fatal(err)
	}
	sn2, _ := s.Get("logs")
	if _, hit, _ := sn2.Cached("k", compute); hit {
		t.Fatal("new epoch served the old epoch's cache entry")
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	// A failed compute stores nothing: the next lookup computes again.
	fail := func() ([]byte, error) { calls++; return nil, errors.New("no answer") }
	for range 2 {
		if _, hit, err := sn2.Cached("bad", fail); hit || err == nil {
			t.Fatalf("failed compute: hit %v, err %v", hit, err)
		}
	}
	if calls != 4 {
		t.Fatalf("compute ran %d times, want 4", calls)
	}
}
