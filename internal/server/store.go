// Package server turns the in-process ElasticMap library into a queryable
// metadata service: an HTTP JSON API over an in-memory store of named
// ElasticMap arrays. The paper's deployment sketch has the meta-data
// "stored into a database" and consulted by the scheduler at job-submission
// time; this package is that database, built for the many-concurrent-readers
// regime — scheduling-time queries must never block behind meta-data
// maintenance.
//
// Concurrency model (snapshot isolation):
//
//   - Every array is an immutable Snapshot: an epoch number, the
//     elasticmap.Array, its inverted Index, and a per-epoch result cache.
//   - Readers resolve a snapshot with two atomic pointer loads (catalog,
//     then array) and answer the whole request from it — no locks, no torn
//     reads, exactly one epoch per response.
//   - Writers (Write, PutEpoch) serialize on a mutex, build the next epoch
//     copy-on-write (BlockMeta values are immutable and shared), and
//     publish it with a single atomic store. In-flight readers keep their
//     old snapshot; new requests see the new epoch.
//   - The result cache lives on the snapshot, so cache invalidation is the
//     epoch bump itself: a new epoch starts cold and stale entries become
//     unreachable together with their snapshot.
package server

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"datanet/internal/elasticmap"
)

// ErrUnknownArray reports a query against a name the store does not hold.
var ErrUnknownArray = errors.New("server: unknown array")

// Snapshot is one immutable epoch of one named array. All fields are
// read-only after construction; the cache is internally synchronized.
type Snapshot struct {
	// Name is the array's catalog key.
	Name string
	// Epoch numbers the array's versions, starting at 1 when first loaded
	// and incremented by every Write.
	Epoch uint64
	// Arr is the ElasticMap array of this epoch.
	Arr *elasticmap.Array
	// Idx is Arr's own inverted dominant-key index (Arr.Index()), the one
	// its Eq.-6 scans walk.
	Idx *elasticmap.Index
	// cache memoizes query results for this epoch only.
	cache *resultCache
}

// entry is the per-name publication point. It outlives snapshots: a write
// swings entry.snap, never the catalog, so concurrent appends to different
// arrays don't contend on the catalog pointer.
type entry struct {
	snap atomic.Pointer[Snapshot]
}

// Store holds named ElasticMap arrays with snapshot-isolated access.
type Store struct {
	// mu serializes writers (catalog changes and epoch bumps). Readers
	// never take it.
	mu      sync.Mutex
	catalog atomic.Pointer[map[string]*entry]
	// cacheSize bounds each epoch's result cache (entries).
	cacheSize int
}

// DefaultCacheSize bounds each epoch's result cache when NewStore is given
// a non-positive size.
const DefaultCacheSize = 1024

// NewStore creates an empty store whose per-epoch result caches hold up to
// cacheSize entries (DefaultCacheSize when <= 0).
func NewStore(cacheSize int) *Store {
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	s := &Store{cacheSize: cacheSize}
	empty := map[string]*entry{}
	s.catalog.Store(&empty)
	return s
}

// Get resolves the current snapshot of name. It is lock-free: two atomic
// loads, safe under any number of concurrent writers.
func (s *Store) Get(name string) (*Snapshot, bool) {
	e, ok := (*s.catalog.Load())[name]
	if !ok {
		return nil, false
	}
	return e.snap.Load(), true
}

// Names lists the stored array names, sorted.
func (s *Store) Names() []string {
	cat := *s.catalog.Load()
	out := make([]string, 0, len(cat))
	for name := range cat {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored arrays.
func (s *Store) Len() int { return len(*s.catalog.Load()) }

// ArrayFile is one encoded ElasticMap array to serve under Name, read from
// Path.
type ArrayFile struct {
	Name, Path string
	Arr        *elasticmap.Array
}

// ArrayFiles is the arrays a daemon serves; *ArrayFiles is a repeatable
// flag.Value spelled NAME=FILE that reads and decodes FILE as it parses.
type ArrayFiles []ArrayFile

// String spells the arrays as Set parses them, comma-separated.
func (a *ArrayFiles) String() string {
	parts := make([]string, len(*a))
	for i, f := range *a {
		parts[i] = f.Name + "=" + f.Path
	}
	return strings.Join(parts, ",")
}

// Set adds the array NAME=FILE.
func (a *ArrayFiles) Set(s string) error {
	name, path, _ := strings.Cut(s, "=")
	if name == "" || path == "" {
		return fmt.Errorf("server: bad array %q (want NAME=FILE)", s)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	arr, err := elasticmap.Decode(blob)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	*a = append(*a, ArrayFile{name, path, arr})
	return nil
}

// Put installs arr under name, replacing any existing array. The new
// snapshot's epoch continues the name's sequence (1 for a fresh name).
func (s *Store) Put(name string, arr *elasticmap.Array) *Snapshot {
	sn, _ := s.Write(name, Replace(arr))
	return sn
}

// Write publishes the array next forms from name's current snapshot (nil
// for a fresh name) at the next epoch of the name's sequence. Concurrent
// readers keep answering from the previous epoch until it is published.
func (s *Store) Write(name string, next func(prev *Snapshot) (*elasticmap.Array, error)) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, _ := s.Get(name)
	arr, err := next(prev)
	if err != nil {
		return nil, err
	}
	var epoch uint64 = 1
	if prev != nil {
		epoch = prev.Epoch + 1
	}
	return s.publish(name, arr, epoch), nil
}

// PutEpoch installs arr under name at an exact epoch instead of the
// next-in-sequence one. This is the replication apply path: a follower
// mirrors the primary's epoch numbering so a promoted follower continues
// the same sequence, and a promoted-but-stale primary can jump its
// counter past epochs it never received. Installing an epoch at or below
// the current one is refused — snapshot shipping only ever moves forward.
func (s *Store) PutEpoch(name string, arr *elasticmap.Array, epoch uint64) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.Get(name); ok && prev.Epoch >= epoch {
		return nil, fmt.Errorf("server: PutEpoch %q epoch %d not above current %d", name, epoch, prev.Epoch)
	}
	return s.publish(name, arr, epoch), nil
}

// publish is the one copy-on-write step: build arr's snapshot at epoch and
// swing name's entry to it, extending the catalog for a fresh name only
// after the entry holds its snapshot, so readers never see an empty entry.
// Caller holds s.mu.
func (s *Store) publish(name string, arr *elasticmap.Array, epoch uint64) *Snapshot {
	sn := &Snapshot{
		Name:  name,
		Epoch: epoch,
		Arr:   arr,
		Idx:   arr.Index(), // built here, on the write path, never by a reader
		cache: newResultCache(s.cacheSize),
	}
	cat := *s.catalog.Load()
	if e, ok := cat[name]; ok {
		e.snap.Store(sn)
		return sn
	}
	next := make(map[string]*entry, len(cat)+1)
	for k, v := range cat {
		next[k] = v
	}
	e := &entry{}
	e.snap.Store(sn)
	next[name] = e
	s.catalog.Store(&next)
	return sn
}

// AppendTo forms an append's next array: more merged onto the current
// one, which must exist.
func AppendTo(more *elasticmap.Array) func(prev *Snapshot) (*elasticmap.Array, error) {
	return func(prev *Snapshot) (*elasticmap.Array, error) {
		if prev == nil {
			return nil, ErrUnknownArray
		}
		return elasticmap.Merge(prev.Arr, more), nil
	}
}

// Replace forms a put's next array: arr, whatever was there.
func Replace(arr *elasticmap.Array) func(prev *Snapshot) (*elasticmap.Array, error) {
	return func(*Snapshot) (*elasticmap.Array, error) { return arr, nil }
}

// Lookup is the single-process read path: every held array is served and
// none is ever stale.
func (s *Store) Lookup(name string) (*Snapshot, bool, error) {
	sn, ok := s.Get(name)
	if !ok {
		return nil, false, ErrUnknownArray
	}
	return sn, false, nil
}

// List returns every held array's current snapshot, sorted by name.
func (s *Store) List() []*Snapshot {
	names := s.Names()
	out := make([]*Snapshot, len(names))
	for i, name := range names {
		out[i], _ = s.Get(name) // names are never removed
	}
	return out
}

// Node reports a single process: no cluster node.
func (s *Store) Node() int { return -1 }

// Shard reports a single process: the catalog is not sharded.
func (s *Store) Shard(string) int { return -1 }

// Ready reports an empty store as not ready to serve.
func (s *Store) Ready() error {
	if s.Len() == 0 {
		return errors.New("catalog empty")
	}
	return nil
}

// Cached memoizes the result of compute under key in the snapshot's
// per-epoch cache and reports whether it was a hit. compute runs at most
// once per key per epoch in the common case; under a concurrent miss race
// both callers compute and one result wins (the values are deterministic
// functions of the immutable snapshot, so either is correct). A failed
// compute stores nothing, so the next call computes again.
func (sn *Snapshot) Cached(key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if v, ok := sn.cache.get(key); ok {
		return v, true, nil
	}
	if val, err = compute(); err != nil {
		return nil, false, err
	}
	sn.cache.put(key, val)
	return val, false, nil
}
