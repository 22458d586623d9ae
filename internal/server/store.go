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
//   - Writers (Put/Append) serialize on a mutex, build the next epoch
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
	// and incremented by every Append/Put.
	Epoch uint64
	// Arr is the ElasticMap array of this epoch.
	Arr *elasticmap.Array
	// Idx is Arr's own inverted dominant-key index (Arr.Index()), the one
	// its Eq.-6 scans walk.
	Idx *elasticmap.Index
	// cache memoizes query results for this epoch only.
	cache *resultCache
}

// entry is the per-name publication point. It outlives snapshots: Append
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
	s.mu.Lock()
	defer s.mu.Unlock()
	cat := *s.catalog.Load()
	e, ok := cat[name]
	if !ok {
		// Copy-on-write catalog extension: readers holding the old map
		// simply don't see the new name yet.
		next := make(map[string]*entry, len(cat)+1)
		for k, v := range cat {
			next[k] = v
		}
		e = &entry{}
		next[name] = e
		defer s.catalog.Store(&next)
	}
	var epoch uint64 = 1
	if prev := e.snap.Load(); prev != nil {
		epoch = prev.Epoch + 1
	}
	snap := s.newSnapshot(name, epoch, arr)
	e.snap.Store(snap)
	return snap
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
	cat := *s.catalog.Load()
	e, ok := cat[name]
	if !ok {
		next := make(map[string]*entry, len(cat)+1)
		for k, v := range cat {
			next[k] = v
		}
		e = &entry{}
		next[name] = e
		defer s.catalog.Store(&next)
	} else if prev := e.snap.Load(); prev != nil && prev.Epoch >= epoch {
		return nil, fmt.Errorf("server: PutEpoch %q epoch %d not above current %d", name, epoch, prev.Epoch)
	}
	snap := s.newSnapshot(name, epoch, arr)
	e.snap.Store(snap)
	return snap, nil
}

// Append extends name's array with the blocks of more (an encoded-array
// payload decoded by the caller), publishing a new epoch. Concurrent
// readers keep answering from the previous epoch until the store succeeds.
func (s *Store) Append(name string, more *elasticmap.Array) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := (*s.catalog.Load())[name]
	if !ok {
		return nil, ErrUnknownArray
	}
	prev := e.snap.Load()
	snap := s.newSnapshot(name, prev.Epoch+1, elasticmap.Merge(prev.Arr, more))
	e.snap.Store(snap)
	return snap, nil
}

func (s *Store) newSnapshot(name string, epoch uint64, arr *elasticmap.Array) *Snapshot {
	return &Snapshot{
		Name:  name,
		Epoch: epoch,
		Arr:   arr,
		Idx:   arr.Index(), // built here, on the write path, never by a reader
		cache: newResultCache(s.cacheSize),
	}
}

// Cached memoizes the result of compute under key in the snapshot's
// per-epoch cache and reports whether it was a hit. compute runs at most
// once per key per epoch in the common case; under a concurrent miss race
// both callers compute and one result wins (the values are deterministic
// functions of the immutable snapshot, so either is correct).
func (sn *Snapshot) Cached(key string, compute func() []byte) (val []byte, hit bool) {
	if v, ok := sn.cache.get(key); ok {
		return v, true
	}
	v := compute()
	sn.cache.put(key, v)
	return v, false
}
