package metrics

import "sync"

// SyncHistogram is a Histogram safe for concurrent observation. It guards
// a plain Histogram with a mutex rather than sharding: the serving paths
// that use it observe one value per HTTP request, so contention is dwarfed
// by request handling itself. The zero value is ready to use.
type SyncHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records one value.
func (s *SyncHistogram) Observe(v float64) {
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// Snapshot returns an independent copy of the underlying histogram,
// taken under the lock: safe to merge, bucket and quantile while
// observations keep arriving.
func (s *SyncHistogram) Snapshot() *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Clone()
}
