package experiments

import (
	"encoding/json"

	"asymfence/internal/metrics"
	"asymfence/internal/store"
)

// MeasurementKind is the payload format tag measurement records carry
// in the on-disk store. Bump it when Measurement's JSON shape changes
// incompatibly: old records then read as misses and regenerate.
const MeasurementKind = "measurement/v1"

// MeasurementStoreOptions configure OpenMeasurementStore.
type MeasurementStoreOptions struct {
	// MaxBytes bounds the store's on-disk size; least-recently-used
	// records are evicted beyond it (<=0: 512 MiB).
	MaxBytes int64
	// Metrics, when non-nil, receives the store's counters under the
	// "store" scope (hits, misses, writes, evictions, corrupt,
	// records, bytes). Nil disables them; Stats is always available.
	Metrics *metrics.Registry
}

// MeasurementStore is the persistent measurement tier: a content-
// addressed on-disk store (internal/store) holding one versioned JSON
// record per canonical simulation key, shared across processes. It
// implements runner.Tier[*Measurement], so an Engine wired with one
// serves warm configurations without simulating — in any process, not
// just the one that first measured them.
//
// Simulations are deterministic, so a record loaded from the store is
// byte-equivalent (after table rendering) to a fresh simulation; the
// equivalence test in the root package holds this.
type MeasurementStore struct {
	s *store.Store
}

// OpenMeasurementStore opens (creating if necessary) the measurement
// store rooted at dir. Callers own the handle and must Close it to
// flush write-behind records and persist the LRU index.
func OpenMeasurementStore(dir string, o MeasurementStoreOptions) (*MeasurementStore, error) {
	s, err := store.Open(dir, store.Options{
		Kind:     MeasurementKind,
		MaxBytes: o.MaxBytes,
		Metrics:  o.Metrics.Scope("store"),
	})
	if err != nil {
		return nil, err
	}
	return &MeasurementStore{s: s}, nil
}

// Load returns the measurement stored under the canonical spec key, or
// ok=false on a miss (absent, evicted, corrupt or from an incompatible
// payload version). It implements runner.Tier.
func (ms *MeasurementStore) Load(key string) (*Measurement, bool) {
	if ms == nil {
		return nil, false
	}
	payload, ok := ms.s.Get(key)
	if !ok {
		return nil, false
	}
	var m Measurement
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, false
	}
	return &m, true
}

// Store persists a measurement under its canonical spec key
// (write-behind: it never blocks on disk I/O). It implements
// runner.Tier.
func (ms *MeasurementStore) Store(key string, m *Measurement) {
	if ms == nil || m == nil {
		return
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return
	}
	ms.s.Put(key, payload)
}

// Stats returns the underlying store's occupancy and traffic snapshot.
func (ms *MeasurementStore) Stats() store.Stats {
	if ms == nil {
		return store.Stats{}
	}
	return ms.s.Stats()
}

// Dir returns the store's root directory ("" on a nil store).
func (ms *MeasurementStore) Dir() string {
	if ms == nil {
		return ""
	}
	return ms.s.Dir()
}

// Flush blocks until every record written so far is durably on disk.
func (ms *MeasurementStore) Flush() {
	if ms != nil {
		ms.s.Flush()
	}
}

// Close flushes pending writes and releases the store.
func (ms *MeasurementStore) Close() error {
	if ms == nil {
		return nil
	}
	return ms.s.Close()
}
