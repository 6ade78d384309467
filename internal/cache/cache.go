// Package cache is a content-addressed on-disk result store for the
// experiment pipeline. Values are addressed by a deterministic hash of the
// configuration that produced them (paper-set options, suite options,
// network or artifact name) plus a code schema version, so a re-run of
// `reproduce` with an unchanged configuration skips network generation and
// measurement entirely, while any change to scale, seed or result format
// invalidates exactly the entries it must.
//
// Values are encoded with encoding/gob, which round-trips float64 bits
// exactly: a result decoded from the cache is byte-identical, when
// rendered, to the freshly computed one. Writes are atomic
// (temp file + rename), so concurrent writers — the pipeline stores suite
// results from many goroutines — never expose a torn entry.
package cache

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"topocmp/internal/obs"
)

// SchemaVersion is folded into every key. Bump it whenever the meaning or
// encoding of stored results changes (new suite fields, altered metric
// algorithms), so stale entries miss instead of decoding into wrong shapes.
// Version 2: stats.Series gained per-point StdErr bounds,
// hierarchy.Result gained Nodes, and SuiteOptions gained SampleBudget.
// Version 3: the extras artifact's surface-max-flow curves come from the
// engine form (per-center target RNGs) instead of one shared RNG stream.
const SchemaVersion = 3

// Key derives the content address for a result produced under the given
// canonical description parts (e.g. the paper-set key, the suite key and a
// network name). The schema version is always included.
func Key(parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d", SchemaVersion)
	for _, p := range parts {
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		fmt.Fprintf(h, "|%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats counts store traffic. DecodeErrors counts entries that existed on
// disk but failed to decode — corruption, truncation or a schema drift the
// version constant missed — and were evicted so the next run rebuilds them.
type Stats struct {
	Hits, Misses, Puts, DecodeErrors int64
}

// Store is a directory of gob-encoded entries named by their key. A nil
// *Store is valid and behaves as an always-miss, drop-writes cache, so
// callers don't need to branch on "caching enabled".
//
// Traffic counters are obs.Counters: standalone by default, or shared with
// a run's metrics registry via Instrument, where they appear as
// cache.hits / cache.misses / cache.puts / cache.decode_errors alongside
// cache.get and cache.put duration histograms.
type Store struct {
	dir          string
	hits         *obs.Counter
	misses       *obs.Counter
	puts         *obs.Counter
	decodeErrors *obs.Counter
	getTime      *obs.Histogram // nil unless instrumented
	putTime      *obs.Histogram // nil unless instrumented
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{
		dir:          dir,
		hits:         &obs.Counter{},
		misses:       &obs.Counter{},
		puts:         &obs.Counter{},
		decodeErrors: &obs.Counter{},
	}, nil
}

// Instrument rebinds the store's counters to the registry (as cache.hits,
// cache.misses, cache.puts, cache.decode_errors) and enables the cache.get
// and cache.put duration histograms. Call it right after Open, before any
// traffic — counts accumulated before the rebind stay on the old counters.
func (s *Store) Instrument(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.hits = reg.Counter("cache.hits")
	s.misses = reg.Counter("cache.misses")
	s.puts = reg.Counter("cache.puts")
	s.decodeErrors = reg.Counter("cache.decode_errors")
	s.getTime = reg.Histogram("cache.get")
	s.putTime = reg.Histogram("cache.put")
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Store) path(key string) string {
	// Two-level fan-out keeps directories small at full-sweep scales.
	return filepath.Join(s.dir, key[:2], key[2:]+".gob")
}

// Has reports whether an entry exists on disk for key, without reading or
// decoding it (a corrupt entry still reports true until a Get evicts it).
// Existence probes are not traffic, so no hit/miss counter moves — the
// serving layer uses Has to route saturated requests: a request whose
// result is already on disk is served instead of shed. Always false on a
// nil store.
func (s *Store) Has(key string) bool {
	if s == nil {
		return false
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Get decodes the entry for key into v (a pointer) and reports whether it
// was found. An entry that exists but fails to decode — corrupt, truncated,
// or written under a schema the version constant failed to capture — is
// counted as a decode error (not a miss), evicted from disk, and reported
// as not found, so the caller rebuilds it once instead of tripping over the
// bad bytes on every future run.
func (s *Store) Get(key string, v any) bool {
	if s == nil {
		return false
	}
	if s.getTime != nil {
		t0 := time.Now()
		defer func() { s.getTime.Observe(time.Since(t0)) }()
	}
	path := s.path(key)
	f, err := os.Open(path)
	if err != nil {
		s.misses.Add(1)
		return false
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		s.decodeErrors.Add(1)
		os.Remove(path) //nolint:errcheck // best-effort eviction
		return false
	}
	s.hits.Add(1)
	return true
}

// Put stores v under key atomically. A nil store drops the write.
func (s *Store) Put(key string, v any) error {
	if s == nil {
		return nil
	}
	if s.putTime != nil {
		t0 := time.Now()
		defer func() { s.putTime.Observe(time.Since(t0)) }()
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(v); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: encode %s: %w", strings.TrimSuffix(key, "\n"), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Stats returns the store's traffic counters since Open.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:         s.hits.Value(),
		Misses:       s.misses.Value(),
		Puts:         s.puts.Value(),
		DecodeErrors: s.decodeErrors.Value(),
	}
}
