// Package runlog is the persistent run-history store: an append-only
// JSONL journal (one Record per line) kept under the result cache
// directory, so every run, figure render and sweep the process executes
// leaves a durable row that survives restarts. The serve layer exposes
// it as GET /api/runs and the /runs board; the CLI reads it back with
// `powerchop runs`.
//
// The store is deliberately boring: appends are O(1) writes behind a
// mutex, reads scan the whole journal (history is small — one line per
// run, not per event), corrupt or truncated lines are counted and
// skipped rather than failing the read, and concurrent processes
// appending to the same file interleave safely because every record is
// a single buffered write.
package runlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FileName is the journal's name under the store directory.
const FileName = "runlog.jsonl"

// Record is one completed unit of work.
type Record struct {
	// Time is when the work finished.
	Time time.Time `json:"time"`
	// Kind classifies the work: "run", "compare", "figure", "all",
	// "headline" — mirroring the CLI subcommand or API endpoint.
	Kind string `json:"kind"`
	// Name identifies the work's subject: a benchmark name, a figure id,
	// "all" for full renders.
	Name string `json:"name"`
	// SpanID is the root span of the work's trace (0 when untraced) and
	// RequestID the correlating HTTP request id ("" for CLI work).
	SpanID    uint64 `json:"span_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// Params digests the parameters that shaped the work (manager,
	// arch, scale, passes — whatever the caller deems identifying).
	Params string `json:"params,omitempty"`
	// DurationMS is the work's wall-clock duration in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// CacheHits/CacheMisses count persistent result-cache activity
	// attributable to the work (deltas over its execution).
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	// Outcome is "ok" or "error"; Error carries the message.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// Columns heads the run-history table whose rows Row renders.
var Columns = []string{"time (UTC)", "kind", "name", "duration", "cache", "outcome"}

// Row renders the record as one run-history table row, the one the
// /runs board and `powerchop runs` print: the finish time in UTC, so
// every surface shows one zone whatever offset the record was written
// with; kind and name; the duration; cache hits over lookups (empty
// when the work made none); and the outcome with any error.
func (r Record) Row() []string {
	cache := ""
	if r.CacheHits+r.CacheMisses > 0 {
		cache = fmt.Sprintf("%d/%d", r.CacheHits, r.CacheHits+r.CacheMisses)
	}
	outcome := r.Outcome
	if r.Error != "" {
		outcome += ": " + r.Error
	}
	return []string{
		r.Time.UTC().Format(time.DateTime),
		r.Kind,
		r.Name,
		fmt.Sprintf("%.0fms", r.DurationMS),
		cache,
		outcome,
	}
}

// Filter selects records from a List scan. Zero fields match anything.
type Filter struct {
	// Kind/Name/Outcome match the records' fields exactly.
	Kind, Name, Outcome string
	// Offset skips that many matching records (newest first); Limit
	// caps the result (0 = unlimited).
	Offset, Limit int
}

// Match reports whether the record passes the Kind, Name and Outcome
// fields.
func (f Filter) Match(r Record) bool {
	return (f.Kind == "" || r.Kind == f.Kind) &&
		(f.Name == "" || r.Name == f.Name) &&
		(f.Outcome == "" || r.Outcome == f.Outcome)
}

// Store is the journal. Open one per process; it is safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	path string // "" for in-memory stores
	mem  []Record
}

// Open returns a store journaling to dir/runlog.jsonl, creating dir as
// needed. The file itself is created lazily on first Append, so opening
// a store never dirties an empty cache directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runlog: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return &Store{path: filepath.Join(dir, FileName)}, nil
}

// Memory returns an in-memory store: same semantics, nothing on disk.
// The serve layer falls back to it when no cache directory is
// configured, so /api/runs always works (just without persistence).
func Memory() *Store { return &Store{} }

// Persistent reports whether the store survives process exit.
func (s *Store) Persistent() bool { return s != nil && s.path != "" }

// Path returns the journal file path ("" for in-memory stores).
func (s *Store) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Append journals one record. Records with a zero Outcome are
// normalized to "ok"/"error" from the Error field.
func (s *Store) Append(r Record) error {
	if s == nil {
		return nil
	}
	if r.Outcome == "" {
		if r.Error != "" {
			r.Outcome = "error"
		} else {
			r.Outcome = "ok"
		}
	}
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		s.mem = append(s.mem, r)
		return nil
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	defer f.Close()
	// One Write call per record: O_APPEND keeps concurrent appenders
	// from interleaving within a line.
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}

// List returns matching records newest-first. Corrupt journal lines are
// skipped; their count is returned alongside. A missing journal file is
// an empty history, not an error.
func (s *Store) List(f Filter) (recs []Record, corrupt int, err error) {
	if s == nil {
		return nil, 0, nil
	}
	all, corrupt, err := s.load()
	if err != nil {
		return nil, corrupt, err
	}
	// Newest first: the journal appends chronologically.
	skipped := 0
	for i := len(all) - 1; i >= 0; i-- {
		r := all[i]
		if !f.Match(r) {
			continue
		}
		if skipped < f.Offset {
			skipped++
			continue
		}
		recs = append(recs, r)
		if f.Limit > 0 && len(recs) >= f.Limit {
			break
		}
	}
	return recs, corrupt, nil
}

// load reads the journal oldest-first.
func (s *Store) load() ([]Record, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return append([]Record(nil), s.mem...), 0, nil
	}
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("runlog: %w", err)
	}
	defer f.Close()
	var (
		recs    []Record
		corrupt int
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Record
		if json.Unmarshal(line, &r) != nil || r.Kind == "" {
			corrupt++
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return recs, corrupt, fmt.Errorf("runlog: %w", err)
	}
	return recs, corrupt, nil
}
