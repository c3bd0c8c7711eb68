// Package tsdb is an embedded, bounded-memory time-series store for
// per-window telemetry. It ingests scalar samples keyed by series name
// and window ordinal into multi-resolution levels: the raw level keeps
// one bucket per window, coarser levels fold a fixed number of windows
// into one bucket, and every bucket keeps count/min/max/sum/last so any
// aggregate a query asks for is answerable at any resolution. Each level
// is a ring with its own retention, so memory is bounded no matter how
// long a run (or a sequence of runs) streams.
//
// Bucket boundaries are deterministic functions of the window ordinal —
// bucket i of a level with width w covers windows [i*w+1, (i+1)*w] —
// so replaying the same event stream reproduces byte-identical level
// contents. The store is safe for concurrent ingest and query.
//
// Like every obs sink, the store is a pure observer: it is fed from the
// simulator's event stream (see Ingestor) and never feeds back, so
// attaching one cannot change simulation output.
package tsdb

import (
	"fmt"
	"sort"
	"sync"
)

// LevelSpec configures one resolution level.
type LevelSpec struct {
	// Bucket is the level's bucket width in windows (1 = raw).
	Bucket uint64
	// Retain is the number of buckets the level keeps; older buckets are
	// evicted ring-style.
	Retain int
}

// Config configures a Store.
type Config struct {
	// Levels lists the resolution levels, finest first. Bucket widths
	// must be positive and strictly increasing.
	Levels []LevelSpec
}

// DefaultConfig returns the standard three-level layout: 4096 raw
// windows, 2048 buckets of 32 windows, and 1024 buckets of 1024 windows
// (per series roughly 0.5 MiB; coarse history spans ~1M windows).
func DefaultConfig() Config {
	return Config{Levels: []LevelSpec{
		{Bucket: 1, Retain: 4096},
		{Bucket: 32, Retain: 2048},
		{Bucket: 1024, Retain: 1024},
	}}
}

// Bucket is one aggregated bucket of a level: the windows it covers and
// the running aggregates of every sample that landed in it.
type Bucket struct {
	// Start and End are the first and last window ordinals the bucket
	// covers (inclusive; equal on the raw level).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Count is the number of samples folded into the bucket.
	Count uint64 `json:"count"`
	// Min, Max, Sum and Last aggregate the folded samples.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
	Last float64 `json:"last"`
	// Cycle is the simulated cycle of the bucket's last sample.
	Cycle float64 `json:"cycle"`
}

// Mean returns the bucket's mean sample value.
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// level is one ring of buckets.
type level struct {
	spec LevelSpec
	// ring holds the buckets oldest-first once unwrapped; head indexes
	// the oldest occupied slot and n counts occupied slots. The ring
	// grows on demand up to spec.Retain buckets, so a short series costs
	// only the buckets it holds; head stays 0 until it is full.
	ring []Bucket
	head int
	n    int
}

func (l *level) last() *Bucket {
	if l.n == 0 {
		return nil
	}
	return &l.ring[(l.head+l.n-1)%len(l.ring)]
}

func (l *level) push(b Bucket) {
	if l.n < l.spec.Retain {
		l.ring = append(l.ring, b)
		l.n++
		return
	}
	// Full: overwrite the oldest slot and advance.
	l.ring[l.head] = b
	l.head = (l.head + 1) % len(l.ring)
}

// append folds one sample into the level, opening a new bucket when the
// window crosses a bucket boundary. Windows never move backwards: a
// sample older than the current bucket is clamped into it, so interleaved
// streams cannot corrupt boundary determinism (single-run streams are
// monotonic and never clamp).
func (l *level) append(window uint64, cycle, v float64) {
	idx := (window - 1) / l.spec.Bucket
	if cur := l.last(); cur != nil {
		curIdx := (cur.Start - 1) / l.spec.Bucket
		if idx <= curIdx {
			cur.Count++
			if v < cur.Min {
				cur.Min = v
			}
			if v > cur.Max {
				cur.Max = v
			}
			cur.Sum += v
			cur.Last = v
			cur.Cycle = cycle
			return
		}
	}
	l.push(Bucket{
		Start: idx*l.spec.Bucket + 1,
		End:   (idx + 1) * l.spec.Bucket,
		Count: 1,
		Min:   v, Max: v, Sum: v, Last: v,
		Cycle: cycle,
	})
}

// buckets returns the level's occupied buckets oldest-first.
func (l *level) buckets() []Bucket {
	out := make([]Bucket, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(l.head+i)%len(l.ring)])
	}
	return out
}

// series is one named series: the same samples at every level.
type series struct {
	name    string
	samples uint64
	levels  []*level
}

// Store is the time-series store. The zero value is not usable; use
// NewStore.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	series map[string]*series
	latest uint64

	ingestOnce sync.Once
	ingest     *Ingestor // see Ingestor
}

// NewStore builds a store with the given level layout. It panics on an
// invalid layout (no levels, non-positive widths or retention, widths
// not strictly increasing) — level layout is a programming decision, not
// an input.
func NewStore(cfg Config) *Store {
	if len(cfg.Levels) == 0 {
		panic("tsdb: config needs at least one level")
	}
	prev := uint64(0)
	for _, l := range cfg.Levels {
		if l.Bucket == 0 || l.Retain <= 0 {
			panic(fmt.Sprintf("tsdb: invalid level %+v", l))
		}
		if l.Bucket <= prev {
			panic("tsdb: level bucket widths must be strictly increasing")
		}
		prev = l.Bucket
	}
	return &Store{cfg: cfg, series: map[string]*series{}}
}

// Append folds one sample — series name, window ordinal (1-based),
// simulated cycle, value — into every level. Unknown series are created
// on first append.
func (s *Store) Append(name string, window uint64, cycle, v float64) {
	s.mu.Lock()
	s.appendLocked(name, window, cycle, v)
	s.mu.Unlock()
}

// Sample is one batch entry for AppendBatch.
type Sample struct {
	Series string
	Window uint64
	Cycle  float64
	Value  float64
}

// AppendBatch appends a set of samples atomically with respect to
// readers: a query or LatestWindow call never observes part of a
// batch. The telemetry ingestor commits each window's row through it,
// so the alert evaluator's boundary watermark only ever advances over
// complete rows — the invariant behind live/offline transition
// identity.
func (s *Store) AppendBatch(batch []Sample) {
	s.mu.Lock()
	for _, sm := range batch {
		s.appendLocked(sm.Series, sm.Window, sm.Cycle, sm.Value)
	}
	s.mu.Unlock()
}

// appendLocked folds one sample in. Caller holds mu.
func (s *Store) appendLocked(name string, window uint64, cycle, v float64) {
	if window == 0 {
		window = 1
	}
	if window > s.latest {
		s.latest = window
	}
	sr := s.series[name]
	if sr == nil {
		sr = &series{name: name, levels: make([]*level, len(s.cfg.Levels))}
		for i, spec := range s.cfg.Levels {
			sr.levels[i] = &level{spec: spec}
		}
		s.series[name] = sr
	}
	sr.samples++
	for _, l := range sr.levels {
		l.append(window, cycle, v)
	}
}

// LatestWindow returns the highest window ordinal ever appended, across
// all series (0 when the store is empty). The alert evaluator keys its
// deterministic evaluation boundaries on it: a raw-level bucket for
// window w is final once LatestWindow reaches w, because ingestion is
// ordered by window, so any evaluation at a boundary ≤ LatestWindow
// reads data that will never change (until it ages out of retention).
func (s *Store) LatestWindow() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.latest
}

// SeriesNames returns every series name, sorted.
func (s *Store) SeriesNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for name := range s.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LevelInfo describes one level of one series for discovery.
type LevelInfo struct {
	// Bucket is the level's bucket width in windows, Retain its
	// capacity and Buckets its current occupancy.
	Bucket  uint64 `json:"bucket"`
	Retain  int    `json:"retain"`
	Buckets int    `json:"buckets"`
	// Start and End are the window range currently held (0 when empty).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// SeriesInfo describes one series for discovery (/api/series).
type SeriesInfo struct {
	Name string `json:"name"`
	// Samples is the total number of samples ever appended.
	Samples uint64      `json:"samples"`
	Levels  []LevelInfo `json:"levels"`
}

// Info describes every series, sorted by name.
func (s *Store) Info() []SeriesInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SeriesInfo, 0, len(s.series))
	for _, sr := range s.series {
		info := SeriesInfo{Name: sr.name, Samples: sr.samples}
		for _, l := range sr.levels {
			li := LevelInfo{Bucket: l.spec.Bucket, Retain: l.spec.Retain, Buckets: l.n}
			if l.n > 0 {
				bs := l.buckets()
				li.Start = bs[0].Start
				li.End = bs[len(bs)-1].End
			}
			info.Levels = append(info.Levels, li)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LevelBuckets returns a copy of the occupied buckets of the level with
// the given bucket width for a series, oldest-first (nil when the series
// or level does not exist). Tests use it to assert level contents
// reproduce deterministically.
func (s *Store) LevelBuckets(name string, bucket uint64) []Bucket {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr := s.series[name]
	if sr == nil {
		return nil
	}
	for _, l := range sr.levels {
		if l.spec.Bucket == bucket {
			return l.buckets()
		}
	}
	return nil
}

// Levels returns the store's level layout.
func (s *Store) Levels() []LevelSpec {
	return append([]LevelSpec(nil), s.cfg.Levels...)
}

// Aggregators, in the order /api/query documents them.
const (
	AggMean  = "mean"
	AggMin   = "min"
	AggMax   = "max"
	AggLast  = "last"
	AggSum   = "sum"
	AggCount = "count"
)

// Query selects a window range of one series at a resolution.
type Query struct {
	// Series is the series name (required).
	Series string
	// From and To bound the window range, inclusive; zero means
	// unbounded on that side.
	From, To uint64
	// FromCycle and ToCycle bound the range by simulated cycle instead
	// (matched against each bucket's last-sample cycle); zero means
	// unbounded. Window and cycle bounds compose (intersection).
	FromCycle, ToCycle float64
	// Step is the desired resolution in windows per point. The query
	// answers from the coarsest level whose bucket width does not exceed
	// Step (0 picks the raw level).
	Step uint64
	// Agg picks the per-bucket aggregate reported as each point's Value:
	// mean (default), min, max, last, sum or count.
	Agg string
}

// Point is one query result point: a bucket's window range and its
// aggregates, with Value carrying the requested aggregate.
type Point struct {
	// Window and End are the bucket's window range (inclusive).
	Window uint64 `json:"window"`
	End    uint64 `json:"end"`
	// Cycle is the simulated cycle of the bucket's last sample.
	Cycle float64 `json:"cycle"`
	// Value is the requested aggregate; the raw aggregates ride along.
	Value float64 `json:"value"`
	Count uint64  `json:"samples"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Last  float64 `json:"last"`
}

// Result is a query's answer.
type Result struct {
	// Series and Agg echo the query; Bucket is the width of the level
	// that answered.
	Series string  `json:"series"`
	Agg    string  `json:"agg"`
	Bucket uint64  `json:"bucket"`
	Points []Point `json:"points"`
}

// Query answers a range query. It returns an error for an unknown
// series or aggregator; an empty range is an empty result, not an error.
func (s *Store) Query(q Query) (*Result, error) {
	agg := q.Agg
	if agg == "" {
		agg = AggMean
	}
	switch agg {
	case AggMean, AggMin, AggMax, AggLast, AggSum, AggCount:
	default:
		return nil, fmt.Errorf("tsdb: unknown aggregator %q", q.Agg)
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	sr := s.series[q.Series]
	if sr == nil {
		return nil, fmt.Errorf("tsdb: unknown series %q", q.Series)
	}

	// Coarsest level that still meets the requested step. Levels are
	// finest-first, so keep upgrading while the next level fits.
	lvl := sr.levels[0]
	for _, l := range sr.levels[1:] {
		if q.Step >= l.spec.Bucket {
			lvl = l
		}
	}

	res := &Result{Series: q.Series, Agg: agg, Bucket: lvl.spec.Bucket}
	for _, b := range lvl.buckets() {
		if q.From != 0 && b.End < q.From {
			continue
		}
		if q.To != 0 && b.Start > q.To {
			continue
		}
		if q.FromCycle != 0 && b.Cycle < q.FromCycle {
			continue
		}
		if q.ToCycle != 0 && b.Cycle > q.ToCycle {
			continue
		}
		p := Point{
			Window: b.Start, End: b.End, Cycle: b.Cycle,
			Count: b.Count, Min: b.Min, Max: b.Max, Mean: b.Mean(), Last: b.Last,
		}
		switch agg {
		case AggMean:
			p.Value = p.Mean
		case AggMin:
			p.Value = b.Min
		case AggMax:
			p.Value = b.Max
		case AggLast:
			p.Value = b.Last
		case AggSum:
			p.Value = b.Sum
		case AggCount:
			p.Value = float64(b.Count)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
