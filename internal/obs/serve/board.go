package serve

import (
	"sort"
	"sync"
	"time"

	"powerchop/internal/obs"
)

// boardRow is the board's retained state for one run.
type boardRow struct {
	obs.RunUpdate
	started time.Time // wall clock at transition to simulating
	elapsed time.Duration
}

// Board aggregates obs.RunUpdates into a point-in-time JSON snapshot
// served at /progress. Updates are partial: zero-valued numeric fields
// leave the board's previous values in place, so a bare state
// transition does not erase the counts reported earlier. Safe for
// concurrent use.
type Board struct {
	mu   sync.Mutex
	rows map[string]*boardRow
	now  func() time.Time // test seam
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{rows: make(map[string]*boardRow), now: time.Now}
}

// Update merges one progress report into the board. Its method value
// is a runner progress callback.
func (b *Board) Update(u obs.RunUpdate) {
	key := u.Benchmark + "/" + u.Kind
	b.mu.Lock()
	defer b.mu.Unlock()
	row := b.rows[key]
	if row == nil {
		row = &boardRow{}
		b.rows[key] = row
	}
	prev := row.RunUpdate
	row.RunUpdate = u
	// Partial update: keep earlier progress numbers over zero values.
	if u.Cycles == 0 {
		row.Cycles = prev.Cycles
	}
	if u.Translations == 0 {
		row.Translations = prev.Translations
	}
	if u.Total == 0 {
		row.Total = prev.Total
	}
	if u.Windows == 0 {
		row.Windows = prev.Windows
	}
	switch u.State {
	case obs.StateSimulating:
		if row.started.IsZero() {
			row.started = b.now()
		}
	case obs.StateDone, obs.StateError:
		if u.Elapsed > 0 {
			row.elapsed = u.Elapsed
		} else if !row.started.IsZero() {
			row.elapsed = b.now().Sub(row.started)
		}
	}
}

// RunStatus is one row of a progress snapshot.
type RunStatus struct {
	obs.RunUpdate
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// ProgressSnapshot is the JSON document served at /progress.
type ProgressSnapshot struct {
	Runs   []RunStatus    `json:"runs"`
	Counts map[string]int `json:"counts"`
}

// Snapshot returns the board's current state, sorted by benchmark then
// kind, with per-state totals. In-flight runs report live elapsed time.
func (b *Board) Snapshot() ProgressSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := ProgressSnapshot{Counts: make(map[string]int)}
	for _, row := range b.rows {
		st := RunStatus{RunUpdate: row.RunUpdate}
		switch {
		case row.elapsed > 0:
			st.ElapsedSeconds = row.elapsed.Seconds()
		case row.State == obs.StateSimulating && !row.started.IsZero():
			st.ElapsedSeconds = b.now().Sub(row.started).Seconds()
		}
		snap.Runs = append(snap.Runs, st)
		snap.Counts[row.State]++
	}
	sort.Slice(snap.Runs, func(i, j int) bool {
		if snap.Runs[i].Benchmark != snap.Runs[j].Benchmark {
			return snap.Runs[i].Benchmark < snap.Runs[j].Benchmark
		}
		return snap.Runs[i].Kind < snap.Runs[j].Kind
	})
	return snap
}
