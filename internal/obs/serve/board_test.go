package serve

import (
	"encoding/json"
	"testing"
	"time"

	"powerchop/internal/obs"
)

func TestBoardLifecycle(t *testing.T) {
	b := NewBoard()
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	b.Update(obs.RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: obs.StateQueued, Total: 5000})
	b.Update(obs.RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: obs.StateSimulating})
	clock = clock.Add(2 * time.Second)
	b.Update(obs.RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: obs.StateSimulating,
		Cycles: 1e6, Translations: 2500})
	b.Update(obs.RunUpdate{Benchmark: "astar", Kind: "full-power", State: obs.StateQueued})

	snap := b.Snapshot()
	if len(snap.Runs) != 2 {
		t.Fatalf("runs = %d", len(snap.Runs))
	}
	// Sorted by benchmark: astar first.
	if snap.Runs[0].Benchmark != "astar" || snap.Runs[1].Benchmark != "mcf" {
		t.Fatalf("sort order: %+v", snap.Runs)
	}
	mcf := snap.Runs[1]
	// Partial update must not wipe the translation budget.
	if mcf.Total != 5000 || mcf.Translations != 2500 || mcf.Cycles != 1e6 {
		t.Errorf("mcf progress = %+v", mcf)
	}
	if mcf.ElapsedSeconds != 2 {
		t.Errorf("live elapsed = %v, want 2", mcf.ElapsedSeconds)
	}
	if snap.Counts[obs.StateQueued] != 1 || snap.Counts[obs.StateSimulating] != 1 {
		t.Errorf("counts = %v", snap.Counts)
	}

	clock = clock.Add(1 * time.Second)
	b.Update(obs.RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: obs.StateDone,
		Cycles: 2e6, Translations: 5000, Elapsed: 3 * time.Second})
	clock = clock.Add(time.Hour) // done rows keep their final elapsed
	snap = b.Snapshot()
	mcf = snap.Runs[1]
	if mcf.State != obs.StateDone || mcf.ElapsedSeconds != 3 {
		t.Errorf("done row = %+v", mcf)
	}

	b.Update(obs.RunUpdate{Benchmark: "astar", Kind: "full-power", State: obs.StateError, Err: "boom"})
	snap = b.Snapshot()
	if snap.Runs[0].State != obs.StateError || snap.Runs[0].Err != "boom" {
		t.Errorf("error row = %+v", snap.Runs[0])
	}
	if snap.Counts[obs.StateDone] != 1 || snap.Counts[obs.StateError] != 1 {
		t.Errorf("final counts = %v", snap.Counts)
	}
}

// TestBoardSharedBenchmarkCollision covers partial-update merging when
// several runs share a benchmark name: runs of different kinds must keep
// independent rows (no cross-contamination of progress numbers), while a
// re-run of the same (benchmark, kind) pair merges into its row.
func TestBoardSharedBenchmarkCollision(t *testing.T) {
	b := NewBoard()
	clock := time.Unix(2000, 0)
	b.now = func() time.Time { return clock }

	// Three kinds of the same benchmark, interleaved, as Compare produces.
	b.Update(obs.RunUpdate{Benchmark: "namd", Kind: "full-power", State: obs.StateSimulating, Total: 1000})
	b.Update(obs.RunUpdate{Benchmark: "namd", Kind: "powerchop", State: obs.StateSimulating, Total: 2000})
	b.Update(obs.RunUpdate{Benchmark: "namd", Kind: "full-power", State: obs.StateSimulating, Cycles: 5e5, Translations: 400})
	b.Update(obs.RunUpdate{Benchmark: "namd", Kind: "powerchop", State: obs.StateSimulating, Cycles: 1e5, Translations: 100, Windows: 7})
	b.Update(obs.RunUpdate{Benchmark: "namd", Kind: "min-power", State: obs.StateQueued})

	snap := b.Snapshot()
	if len(snap.Runs) != 3 {
		t.Fatalf("runs = %d, want 3 distinct rows for one benchmark", len(snap.Runs))
	}
	byKind := map[string]RunStatus{}
	for _, r := range snap.Runs {
		if r.Benchmark != "namd" {
			t.Fatalf("unexpected benchmark %q", r.Benchmark)
		}
		byKind[r.Kind] = r
	}
	fp, pc := byKind["full-power"], byKind["powerchop"]
	// Each kind's partial updates merged only with its own row.
	if fp.Total != 1000 || fp.Cycles != 5e5 || fp.Translations != 400 {
		t.Errorf("full-power row contaminated: %+v", fp)
	}
	if pc.Total != 2000 || pc.Cycles != 1e5 || pc.Translations != 100 {
		t.Errorf("powerchop row contaminated: %+v", pc)
	}
	if byKind["min-power"].State != obs.StateQueued {
		t.Errorf("min-power row = %+v", byKind["min-power"])
	}

	// A re-run of the same (benchmark, kind) merges into the existing
	// row: the bare state transition keeps the earlier numbers.
	clock = clock.Add(4 * time.Second)
	b.Update(obs.RunUpdate{Benchmark: "namd", Kind: "powerchop", State: obs.StateDone})
	snap = b.Snapshot()
	byKind = map[string]RunStatus{}
	for _, r := range snap.Runs {
		byKind[r.Kind] = r
	}
	pc = byKind["powerchop"]
	if pc.State != obs.StateDone || pc.Cycles != 1e5 || pc.Total != 2000 || pc.Windows != 7 {
		t.Errorf("done powerchop row lost progress: %+v", pc)
	}
	if pc.ElapsedSeconds != 4 {
		t.Errorf("elapsed = %v, want 4", pc.ElapsedSeconds)
	}
	// The sibling kinds are untouched by the completion.
	if byKind["full-power"].State != obs.StateSimulating || byKind["full-power"].Cycles != 5e5 {
		t.Errorf("full-power row perturbed by sibling completion: %+v", byKind["full-power"])
	}
	if snap.Counts[obs.StateDone] != 1 || snap.Counts[obs.StateSimulating] != 1 || snap.Counts[obs.StateQueued] != 1 {
		t.Errorf("counts = %v", snap.Counts)
	}
}

func TestBoardJSON(t *testing.T) {
	b := NewBoard()
	b.Update(obs.RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: obs.StateQueued})
	raw, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Benchmark string `json:"benchmark"`
			State     string `json:"state"`
		} `json:"runs"`
		Counts map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].State != obs.StateQueued || doc.Counts[obs.StateQueued] != 1 {
		t.Fatalf("json doc = %s", raw)
	}
}
