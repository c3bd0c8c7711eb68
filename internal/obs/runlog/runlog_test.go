package runlog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAppendListRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Persistent() {
		t.Fatal("Open store should be persistent")
	}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i, r := range []Record{
		{Kind: "run", Name: "namd", Params: "manager=powerchop", DurationMS: 120, SpanID: 1},
		{Kind: "figure", Name: "fig12", DurationMS: 4000, CacheHits: 3, CacheMisses: 1},
		{Kind: "run", Name: "gobmk", Error: "boom"},
	} {
		r.Time = base.Add(time.Duration(i) * time.Minute)
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	recs, corrupt, err := s.List(Filter{})
	if err != nil || corrupt != 0 {
		t.Fatalf("List: err=%v corrupt=%d", err, corrupt)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Newest first.
	if recs[0].Name != "gobmk" || recs[2].Name != "namd" {
		t.Fatalf("order wrong: %q ... %q", recs[0].Name, recs[2].Name)
	}
	// Outcome normalization.
	if recs[0].Outcome != "error" || recs[1].Outcome != "ok" {
		t.Fatalf("outcomes: %q / %q", recs[0].Outcome, recs[1].Outcome)
	}
	if recs[2].SpanID != 1 || recs[1].CacheHits != 3 {
		t.Fatal("fields did not round-trip")
	}

	// Filters.
	runs, _, _ := s.List(Filter{Kind: "run"})
	if len(runs) != 2 {
		t.Fatalf("Kind filter: %d, want 2", len(runs))
	}
	errs, _, _ := s.List(Filter{Outcome: "error"})
	if len(errs) != 1 || errs[0].Name != "gobmk" {
		t.Fatalf("Outcome filter wrong: %+v", errs)
	}
	paged, _, _ := s.List(Filter{Offset: 1, Limit: 1})
	if len(paged) != 1 || paged[0].Name != "fig12" {
		t.Fatalf("pagination wrong: %+v", paged)
	}

	// Persistence across reopen — the restart-survival property.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := s2.List(Filter{})
	if err != nil || len(again) != 3 {
		t.Fatalf("reopened store: %d records, err=%v", len(again), err)
	}
}

func TestCorruptLinesSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Kind: "run", Name: "a"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{not json\n\n{\"no_kind\":true}\n")
	f.Close()
	if err := s.Append(Record{Kind: "run", Name: "b"}); err != nil {
		t.Fatal(err)
	}

	recs, corrupt, err := s.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 2 {
		t.Errorf("corrupt = %d, want 2 (bad JSON + missing kind; blank line ignored)", corrupt)
	}
	if len(recs) != 2 || recs[0].Name != "b" || recs[1].Name != "a" {
		t.Fatalf("good records wrong: %+v", recs)
	}
}

func TestMemoryStore(t *testing.T) {
	s := Memory()
	if s.Persistent() || s.Path() != "" {
		t.Fatal("memory store claims persistence")
	}
	for i := 0; i < 5; i++ {
		if err := s.Append(Record{Kind: "run", Name: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	all, _, err := s.List(Filter{})
	if err != nil || len(all) != 5 {
		t.Fatalf("List = %d records, err=%v", len(all), err)
	}
	recs, _, _ := s.List(Filter{Limit: 2})
	if len(recs) != 2 {
		t.Fatalf("Limit ignored: %d", len(recs))
	}
}

func TestOpenLazyFileCreation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path()); !os.IsNotExist(err) {
		t.Fatal("journal file should not exist before first Append")
	}
	recs, corrupt, err := s.List(Filter{})
	if err != nil || corrupt != 0 || len(recs) != 0 {
		t.Fatal("empty store should List cleanly")
	}
	if err := s.Append(Record{Kind: "run", Name: "n"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatal("journal lines must be newline-terminated")
	}
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	if err := s.Append(Record{Kind: "run"}); err != nil {
		t.Fatal(err)
	}
	recs, corrupt, err := s.List(Filter{})
	if err != nil || corrupt != 0 || recs != nil {
		t.Fatal("nil store should List empty")
	}
}
