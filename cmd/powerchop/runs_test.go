package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"powerchop/internal/obs/runlog"
	"powerchop/internal/obs/serve"
)

// seedHistory journals a few records into dir as a prior process would.
func seedHistory(t *testing.T, dir string) {
	t.Helper()
	base := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	recordHistory(dir, "run", "namd", "manager=powerchop passes=2", base, nil, nil)
	recordHistory(dir, "figure", "fig12", "scale=1", base, nil, nil)
	recordHistory(dir, "run", "gobmk", "manager=timeout passes=2", base, nil, errors.New("boom"))
}

// TestCmdRunsList covers the restart-survival path: records journaled by
// one "process" (recordHistory) are listed by a fresh `powerchop runs`
// invocation reading the same cache dir.
func TestCmdRunsList(t *testing.T) {
	dir := t.TempDir()
	seedHistory(t, dir)

	var out bytes.Buffer
	if err := cmdRuns([]string{"-cache", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"namd", "fig12", "gobmk", "error: boom", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("runs list missing %q:\n%s", want, out.String())
		}
	}

	// Filters narrow the listing.
	out.Reset()
	if err := cmdRuns([]string{"list", "-cache", dir, "-kind", "run", "-outcome", "ok"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "namd") || strings.Contains(out.String(), "fig12") {
		t.Errorf("filtered list wrong:\n%s", out.String())
	}

	// -json emits machine-readable records.
	out.Reset()
	if err := cmdRuns([]string{"-cache", dir, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var recs []runlog.Record
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("runs -json not JSON: %v\n%s", err, out.String())
	}
	if len(recs) != 3 || recs[0].Name != "gobmk" {
		t.Fatalf("json records: %+v", recs)
	}

	// Without a cache dir the command is a usage error, not a panic.
	t.Setenv("POWERCHOP_CACHE", "")
	if err := cmdRuns(nil, &out); err == nil {
		t.Error("runs without -cache accepted")
	}
}

func TestCmdRunsShow(t *testing.T) {
	dir := t.TempDir()
	seedHistory(t, dir)

	var out bytes.Buffer
	if err := cmdRuns([]string{"show", "-cache", dir, "-name", "namd"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kind:", "run", "params:", "manager=powerchop", "outcome:", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("runs show missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := cmdRuns([]string{"show", "-cache", dir, "-json", "-outcome", "error"}, &out); err != nil {
		t.Fatal(err)
	}
	var rec runlog.Record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "gobmk" || rec.Error != "boom" {
		t.Fatalf("show -json record: %+v", rec)
	}
	if err := cmdRuns([]string{"show", "-cache", dir, "-name", "nonexistent"}, &out); err == nil {
		t.Error("show with no match succeeded")
	}
}

// TestRunsRowOneZone checks that `powerchop runs` and the /runs board
// print a record written at a non-local offset as the same UTC time.
func TestRunsRowOneZone(t *testing.T) {
	finished := time.Date(2026, 8, 8, 23, 30, 0, 0, time.UTC)
	_, local := finished.In(time.Local).Zone()
	written := finished.In(time.FixedZone("elsewhere", local+5*3600+1800))
	want := "2026-08-08 23:30:00"

	dir := t.TempDir()
	store, err := runlog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(runlog.Record{Time: written, Kind: "run", Name: "namd"}); err != nil {
		t.Fatal(err)
	}

	var cli bytes.Buffer
	if err := cmdRuns([]string{"-cache", dir}, &cli); err != nil {
		t.Fatal(err)
	}
	m := serve.NewMonitor(nil)
	defer m.Shutdown(context.Background())
	m.SetRunLog(store)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	board, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	for surface, out := range map[string]string{"runs list": cli.String(), "/runs": string(board)} {
		if !strings.Contains(out, want) {
			t.Errorf("%s does not show the record at %s UTC:\n%s", surface, want, out)
		}
	}
}

// TestRunsTailFollows checks tail prints the seeded records, picks up
// records appended while it is following, and honors its filter.
func TestRunsTailFollows(t *testing.T) {
	dir := t.TempDir()
	seedHistory(t, dir)
	store, err := runlog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	var out syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- runsTail(store, runlog.Filter{Kind: "run", Outcome: "ok", Limit: 10}, false, &out, stop, 5*time.Millisecond)
	}()
	waitOutput(t, &out, "namd")

	// Appends made mid-follow show up when they match the filter; those
	// of another kind or outcome do not. The matching record goes last,
	// so once it prints every earlier append has been scanned.
	for _, rec := range []runlog.Record{
		{Kind: "figure", Name: "off-kind"},
		{Kind: "run", Name: "off-outcome", Error: "boom"},
		{Kind: "run", Name: "late-arrival"},
	} {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	waitOutput(t, &out, "late-arrival")

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, off := range []string{"off-kind", "fig12", "off-outcome", "gobmk"} {
		if strings.Contains(s, off) {
			t.Errorf("tail printed %s, outside its kind and outcome filter:\n%s", off, s)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for cross-goroutine writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func waitOutput(t *testing.T, b *syncBuffer, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(b.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q in tail output:\n%s", want, b.String())
		}
		time.Sleep(time.Millisecond)
	}
}
