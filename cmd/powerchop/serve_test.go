package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/obs/serve"
)

// writeTestTrace writes a small two-window JSONL trace and returns its
// path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONL(w)
	sig := [obs.MaxSigIDs]uint32{0xaa}
	for _, e := range []obs.Event{
		{Kind: obs.KindWindowClose, Cycle: 1000, Window: 1, SigIDs: sig, SigN: 1, Count: 900},
		{Kind: obs.KindPVTMiss, Cycle: 1000, Window: 1, SigIDs: sig, SigN: 1},
		{Kind: obs.KindGate, Cycle: 1000, Window: 1, Unit: "VPU", Prev: 1, Next: 0.05, Stall: 30},
		{Kind: obs.KindWindowClose, Cycle: 2000, Window: 2, SigIDs: sig, SigN: 1, Count: 950},
		{Kind: obs.KindPVTHit, Cycle: 2000, Window: 2, SigIDs: sig, SigN: 1, Policy: 0xF},
	} {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdTraceTimeline(t *testing.T) {
	path := writeTestTrace(t)
	var out bytes.Buffer
	if err := cmdTrace([]string{"timeline", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"timeline: 2 windows", "VPU", "miss", "hit", "<taa>"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, out.String())
		}
	}
	// -last trims old windows.
	out.Reset()
	if err := cmdTrace([]string{"timeline", "-last", "1", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("timeline -last 1 did not trim:\n%s", out.String())
	}
	if err := cmdTrace([]string{"timeline"}, &out); err == nil {
		t.Error("timeline without a file accepted")
	}
}

func TestCmdTraceChrome(t *testing.T) {
	path := writeTestTrace(t)
	outPath := filepath.Join(t.TempDir(), "chrome.json")
	var out bytes.Buffer
	if err := cmdTrace([]string{"chrome", "-o", outPath, path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), outPath) {
		t.Errorf("chrome export did not report its output file: %q", out.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	// Default output is stdout.
	out.Reset()
	if err := cmdTrace([]string{"chrome", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "traceEvents") {
		t.Errorf("chrome stdout export: %q", out.String()[:min(80, out.Len())])
	}
}

func TestRunFlagsHTTP(t *testing.T) {
	a, err := runFlags("run", []string{"-bench", "gobmk", "-http", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if a.httpAddr != "127.0.0.1:0" {
		t.Fatalf("httpAddr = %q", a.httpAddr)
	}
}

// TestServeMonitorAPI exercises the serve subcommand's wiring without a
// real listener: API metadata endpoints, a cheap figure render, error
// paths, and /metrics conformance.
func TestServeMonitorAPI(t *testing.T) {
	l, err := newServeMonitor(0.02, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.mon.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/api/figures")
	if code != http.StatusOK || !strings.Contains(body, "fig12") {
		t.Fatalf("/api/figures: %d %q", code, body)
	}
	code, body = get("/api/benchmarks")
	if code != http.StatusOK || !strings.Contains(body, "gobmk") {
		t.Fatalf("/api/benchmarks: %d", code)
	}
	// table1 renders without simulating, so it is cheap.
	code, body = get("/api/figure?id=table1")
	if code != http.StatusOK || !strings.Contains(body, "Table I") {
		t.Fatalf("/api/figure?id=table1: %d %q", code, body)
	}
	if code, _ = get("/api/figure"); code != http.StatusBadRequest {
		t.Fatalf("missing id: %d", code)
	}
	if code, _ = get("/api/figure?id=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}
	if code, _ = get("/api/run"); code != http.StatusBadRequest {
		t.Fatalf("missing bench: %d", code)
	}
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if err := serve.CheckExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics nonconformant: %v\n%s", err, body)
	}
	code, body = get("/progress")
	if code != http.StatusOK || !strings.Contains(body, "runs") {
		t.Fatalf("/progress: %d %q", code, body)
	}
}

// TestServeAPIRun runs a real (tiny) benchmark through /api/run and
// /api/explain and checks the report comes back, the board's done rows
// carry their window counts, and the explain response is the trail in
// the schema /decisions?format=json serves on the same monitor.
func TestServeAPIRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark; skipped with -short")
	}
	l, err := newServeMonitor(0.02, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.mon.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}

	var rep struct {
		Benchmark string
		Cycles    float64
	}
	if err := json.Unmarshal(get("/api/run?bench=namd"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "namd" || rep.Cycles <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	snap := l.mon.Board().Snapshot()
	if len(snap.Runs) == 0 || snap.Counts[obs.StateDone] == 0 {
		t.Fatalf("board after /api/run: %+v", snap)
	}
	var progress struct {
		Runs []map[string]any `json:"runs"`
	}
	if err := json.Unmarshal(get("/progress"), &progress); err != nil {
		t.Fatal(err)
	}
	for _, row := range progress.Runs {
		if w, _ := row["windows"].(float64); row["state"] == obs.StateDone && w <= 0 {
			t.Errorf("/progress done row without windows: %v", row)
		}
	}

	explained := jsonKeys(t, get("/api/explain?bench=namd"))
	snapshot := jsonKeys(t, get("/decisions?format=json"))
	// The per-run auditor owns its registry and embeds the histograms;
	// the monitor's auditor files them in the monitor's registry.
	for k := range explained {
		if k == "metrics" || strings.HasPrefix(k, "metrics.") {
			delete(explained, k)
		}
	}
	for _, want := range []string{"clock_hz", "units", "decisions[].policy_str", "phases[].policy"} {
		if !explained[want] {
			t.Errorf("/api/explain lacks %q", want)
		}
	}
	for k := range explained {
		if !snapshot[k] {
			t.Errorf("/api/explain key %q missing from /decisions?format=json", k)
		}
	}
	for k := range snapshot {
		if !explained[k] {
			t.Errorf("/decisions?format=json key %q missing from /api/explain", k)
		}
	}
}

// jsonKeys returns every key path of a JSON document: object keys
// joined by dots, array elements merged under "[]".
func jsonKeys(t *testing.T, doc []byte) map[string]bool {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, doc)
	}
	keys := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				path := k
				if prefix != "" {
					path = prefix + "." + k
				}
				keys[path] = true
				walk(path, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", v)
	return keys
}
