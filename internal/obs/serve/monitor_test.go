package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powerchop/internal/obs"
)

func testMonitor(t *testing.T) (*Monitor, string) {
	t.Helper()
	m := NewMonitor(goldenRegistry())
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	return m, srv.URL
}

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestMonitorMetrics(t *testing.T) {
	_, url := testMonitor(t)
	body, resp := get(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content-type %q", ct)
	}
	if err := CheckExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics fails conformance: %v\n%s", err, body)
	}
	for _, want := range []string{"events_total 42", "window_insns_bucket{le=\"+Inf\"} 5",
		"serve_events_dropped 0", "serve_event_subscribers 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMonitorProgress(t *testing.T) {
	m, url := testMonitor(t)
	m.Board().Update(obs.RunUpdate{Benchmark: "mcf", Kind: "powerchop", State: obs.StateSimulating})
	body, resp := get(t, url+"/progress")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content-type %q", ct)
	}
	var doc ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].State != obs.StateSimulating {
		t.Fatalf("progress doc: %+v", doc)
	}
}

func TestMonitorIndexAndPprof(t *testing.T) {
	_, url := testMonitor(t)
	body, resp := get(t, url+"/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", resp.StatusCode, body)
	}
	body, resp = get(t, url+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	_, resp = get(t, url+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", resp.StatusCode)
	}
}

// streamLines GETs url and sends each received line on the returned
// channel until the body closes.
func streamLines(t *testing.T, ctx context.Context, url string) (<-chan string, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	return lines, func() { resp.Body.Close() }
}

// waitLine receives lines until one satisfies pred, failing on timeout or
// stream end.
func waitLine(t *testing.T, lines <-chan string, what string, pred func(string) bool) string {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended before %s", what)
			}
			if pred(line) {
				return line
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// emitUntil keeps emitting e until stop is closed, so a streaming client
// racing with subscription setup still observes events.
func emitUntil(m *Monitor, e obs.Event) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
				m.Hub().Emit(e)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	return func() { close(done); <-finished }
}

func TestMonitorEventsSSE(t *testing.T) {
	m, url := testMonitor(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, closeBody := streamLines(t, ctx, url+"/events")
	defer closeBody()

	stop := emitUntil(m, obs.Event{Kind: obs.KindPVTHit, Cycle: 42, Window: 7})
	line := waitLine(t, lines, "an SSE data frame", func(s string) bool {
		return strings.HasPrefix(s, "data: ")
	})
	stop()
	var e struct {
		Kind   string  `json:"kind"`
		Cycle  float64 `json:"cycle"`
		Window uint64  `json:"window"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
		t.Fatalf("SSE payload not JSON: %v (%q)", err, line)
	}
	if e.Kind != "pvt-hit" || e.Cycle != 42 || e.Window != 7 {
		t.Fatalf("SSE event = %+v", e)
	}

	// Client cancel ends the stream and detaches the subscriber.
	cancel()
	for range lines {
	}
	waitFor(t, "subscriber detach", func() bool { return m.Hub().Subscribers() == 0 })
}

func TestMonitorEventsNDJSON(t *testing.T) {
	m, url := testMonitor(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, closeBody := streamLines(t, ctx, url+"/events?format=ndjson")
	defer closeBody()

	stop := emitUntil(m, obs.Event{Kind: obs.KindGate, Unit: "VPU"})
	defer stop()
	line := waitLine(t, lines, "an NDJSON event", func(s string) bool {
		return strings.Contains(s, `"kind"`)
	})
	var e struct {
		Kind string `json:"kind"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("NDJSON line not JSON: %v (%q)", err, line)
	}
	if e.Kind != "gate" || e.Unit != "VPU" {
		t.Fatalf("NDJSON event = %+v", e)
	}
}

// TestMonitorEventsDropReporting forces a tiny subscriber buffer, floods
// it, and checks the in-band drop report shows up.
func TestMonitorEventsDropReporting(t *testing.T) {
	m, url := testMonitor(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, closeBody := streamLines(t, ctx, url+"/events?format=ndjson&buffer=1")
	defer closeBody()

	// Flood in bursts so the one-slot buffer is full on most emits.
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
				for i := 0; i < 100; i++ {
					m.Hub().Emit(obs.Event{Kind: obs.KindTranslate})
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer func() { close(done); <-finished }()
	waitLine(t, lines, "a drop report", func(s string) bool {
		return strings.Contains(s, `"dropped"`) && !strings.Contains(s, `"kind"`)
	})
	if m.Hub().Dropped() == 0 {
		t.Error("hub recorded no drops despite in-band report")
	}
}

// TestMonitorShutdownUnblocksStreams starts a real listener, attaches a
// streaming client, and checks Shutdown completes promptly even though
// the stream would otherwise run forever.
func TestMonitorShutdownUnblocksStreams(t *testing.T) {
	m := NewMonitor(nil)
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := m.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	url := fmt.Sprintf("http://%s/events", addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, closeBody := streamLines(t, ctx, url)
	defer closeBody()
	waitFor(t, "stream subscription", func() bool { return m.Hub().Subscribers() == 1 })

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := m.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not complete: %v", err)
	}
	for range lines { // stream must terminate
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
