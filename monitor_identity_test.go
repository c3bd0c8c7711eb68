package powerchop

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/obs/alert"
	"powerchop/internal/obs/audit"
	"powerchop/internal/obs/runlog"
	"powerchop/internal/obs/serve"
	"powerchop/internal/obs/span"
	"powerchop/internal/obs/tsdb"
)

// lockedWriter serializes concurrent access-log writes from handler
// goroutines.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// observedRender is the figure set rendered with the whole
// observability layer attached, and what the monitor served once the
// render finished.
type observedRender struct {
	figures []byte
	// Bodies of /metrics, /decisions?format=json, /progress, /api/runs,
	// /api/series, /api/query and /api/alerts after the render.
	metrics, decisions, progress, runs, series, query, alerts []byte

	spanID     uint64 // the render's root span
	requestID  string
	alertRules int // rules the evaluator ran
	accessLog  string
}

// observedFigures renders the observed figure set once per test
// process: the monitor and decision-provenance identity tests both
// check the one render.
var observedFigures = sync.OnceValues(renderObserved)

// renderObserved renders the full figure set at smoke scale with every
// observer attached — metrics collector, the decision auditor with its
// histograms in the collector's registry, progress board, live SSE
// clients on /events and /decisions, telemetry time-series ingest with a
// live /api/query polling client, request spans, a run-history store,
// structured access logging, and a ticking alert evaluator over the
// default ruleset — then reads the monitor's surfaces and shuts it down.
func renderObserved() (run *observedRender, err error) {
	collector := obs.NewCollector()
	auditCfg := audit.DesignConfig(arch.Server())
	auditCfg.Registry = collector.Registry()
	auditor := audit.MustNew(auditCfg)
	mon := serve.NewMonitor(collector.Registry())
	mon.SetDecisions(auditor)
	access := &lockedWriter{}
	mon.SetAccessLog(slog.New(slog.NewJSONHandler(access, nil)))
	store := runlog.Memory()
	mon.SetRunLog(store)
	if err := mon.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		// Drop the client's pooled keep-alives first: the Transport can
		// park a race-dialed connection that never carried a request, and
		// the server treats such a StateNew conn as busy for its first 5s
		// (net/http issue 22682), which would stall Shutdown right up to
		// the deadline.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if serr := mon.Shutdown(ctx); serr != nil && err == nil {
			run, err = nil, fmt.Errorf("shutdown: %w", serr)
		}
	}()
	base := "http://" + mon.Addr()

	// Live SSE clients consuming (and possibly dropping) events and
	// decisions while the figures render.
	clientCtx, stopClient := context.WithCancel(context.Background())
	defer stopClient()
	var clients sync.WaitGroup
	for _, path := range []string{"/events", "/decisions"} {
		req, err := http.NewRequestWithContext(clientCtx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		clients.Add(1)
		go func() {
			defer clients.Done()
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
		}()
	}
	clientDone := make(chan struct{})
	go func() {
		clients.Wait()
		close(clientDone)
	}()

	// Telemetry rides the same fan-out: per-window series ingest into a
	// live store queried over HTTP while the figures render.
	telemetry := tsdb.NewStore(tsdb.DefaultConfig())
	ingest := tsdb.NewIngestor(telemetry, tsdb.IngestorConfig{
		Units: []string{arch.UnitBPU, arch.UnitMLC, arch.UnitVPU},
	})
	mon.SetTelemetry(telemetry)
	pollCtx, stopPoll := context.WithCancel(context.Background())
	defer stopPoll()
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for pollCtx.Err() == nil {
			for _, path := range []string{
				"/api/series",
				"/api/query?series=" + tsdb.SeriesInsns,
			} {
				req, err := http.NewRequestWithContext(pollCtx, http.MethodGet, base+path, nil)
				if err != nil {
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue // series may not exist yet; keep polling
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			select {
			case <-pollCtx.Done():
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()

	// The alert evaluator rides along as one more pure observer: the
	// default ruleset over the live store and registry, ticking fast,
	// feeding its transitions back into the hub the SSE client drains.
	// A synthetic always-true rule guarantees transitions actually fire
	// during the render — identity must hold with alerting active, not
	// just attached.
	alertRules := append(alert.DefaultRules(), alert.Rule{
		Name: "identity-synthetic",
		Expr: alert.Expr{Series: "window.insns", Agg: "count", Window: 8, Op: ">", Threshold: 0},
	})
	alertEv, err := alert.New(alert.Config{
		Rules:    alertRules,
		Store:    telemetry,
		Metrics:  collector.Registry().Snapshot,
		Sink:     mon.Hub(),
		Registry: collector.Registry(),
	})
	if err != nil {
		return nil, err
	}
	mon.SetAlerts(alertEv)
	stopAlerts := alertEv.Start(5 * time.Millisecond)
	defer stopAlerts()

	tracer := obs.Multi(collector, auditor, ingest, mon.Hub())
	observed := NewFigureRunner(0.02, WithJobs(4),
		WithTracer(tracer),
		WithProgress(mon.Board().Update))
	// The render runs under a root span, so every sweep, benchmark and
	// sim span rides the same event stream the SSE client is draining.
	run = &observedRender{requestID: span.NewRequestID(), alertRules: len(alertRules)}
	ctx, root := span.Root(context.Background(), tracer, "request", run.requestID, "route=test")
	var live bytes.Buffer
	renderErr := observed.RenderAllContext(ctx, &live)
	root.EndErr(renderErr)
	if renderErr != nil {
		return nil, renderErr
	}
	run.figures, run.spanID = live.Bytes(), root.ID()
	if err := store.Append(runlog.Record{
		Kind: "all", Name: "all", SpanID: run.spanID, RequestID: run.requestID,
	}); err != nil {
		return nil, err
	}

	for _, s := range []struct {
		body *[]byte
		path string
	}{
		{&run.metrics, "/metrics"},
		{&run.decisions, "/decisions?format=json"},
		{&run.progress, "/progress"},
		{&run.runs, "/api/runs"},
	} {
		if *s.body, err = fetch(base + s.path); err != nil {
			return nil, err
		}
	}

	// The telemetry surface is read once its polling client has stopped.
	stopPoll()
	select {
	case <-pollDone:
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("telemetry polling client did not terminate after cancel")
	}
	if run.series, err = fetch(base + "/api/series"); err != nil {
		return nil, err
	}
	if run.query, err = fetch(base + "/api/query?series=" + tsdb.SeriesInsns); err != nil {
		return nil, err
	}

	// The alert snapshot is read once the evaluator has stopped ticking.
	stopAlerts()
	if run.alerts, err = fetch(base + "/api/alerts"); err != nil {
		return nil, err
	}
	run.accessLog = access.String()

	stopClient()
	select {
	case <-clientDone:
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("SSE clients did not terminate after cancel")
	}
	return run, nil
}

// TestMonitorAttachedByteIdentical is the live-monitoring determinism
// gate: rendering the full figure set with the whole observability layer
// attached (renderObserved) must be byte-identical to an unobserved
// render, and every monitor surface must hold up after it. Observation
// is pure; it may never perturb simulation results.
func TestMonitorAttachedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure renders are slow; skipped with -short")
	}
	if raceEnabled {
		t.Skip("two full figure renders under the race detector are too slow; " +
			"monitor concurrency is race-tested in internal/obs/serve")
	}
	run, err := observedFigures()
	if err != nil {
		t.Fatal(err)
	}

	requirePlainFigures(t, "monitored", run.figures)

	// The scrape surface must hold up after a real run: /metrics passes
	// the Prometheus text-format conformance check over HTTP, and
	// /progress saw the runs complete.
	if err := serve.CheckExposition(run.metrics); err != nil {
		t.Fatalf("/metrics nonconformant after run: %v", err)
	}
	if !bytes.Contains(run.metrics, []byte("events_total")) {
		t.Error("/metrics missing events_total after a traced run")
	}
	if !bytes.Contains(run.progress, []byte(`"`+StateDone+`"`)) {
		t.Errorf("/progress has no completed runs:\n%s", run.progress)
	}

	// The run history lists the render, correlated by span and request ID.
	var runsDoc struct {
		Runs []runlog.Record `json:"runs"`
	}
	if err := json.Unmarshal(run.runs, &runsDoc); err != nil {
		t.Fatalf("/api/runs not JSON: %v", err)
	}
	if len(runsDoc.Runs) != 1 || runsDoc.Runs[0].SpanID != run.spanID || runsDoc.Runs[0].RequestID != run.requestID {
		t.Errorf("/api/runs after render: %+v", runsDoc.Runs)
	}

	// The telemetry surface filled from the same event stream: the series
	// catalog is non-empty and a range query answers with real windows.
	var seriesDoc struct {
		Series []tsdb.SeriesInfo `json:"series"`
	}
	if err := json.Unmarshal(run.series, &seriesDoc); err != nil {
		t.Fatalf("/api/series not JSON: %v", err)
	}
	if len(seriesDoc.Series) == 0 {
		t.Fatal("/api/series empty after a telemetry-attached render")
	}
	var queryDoc tsdb.Result
	if err := json.Unmarshal(run.query, &queryDoc); err != nil {
		t.Fatalf("/api/query not JSON: %v", err)
	}
	if len(queryDoc.Points) == 0 {
		t.Fatalf("/api/query returned no points for %s", tsdb.SeriesInsns)
	}

	// The alert evaluator saw the run: /api/alerts serves its snapshot
	// with every rule evaluated at the final boundary, and the synthetic
	// rule actually fired mid-render — the identity above held with
	// alerting active, not merely attached.
	var alertsDoc struct {
		Rules      []json.RawMessage `json:"rules"`
		LastWindow uint64            `json:"last_window"`
		FiredTotal uint64            `json:"fired_total"`
	}
	if err := json.Unmarshal(run.alerts, &alertsDoc); err != nil {
		t.Fatalf("/api/alerts not JSON: %v", err)
	}
	if len(alertsDoc.Rules) != run.alertRules || alertsDoc.LastWindow == 0 {
		t.Errorf("/api/alerts after render: %d rules, last_window %d",
			len(alertsDoc.Rules), alertsDoc.LastWindow)
	}
	if alertsDoc.FiredTotal == 0 {
		t.Error("synthetic rule never fired during the render")
	}

	// Every scrape above left a structured access-log line carrying its
	// request ID.
	if !strings.Contains(run.accessLog, `"msg":"request"`) ||
		!strings.Contains(run.accessLog, `"request_id"`) {
		t.Errorf("access log missing request lines:\n%s", run.accessLog)
	}
}

// TestMonitorEventsLiveDuringRun checks the SSE stream actually carries
// simulator events while a run executes, end to end over HTTP.
func TestMonitorEventsLiveDuringRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark; skipped with -short")
	}
	mon := serve.NewMonitor(nil)
	if err := mon.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		mon.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+mon.Addr()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type frame struct {
		line string
		err  error
	}
	frames := make(chan frame, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			frames <- frame{line: sc.Text()}
		}
		frames <- frame{err: sc.Err()}
	}()

	if _, err := Run("namd", Options{Passes: 0.25, Tracer: mon.Hub()}); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case f := <-frames:
			if f.err != nil {
				t.Fatalf("stream ended without a data frame: %v", f.err)
			}
			if strings.HasPrefix(f.line, "data: ") && strings.Contains(f.line, `"kind"`) {
				return // saw a live event frame
			}
		case <-ctx.Done():
			t.Fatal("no SSE data frame observed during the run")
		}
	}
}

// fetch GETs url and returns its body, failing on any status but 200.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body, nil
}
