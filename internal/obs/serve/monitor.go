// Package serve is the live monitoring layer over the obs subsystem: an
// HTTP server exposing registry metrics in the Prometheus text format,
// runner progress as JSON, the raw event stream as SSE or NDJSON, and
// the standard pprof handlers — all on one mux. It is deliberately
// read-only with respect to the simulation: metrics are snapshotted,
// progress is reported through callbacks, and events reach clients via a
// bounded fan-out that drops rather than blocks.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powerchop/internal/obs"
	"powerchop/internal/obs/runlog"
	"powerchop/internal/obs/tsdb"
)

// Monitor bundles the monitoring endpoints:
//
//	GET /metrics    Prometheus text exposition of the registry
//	GET /progress   JSON snapshot of per-run progress
//	GET /events     live event stream (SSE; ?format=ndjson for NDJSON)
//	GET /decisions  decision-event stream; ?format=json for the audit trail
//	GET /alerts     alert-transition stream (SSE/NDJSON)
//	GET /api/alerts alert snapshot (404 until SetAlerts)
//	GET /api/metrics registry snapshot with histogram quantiles (JSON)
//	GET /api/series telemetry series discovery (404 until SetTelemetry)
//	GET /api/query  telemetry range queries over the attached tsdb store
//	GET /dash       live telemetry dashboard (HTML + SSE sparklines)
//	GET /api/runs   persistent run history (filterable, paginated JSON)
//	GET /runs       run-history board (plain text)
//	GET /healthz    liveness probe (always 200 while the process serves)
//	GET /readyz     readiness probe (503 until Start, and again once
//	                Shutdown begins draining)
//	GET /debug/pprof/...  standard profiling handlers
//
// Every endpoint — built-in or mounted via Mount — runs behind the
// request middleware: X-Request-Id generation/echo, a root "request"
// span, RED metrics in the registry, panic recovery, and structured
// access logging (see middleware.go).
type Monitor struct {
	mux   *http.ServeMux
	reg   *obs.Registry
	hub   *Hub
	board *Board

	ready   atomic.Bool
	access  atomic.Value // *slog.Logger
	spans   atomic.Value // tracerBox
	hubDrop *obs.Counter // registry mirror of hub.Dropped()

	mu        sync.Mutex
	srv       *http.Server
	ln        net.Listener
	done      chan struct{}
	decisions DecisionSource
	runs      *runlog.Store
	telemetry *tsdb.Store
	alerts    AlertSource
}

// DecisionSource supplies the decision-provenance snapshot behind
// GET /decisions?format=json. audit.Auditor implements it.
type DecisionSource interface {
	DecisionsJSON() ([]byte, error)
}

// NewMonitor builds a monitor over the given registry. A nil registry
// gets a private one, so the HTTP-layer metrics (RED instruments, the
// hub's drop counter) always have somewhere to live and /metrics is
// never empty.
func NewMonitor(reg *obs.Registry) *Monitor {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Monitor{
		mux:   http.NewServeMux(),
		reg:   reg,
		hub:   NewHub(),
		board: NewBoard(),
		done:  make(chan struct{}),
	}
	m.hubDrop = reg.Counter("serve.events.dropped")
	// Process health gauges live wherever a monitor scrapes: every
	// /metrics page carries them next to the simulation counters.
	obs.RegisterProcessMetrics(reg)
	// The default alert ruleset's liveness guard watches this: how many
	// runs the board currently reports simulating.
	reg.GaugeFunc("progress.simulating", func() float64 {
		return float64(m.board.Snapshot().Counts[obs.StateSimulating])
	})
	m.handle("GET /metrics", m.handleMetrics)
	m.handle("GET /progress", m.handleProgress)
	m.handle("GET /events", m.handleEvents)
	m.handle("GET /decisions", m.handleDecisions)
	m.handle("GET /alerts", m.handleAlertsStream)
	m.handle("GET /api/alerts", m.handleAlertsAPI)
	m.handle("GET /api/metrics", m.handleMetricsAPI)
	m.handle("GET /api/series", m.handleSeries)
	m.handle("GET /api/query", m.handleQuery)
	m.handle("GET /dash", m.handleDash)
	m.handle("GET /api/runs", m.handleRunsAPI)
	m.handle("GET /runs", m.handleRunsBoard)
	m.handle("GET /healthz", m.handleHealthz)
	m.handle("GET /readyz", m.handleReadyz)
	m.handle("GET /debug/pprof/", pprof.Index)
	m.handle("GET /debug/pprof/cmdline", pprof.Cmdline)
	m.handle("GET /debug/pprof/profile", pprof.Profile)
	m.handle("GET /debug/pprof/symbol", pprof.Symbol)
	m.handle("GET /debug/pprof/trace", pprof.Trace)
	m.handle("GET /{$}", m.handleIndex)
	return m
}

// Hub returns the monitor's event fan-out; attach it to a simulation as
// an obs.Tracer (typically via obs.Multi next to a Collector).
func (m *Monitor) Hub() *Hub { return m.hub }

// Board returns the monitor's progress board; its Update method is a
// runner progress callback.
func (m *Monitor) Board() *Board { return m.board }

// SetDecisions installs the source behind GET /decisions?format=json.
// A nil source makes the snapshot form answer 404 again; the live stream
// works either way.
func (m *Monitor) SetDecisions(src DecisionSource) {
	m.mu.Lock()
	m.decisions = src
	m.mu.Unlock()
}

// Handler returns the monitor as an http.Handler, for use without Start.
func (m *Monitor) Handler() http.Handler { return m.mux }

// SetRunLog installs the persistent run-history store behind
// GET /api/runs and /runs. A nil store makes both answer an empty
// history.
func (m *Monitor) SetRunLog(s *runlog.Store) {
	m.mu.Lock()
	m.runs = s
	m.mu.Unlock()
}

// RunLog returns the installed run-history store (nil when none).
func (m *Monitor) RunLog() *runlog.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

func (m *Monitor) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `powerchop monitor
  /metrics    Prometheus text exposition
  /progress   per-run progress (JSON)
  /events     live event stream (SSE; ?format=ndjson for NDJSON)
  /decisions  decision events only (SSE/NDJSON; ?format=json for audit trail)
  /alerts     alert-transition stream (SSE; ?format=ndjson for NDJSON)
  /api/alerts alert rules, states and transition history (JSON)
  /api/metrics registry snapshot with histogram quantiles (JSON)
  /api/series telemetry series discovery (JSON)
  /api/query  telemetry range query (?series=&from=&to=&step=&agg=)
  /dash       live telemetry dashboard (HTML)
  /api/runs   run history (JSON; ?kind=&name=&outcome=&limit=&offset=)
  /runs       run-history board (text)
  /healthz    liveness probe
  /readyz     readiness probe
  /debug/pprof/  profiling
`)
}

func (m *Monitor) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Reconcile the registered drop counter with the hub's atomic before
	// snapshotting, so the scrape sees the current total under its
	// canonical registry name (serve_events_dropped). Under m.mu so two
	// concurrent scrapes cannot double-apply the same delta.
	m.mu.Lock()
	if d := m.hub.Dropped(); d > m.hubDrop.Value() {
		m.hubDrop.Add(d - m.hubDrop.Value())
	}
	m.mu.Unlock()
	WriteMetrics(w, m.reg.Snapshot())
	// Subscriber count is a gauge, which the registry doesn't model;
	// exposed manually alongside.
	fmt.Fprintf(w, "# TYPE serve_event_subscribers gauge\nserve_event_subscribers %d\n", m.hub.Subscribers())
}

func (m *Monitor) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (m *Monitor) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !m.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// boardLinks cross-links the human-facing boards; every board and the
// /progress document carry them so each surface points at the others.
var boardLinks = []string{"/dash", "/runs", "/progress", "/api/alerts"}

func (m *Monitor) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	doc := struct {
		ProgressSnapshot
		AlertsFiring int      `json:"alerts_firing"`
		Boards       []string `json:"boards"`
	}{m.board.Snapshot(), m.alertsFiring(), boardLinks}
	b, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(b, '\n'))
}

// streamKeepalive is the idle keepalive period of the event streams: a
// comment frame (SSE) or blank line (NDJSON) flushed when no event has
// arrived, so proxies don't reap quiet connections and slow clients
// learn about drops promptly. The ticker lives for the handler's
// lifetime and is stopped on every exit path — client disconnect or
// monitor shutdown — so draining the monitor leaks nothing.
const streamKeepalive = 15 * time.Second

// streamEvents is the shared live-stream loop behind /events and
// /decisions: SSE framing by default, NDJSON with ?format=ndjson, an
// optional ?buffer= subscriber depth, in-band drop reporting, and a
// keepalive tick while idle. filter, when non-nil, selects which events
// reach the client. The stream ends when the client disconnects or the
// monitor shuts down.
func (m *Monitor) streamEvents(w http.ResponseWriter, r *http.Request, filter func(obs.Event) bool) {
	ndjson := r.URL.Query().Get("format") == "ndjson"
	buf := 0
	if s := r.URL.Query().Get("buffer"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			buf = n
		}
	}
	flusher, _ := w.(http.Flusher)
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	sub := m.hub.Subscribe(buf)
	defer sub.Close()
	keepalive := time.NewTicker(streamKeepalive)
	defer keepalive.Stop()
	var reported uint64
	reportDrops := func() bool {
		d := sub.Dropped()
		if d == reported {
			return false
		}
		reported = d
		if ndjson {
			fmt.Fprintf(w, "{\"dropped\":%d}\n", d)
		} else {
			fmt.Fprintf(w, ": dropped=%d\n\n", d)
		}
		return true
	}
	for {
		select {
		case e := <-sub.Events():
			if filter != nil && !filter(e) {
				continue
			}
			b, err := obs.MarshalEvent(e)
			if err != nil {
				continue
			}
			if ndjson {
				w.Write(append(b, '\n'))
			} else {
				fmt.Fprintf(w, "data: %s\n\n", b)
			}
			reportDrops()
			if flusher != nil {
				flusher.Flush()
			}
		case <-keepalive.C:
			if !reportDrops() {
				if ndjson {
					fmt.Fprint(w, "\n")
				} else {
					fmt.Fprint(w, ": keepalive\n\n")
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-m.done:
			return
		}
	}
}

// handleEvents streams the live event feed. The default framing is
// server-sent events (`data: <json>\n\n`); `?format=ndjson` switches to
// one JSON object per line. Events a slow client misses are dropped by
// the hub; the running drop count is reported in-band (an SSE comment,
// or a `{"dropped":n}` NDJSON line). The stream ends when the client
// disconnects or the monitor shuts down.
func (m *Monitor) handleEvents(w http.ResponseWriter, r *http.Request) {
	m.streamEvents(w, r, nil)
}

// handleDecisions serves decision provenance two ways. With
// ?format=json it returns the installed DecisionSource's full audit
// trail as one JSON document (404 when no source is installed). The
// default is a live stream like /events — SSE framing, ?format=ndjson
// for NDJSON, same drop reporting — filtered down to decision-path
// events (PVT hits/misses/evictions, CDE invocations, scores,
// registrations, profiling).
func (m *Monitor) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		m.mu.Lock()
		src := m.decisions
		m.mu.Unlock()
		if src == nil {
			http.Error(w, "no decision source attached", http.StatusNotFound)
			return
		}
		b, err := src.DecisionsJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(append(b, '\n'))
		return
	}
	m.streamEvents(w, r, func(e obs.Event) bool { return obs.IsDecisionKind(e.Kind) })
}

// Start listens on addr (":0" picks a free port) and serves in the
// background until Shutdown. The readiness probe flips to 200 once the
// listener is accepting.
func (m *Monitor) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.ln = ln
	m.srv = &http.Server{Handler: m.mux, ReadHeaderTimeout: 5 * time.Second}
	srv := m.srv
	m.mu.Unlock()
	m.ready.Store(true)
	go srv.Serve(ln)
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (m *Monitor) Addr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Shutdown drains the monitor gracefully: the readiness probe flips to
// 503 first (so load balancers stop routing), then every active event
// stream is released — each handler returns, closing its subscription
// and stopping its keepalive ticker — and finally the server itself
// shuts down. Safe to call more than once and without a prior Start.
func (m *Monitor) Shutdown(ctx context.Context) error {
	m.ready.Store(false)
	m.mu.Lock()
	select {
	case <-m.done:
	default:
		close(m.done) // release streaming handlers first, or Shutdown hangs
	}
	srv := m.srv
	m.srv = nil
	m.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}
