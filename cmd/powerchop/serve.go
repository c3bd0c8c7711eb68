package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powerchop"
	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/obs/alert"
	"powerchop/internal/obs/audit"
	"powerchop/internal/obs/runlog"
	"powerchop/internal/obs/serve"
	"powerchop/internal/obs/span"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/rescache"
)

// liveMonitor bundles a serve.Monitor with the tracer that feeds it,
// ready to plug into powerchop.Options or FigureRunner options next to
// the board's Update method as the progress callback.
type liveMonitor struct {
	mon       *serve.Monitor
	tracer    obs.Tracer
	reg       *obs.Registry
	telemetry *tsdb.Store
}

// newLiveMonitor builds a monitor over a fresh metrics collector: the
// returned tracer fans events out to the collector (backing /metrics),
// a decision-provenance auditor (backing /decisions?format=json), a
// telemetry ingestor (backing /api/series, /api/query and /dash) and
// the monitor's hub (backing /events and the /decisions stream). The
// shared auditor prices savings at the server design point; runs on
// other designs still stream correctly, their attributed joules are
// just scaled by the server leakage budget (per-run exact attribution
// comes from 'powerchop explain').
func newLiveMonitor() *liveMonitor {
	collector := obs.NewCollector()
	mon := serve.NewMonitor(collector.Registry())
	cfg := audit.DesignConfig(arch.Server())
	cfg.Registry = collector.Registry()
	auditor := audit.MustNew(cfg)
	mon.SetDecisions(auditor)
	store := tsdb.NewStore(tsdb.DefaultConfig())
	mon.SetTelemetry(store)
	return &liveMonitor{
		mon:       mon,
		tracer:    obs.Multi(collector, auditor, store.Ingestor(), mon.Hub()),
		reg:       collector.Registry(),
		telemetry: store,
	}
}

// registry exposes the monitor's metrics registry so extra instrument
// sources (the result cache's counters) can surface on /metrics.
func (l *liveMonitor) registry() *obs.Registry { return l.reg }

// start listens on addr and prints where the endpoints live.
func (l *liveMonitor) start(addr string, stderr io.Writer) error {
	if err := l.mon.Start(addr); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "monitor listening on http://%s (/metrics /progress /events /decisions /dash /debug/pprof)\n", l.mon.Addr())
	return nil
}

// stop shuts the monitor down, bounding the drain.
func (l *liveMonitor) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l.mon.Shutdown(ctx)
}

// withMonitor starts a monitor on addr (when non-empty), wires it into
// the options via hook, runs f, and shuts the monitor down afterwards.
func withMonitor(addr string, stderr io.Writer, hook func(*liveMonitor), f func() error) error {
	if addr == "" {
		return f()
	}
	l := newLiveMonitor()
	hook(l)
	if err := l.start(addr, stderr); err != nil {
		return err
	}
	defer l.stop()
	return f()
}

// apiRecorder journals completed API work into the monitor's run
// history: duration, cache hit/miss deltas over the request, and the
// request's span and request IDs, so /api/runs and `powerchop runs`
// correlate with access logs and traces.
type apiRecorder struct {
	store *runlog.Store
	cache *rescache.Cache
}

// begin snapshots the clock and cache counters; the returned func
// journals the record once the work's outcome is known.
func (a *apiRecorder) begin(r *http.Request, kind, name, params string) func(error) {
	if a == nil || a.store == nil {
		return func(error) {}
	}
	start := time.Now()
	var before rescache.Stats
	if a.cache != nil {
		before = a.cache.Stats()
	}
	return func(runErr error) {
		rec := runlog.Record{
			Kind:       kind,
			Name:       name,
			Params:     params,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		}
		if sp := span.FromContext(r.Context()); sp != nil {
			rec.SpanID = sp.ID()
			rec.RequestID = sp.RequestID()
		}
		if a.cache != nil {
			after := a.cache.Stats()
			rec.CacheHits = after.Hits - before.Hits
			rec.CacheMisses = after.Misses - before.Misses
		}
		if runErr != nil {
			rec.Error = runErr.Error()
		}
		a.store.Append(rec)
	}
}

// mountAPI adds the serve subcommand's /api tree to the monitor's mux:
//
//	GET /api/benchmarks      benchmark names and suites
//	GET /api/policies        registered gating policies and parameter schemas
//	GET /api/figures         figure ids and titles
//	GET /api/figure?id=ID    render one figure (text; simulates on demand)
//	GET /api/headline        per-suite headline averages (JSON)
//	GET /api/run?bench=NAME[&manager=M]  simulate one benchmark (JSON report)
//	GET /api/explain?bench=NAME[&manager=M]  simulate with audit on, return its audit trail (JSON)
//
// Figure and headline requests execute through the shared runner, so
// they share its job slots (-jobs) and result cache (-cache). Run and
// explain requests do not: each builds its own one-job runner through
// powerchop.RunContext, so -jobs does not bound them and -cache is never
// consulted for them. Every simulation reports to the same tracer and
// board, so all of them show up live on /progress, /metrics and
// /events. Every route is mounted through the monitor's middleware
// (request IDs, RED metrics, access logs, panic recovery), carries the
// request context so spans nest under the HTTP request, and journals a
// run-history record.
func mountAPI(l *liveMonitor, runner *powerchop.FigureRunner, rec *apiRecorder) {
	mount := l.mon.Mount
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	mount("GET /api/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		type bench struct {
			Name  string `json:"name"`
			Suite string `json:"suite"`
		}
		var out []bench
		for _, name := range powerchop.SortedBenchmarks() {
			suite, _ := powerchop.SuiteOf(name)
			out = append(out, bench{Name: name, Suite: suite})
		}
		writeJSON(w, out)
	})
	mount("GET /api/policies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, powerchop.Policies())
	})
	mount("GET /api/figures", func(w http.ResponseWriter, r *http.Request) {
		type fig struct {
			ID    string `json:"id"`
			Title string `json:"title"`
		}
		var out []fig
		for _, id := range powerchop.FigureIDs() {
			title, _ := powerchop.FigureTitle(id)
			out = append(out, fig{ID: id, Title: title})
		}
		writeJSON(w, out)
	})
	mount("GET /api/figure", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		if _, err := powerchop.FigureTitle(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		done := rec.begin(r, "figure", id, "")
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := runner.RenderFigureContext(r.Context(), w, id); err != nil {
			done(err)
			// Headers are gone; report in-band.
			fmt.Fprintf(w, "\nerror: %v\n", err)
			return
		}
		done(nil)
	})
	mount("GET /api/headline", func(w http.ResponseWriter, r *http.Request) {
		done := rec.begin(r, "headline", "headline", "")
		rows, err := runner.HeadlineContext(r.Context())
		done(err)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rows)
	})
	mount("GET /api/run", func(w http.ResponseWriter, r *http.Request) {
		bench := r.URL.Query().Get("bench")
		if bench == "" {
			http.Error(w, "missing bench parameter", http.StatusBadRequest)
			return
		}
		manager := r.URL.Query().Get("manager")
		done := rec.begin(r, "run", bench, "manager="+manager)
		rep, err := powerchop.RunContext(r.Context(), bench, powerchop.Options{
			Manager:  manager,
			Tracer:   l.tracer,
			Progress: l.mon.Board().Update,
		})
		done(err)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, rep)
	})
	mount("GET /api/explain", func(w http.ResponseWriter, r *http.Request) {
		bench := r.URL.Query().Get("bench")
		if bench == "" {
			http.Error(w, "missing bench parameter", http.StatusBadRequest)
			return
		}
		manager := r.URL.Query().Get("manager")
		done := rec.begin(r, "explain", bench, "manager="+manager)
		rep, err := powerchop.RunContext(r.Context(), bench, powerchop.Options{
			Manager:  manager,
			Tracer:   l.tracer,
			Progress: l.mon.Board().Update,
			Audit:    true,
		})
		done(err)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, rep.Audit)
	})
}

// newServeMonitor assembles the serve subcommand's monitor and runner —
// split from cmdServe so tests can exercise the wiring without a
// listener or signal handling. Extra sinks (the -trace JSONL recorder)
// join the live tracer fan-out, so a standing monitor and an on-disk
// event record compose. cacheDir, when non-empty, backs both the
// persistent result cache and the run-history journal; without it runs
// still appear on /api/runs but the history dies with the process.
func newServeMonitor(scale float64, jobs int, cacheDir string, sinks ...obs.Tracer) (*liveMonitor, error) {
	l := newLiveMonitor()
	if len(sinks) > 0 {
		all := append([]obs.Tracer{l.tracer}, sinks...)
		l.tracer = obs.Multi(all...)
	}
	// Request spans join the same fan-out as simulation events, so the
	// -trace JSONL (and `trace chrome` on it) shows the request tree.
	l.mon.SetSpanSink(l.tracer)

	store := runlog.Memory()
	if cacheDir != "" {
		var err error
		if store, err = runlog.Open(cacheDir); err != nil {
			return nil, err
		}
	}
	l.mon.SetRunLog(store)
	cache, err := openCache(cacheDir, l.registry())
	if err != nil {
		return nil, err
	}

	opts := []powerchop.FigureOption{
		powerchop.WithJobs(jobs),
		powerchop.WithTracer(l.tracer),
		powerchop.WithProgress(l.mon.Board().Update),
	}
	if cache != nil {
		opts = append(opts, powerchop.WithCache(cache))
	}
	runner := powerchop.NewFigureRunner(scale, opts...)
	mountAPI(l, runner, &apiRecorder{store: store, cache: cache})
	return l, nil
}

// attachAlerts builds the serve subcommand's alert evaluator over the
// live monitor's telemetry store and registry, and installs it behind
// /api/alerts and the board badges. rulesFile "" loads the built-in
// default ruleset, "none" disables alerting entirely. The evaluator
// emits transitions into the live tracer fan-out (hub, collector,
// auditor, any -trace JSONL sink), journals them into the run history,
// and optionally delivers them to a webhook.
func attachAlerts(l *liveMonitor, rulesFile, webhookURL string, every uint64) (*alert.Evaluator, *alert.Webhook, error) {
	if rulesFile == "none" {
		return nil, nil, nil
	}
	rules := alert.DefaultRules()
	if rulesFile != "" {
		var err error
		if rules, err = alert.LoadRules(rulesFile); err != nil {
			return nil, nil, err
		}
	}
	var wh *alert.Webhook
	if webhookURL != "" {
		wh = alert.NewWebhook(webhookURL, alert.WebhookConfig{Registry: l.registry()})
	}
	ev, err := alert.New(alert.Config{
		Rules:    rules,
		Store:    l.telemetry,
		Metrics:  l.reg.Snapshot,
		Every:    every,
		Sink:     l.tracer,
		Journal:  l.mon.RunLog(),
		Webhook:  wh,
		Registry: l.reg,
	})
	if err != nil {
		if wh != nil {
			wh.Close()
		}
		return nil, nil, err
	}
	l.mon.SetAlerts(ev)
	return ev, wh, nil
}

func cmdServe(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	scale := fs.Float64("scale", 1, "run-length scale for figure requests")
	jobs := fs.Int("jobs", 0, "max concurrent simulation groups for figure requests (0 = GOMAXPROCS)")
	trace := fs.String("trace", "", "also record every event as JSONL to this file")
	cacheDir := fs.String("cache", os.Getenv("POWERCHOP_CACHE"), "result cache + run-history directory (default $POWERCHOP_CACHE)")
	accessLog := fs.Bool("access-log", true, "write structured JSON access logs to stderr")
	alertRules := fs.String("alert-rules", "", "alert rule file (default: built-in ruleset; \"none\" disables alerting)")
	alertWebhook := fs.String("alert-webhook", "", "POST alert transitions to this URL")
	alertInterval := fs.Duration("alert-interval", 5*time.Second, "alert evaluation interval")
	alertEvery := fs.Uint64("alert-every", alert.DefaultEvery, "series-rule evaluation stride in windows")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	var sinks []obs.Tracer
	var traceOut *os.File
	var traceSink *obs.JSONL
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		traceOut = f
		traceSink = obs.NewJSONL(f)
		sinks = append(sinks, traceSink)
	}
	l, err := newServeMonitor(*scale, *jobs, *cacheDir, sinks...)
	if err != nil {
		if traceOut != nil {
			traceOut.Close()
		}
		return err
	}
	if *accessLog {
		l.mon.SetAccessLog(slog.New(slog.NewJSONHandler(stderr, nil)))
	}
	ev, webhook, err := attachAlerts(l, *alertRules, *alertWebhook, *alertEvery)
	if err != nil {
		if traceOut != nil {
			traceOut.Close()
		}
		return err
	}
	var stopAlerts func()
	if ev != nil {
		stopAlerts = ev.Start(*alertInterval)
		fmt.Fprintf(stderr, "alert evaluator: %d rules every %s (browse: /api/alerts, /alerts)\n",
			len(ev.Rules()), *alertInterval)
	}
	if err := l.start(*addr, stderr); err != nil {
		if stopAlerts != nil {
			stopAlerts()
		}
		if webhook != nil {
			webhook.Close()
		}
		if traceOut != nil {
			traceOut.Close()
		}
		return err
	}
	fmt.Fprintf(stderr, "figure API at http://%s/api/figures; interrupt to stop\n", l.mon.Addr())
	if *trace != "" {
		fmt.Fprintf(stderr, "recording events to %s\n", *trace)
	}
	if store := l.mon.RunLog(); store.Persistent() {
		fmt.Fprintf(stderr, "run history at %s (browse: /api/runs, /runs, 'powerchop runs')\n", store.Path())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	<-sig
	fmt.Fprintln(stderr, "shutting down")
	// Final alert catch-up first, so boundaries reached by the last run
	// are evaluated and their transitions land in the trace, the run
	// journal and the webhook before anything drains.
	if stopAlerts != nil {
		stopAlerts()
	}
	if webhook != nil {
		webhook.Close()
	}
	l.stop()
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			traceOut.Close()
			return err
		}
		if err := traceOut.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace written to %s (%d events)\n", *trace, traceSink.Events())
	}
	return nil
}
