package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"powerchop"
)

// serveRequestsPerSecond sizes the serve workload: ceil(seconds × rate)
// requests, about -seconds of load on the 2-vCPU reference host.
const serveRequestsPerSecond = 4.4

// serveAbandonAfter is the client deadline of an abandoned request,
// shorter than any simulation /api/run performs.
const serveAbandonAfter = 100 * time.Millisecond

// serveStarts is how many times a run starts the server to measure its
// set-up, before and after the load, so that the median does not rest
// on the host's speed at one moment.
const serveStarts = 11

// server is a running `powerchop serve` subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	// exited is closed once cmd.Wait returns.
	exited   chan struct{}
	stopOnce sync.Once
}

// startServer execs `powerchop serve` with a fresh cache directory and
// returns once /readyz answers 200, with the seconds that took.
func startServer(bin, dir string) (*server, float64, error) {
	if bin == "" {
		return nil, 0, errors.New("the serve workload needs -powerchop")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "serve", "-addr", addr, "-cache", filepath.Join(dir, "cache"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, since(start), nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("powerchop serve exited before ready (log: %s)", logf.Name())
		case <-time.After(500 * time.Microsecond):
		}
		if since(start) > 30 {
			s.stop()
			return nil, 0, errors.New("powerchop serve not ready after 30s")
		}
	}
}

// stop sends SIGTERM, waits for the process to end (killing it after
// ten seconds) and closes its log. Calls after the first do nothing.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
		s.log.Close()
	})
}

// timeStarts starts and stops n servers, numbered from first, and
// returns the seconds each took to get ready.
func timeStarts(cfg config, first, n int) ([]float64, error) {
	var times []float64
	for i := first; i < first+n; i++ {
		s, ready, err := startServer(cfg.powerchop, filepath.Join(cfg.dir, fmt.Sprintf("server%d", i)))
		if err != nil {
			return nil, err
		}
		s.stop()
		times = append(times, ready)
	}
	return times, nil
}

func (s *server) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// serverCounters is what the server exposes about itself before and
// after the load: /metrics values and the runtime's MemStats lines of
// /debug/pprof/heap.
type serverCounters struct {
	events, dropped, gcs, allocMB, cpu float64
}

func (s *server) counters(c *http.Client) (serverCounters, error) {
	var out serverCounters
	body, err := s.get(c, "/metrics")
	if err != nil {
		return out, err
	}
	prom := parseProm(string(body))
	out.events, out.dropped = prom["events_total"], prom["serve_events_dropped"]
	heap, err := s.get(c, "/debug/pprof/heap?debug=1")
	if err != nil {
		return out, err
	}
	for _, line := range strings.Split(string(heap), "\n") {
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			out.gcs, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			b, _ := strconv.ParseFloat(v, 64)
			out.allocMB = b / (1 << 20)
		}
	}
	out.cpu, err = procCPUSeconds(s.cmd.Process.Pid)
	return out, err
}

// parseProm reads the unlabelled samples of Prometheus text format.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// runRecord is the part of an /api/runs record the benchmark joins on.
type runRecord struct {
	RequestID  string  `json:"request_id"`
	Kind       string  `json:"kind"`
	DurationMS float64 `json:"duration_ms"`
	Outcome    string  `json:"outcome"`
}

// runRecords pages through /api/runs.
func (s *server) runRecords(c *http.Client) (map[string]runRecord, error) {
	out := map[string]runRecord{}
	for offset := 0; ; {
		body, err := s.get(c, fmt.Sprintf("/api/runs?kind=run&limit=400&offset=%d", offset))
		if err != nil {
			return nil, err
		}
		var page struct{ Runs []runRecord }
		if err := json.Unmarshal(body, &page); err != nil {
			return nil, fmt.Errorf("/api/runs: %w", err)
		}
		for _, r := range page.Runs {
			out[r.RequestID] = r
		}
		if len(page.Runs) < 400 {
			return out, nil
		}
		offset += len(page.Runs)
	}
}

// served is one request's outcome as the client saw it.
type served struct {
	id string
	// start is when the request was sent, in seconds into the load.
	start     float64
	latencyMS float64
	abandoned bool
	report    *powerchop.Report
	err       error
}

// runServe drives a `powerchop serve` subprocess with nproc closed-loop
// clients over keep-alive connections. One request in five is abandoned
// after serveAbandonAfter. Completed responses must match the
// pinned Report of their pair; errors and non-200 responses are
// failures, abandoned requests are counted apart.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}}
	// Half of the starts (rounded up) come before the load, the last of
	// them serving it; the rest come after the load.
	early := (serveStarts + 1) / 2
	setups, err := timeStarts(cfg, 0, early-1)
	if err != nil {
		return nil, err
	}
	srv, ready, err := startServer(cfg.powerchop, filepath.Join(cfg.dir, fmt.Sprintf("server%d", early-1)))
	if err != nil {
		return nil, err
	}
	setups = append(setups, ready)
	defer srv.stop()

	clients := runtime.NumCPU()
	mix := serveMix(cfg.seed, int(math.Ceil(cfg.seconds*serveRequestsPerSecond)))
	for _, q := range mix {
		if _, ok := cfg.pins.Reports[q.pair()]; !ok {
			return nil, fmt.Errorf("no pinned report for %s", q.pair())
		}
	}
	ctl := &http.Client{Timeout: 30 * time.Second}
	before, err := srv.counters(ctl)
	if err != nil {
		return nil, err
	}

	var prof chan error
	profPath := filepath.Join(cfg.traceDir, "cpu.pprof")
	if cfg.traced {
		prof = make(chan error, 1)
		secs := int(math.Ceil(cfg.seconds))
		go func() { prof <- fetchProfile(srv.base, secs, profPath) }()
	}

	transport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	results := make([]served, len(mix))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(mix) {
					return
				}
				results[i] = request(ctx, client, srv.base, cfg.seed, i, mix[i], start)
			}
		}()
	}
	wg.Wait()
	// Abandoned requests keep simulating; the batch ends when the server
	// has journalled every request.
	var recs map[string]runRecord
	for {
		if recs, err = srv.runRecords(ctl); err != nil {
			return nil, err
		}
		if len(recs) >= len(mix) || since(start) > 120 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	wall := since(start)
	if prof != nil {
		if err := <-prof; err != nil {
			return nil, err
		}
		out.profile = profPath
	}
	after, err := srv.counters(ctl)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	srv.stop()
	later, err := timeStarts(cfg, early, serveStarts-early)
	if err != nil {
		return nil, err
	}
	setups = append(setups, later...)

	var lat, serverMS, overheadMS []float64
	var abandoned, errorsN int
	var usefulInsns, allInsns, wastedS float64
	var counters reportCounters
	for i, r := range results {
		q := mix[i]
		pin := cfg.pins.Reports[q.pair()]
		rec, journalled := recs[r.id]
		if journalled {
			allInsns += float64(pin.Insns)
		}
		if r.abandoned {
			abandoned++
			if journalled {
				wastedS += rec.DurationMS / 1000
			}
			continue
		}
		if r.err != nil {
			errorsN++
		}
		if err := checkServed(r, pin, rec, journalled); err != nil {
			out.fail("request %s (%s): %v", r.id, q.pair(), err)
			continue
		}
		out.pass()
		lat = append(lat, r.latencyMS)
		serverMS = append(serverMS, rec.DurationMS)
		overheadMS = append(overheadMS, r.latencyMS-rec.DurationMS)
		usefulInsns += float64(r.report.Instructions)
		counters.add(r.report)
	}
	if out.attempted == 0 {
		out.fail("no request completed")
	}

	out.wall = wall
	out.e2e["setup_s"] = median(setups)
	out.e2e["wall_s"] = wall
	out.e2e["sim_mips"] = usefulInsns / wall / 1e6
	out.e2e["p50_ms"] = median(lat)
	// /api/run bypasses the result cache, so a request that repeats an
	// earlier pair takes the same cold path as a new one: no request is
	// warm.
	out.e2e["warm_p50_ms"] = out.e2e["p50_ms"]
	out.e2e["rps"] = float64(len(lat)) / wall
	out.e2e["peak_rss_mb"] = rss

	if cfg.traced {
		l := out.layer
		rec := newSpanRecorder()
		for i, r := range results {
			if r.err == nil && !r.abandoned {
				end := r.start + r.latencyMS/1000
				rec.add(span{Op: i, Layer: "op", Name: mix[i].pair(), Start: r.start, End: end})
				if s, ok := recs[r.id]; ok {
					// The server's duration, placed at the end of the
					// client's interval.
					rec.add(span{Op: i, Layer: "server", Name: mix[i].pair(), Start: end - s.DurationMS/1000, End: end})
				}
			}
		}
		addSelfTimes(l, rec)
		l["sim.runs"] = float64(len(recs))
		l["sim.minsns"] = allInsns / 1e6
		counters.into(l)
		l["events.per_req"] = (after.events - before.events) / float64(len(mix))
		l["events.dropped"] = after.dropped - before.dropped
		l["http.server_p50_ms"] = median(serverMS)
		l["http.overhead_p50_ms"] = median(overheadMS)
		l["http.errors"] = float64(errorsN)
		l["http.abandoned"] = float64(abandoned)
		l["http.wasted_s"] = wastedS
		if len(recs) > 0 {
			l["http.useful_frac"] = float64(len(lat)) / float64(len(recs))
		}
		repeats := 0
		for _, q := range mix {
			if q.Repeat {
				repeats++
			}
		}
		l["http.repeat_frac"] = float64(repeats) / float64(len(mix))
		l["p90_ms"] = p90(lat)
		l["gc.cycles"] = after.gcs - before.gcs
		l["alloc.mb"] = after.allocMB - before.allocMB
		l["proc.cpu_s"] = after.cpu - before.cpu
		if err := rec.write(filepath.Join(cfg.traceDir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkServed judges a request that was not abandoned: it must have
// succeeded, returned the pinned Report of its pair and left an ok
// record in the server's run history.
func checkServed(r served, pin pinnedReport, rec runRecord, journalled bool) error {
	switch {
	case r.err != nil:
		return r.err
	case digest(r.report) != pin.Digest:
		return errors.New("report differs from the pinned one")
	case !journalled || rec.Outcome != "ok":
		return errors.New("no ok run-history record")
	}
	return nil
}

// request performs one /api/run call of the mix.
func request(ctx context.Context, c *http.Client, base string, seed uint64, i int, q serveRequest, load time.Time) served {
	r := served{id: fmt.Sprintf("perfbench-%d-%d", seed, i)}
	if q.Abandon {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, serveAbandonAfter)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/run?bench=%s&manager=%s", base, q.Bench, q.Manager), nil)
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("X-Request-Id", r.id)
	start := time.Now()
	r.start = start.Sub(load).Seconds()
	resp, err := c.Do(req)
	if err != nil {
		r.abandoned = q.Abandon && errors.Is(err, context.DeadlineExceeded)
		r.err = err
		return r
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r.latencyMS = float64(time.Since(start)) / float64(time.Millisecond)
	switch {
	case err != nil:
		r.abandoned = q.Abandon && errors.Is(err, context.DeadlineExceeded)
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	default:
		var rep powerchop.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			r.err = err
		} else {
			r.report = &rep
		}
	}
	return r
}

// fetchProfile saves the server's CPU profile over the next secs
// seconds.
func fetchProfile(base string, secs int, path string) error {
	c := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	resp, err := c.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := io.Copy(w, resp.Body); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
