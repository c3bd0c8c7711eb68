package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerchop"
)

// cpuGroups are the layers a CPU profile is grouped into. Every sample
// lands in exactly one group; cpu.other takes what no rule claims.
var cpuGroups = []string{
	"cpu.sim.record", "cpu.sim.exec", "cpu.sim.window",
	"cpu.program", "cpu.rng", "cpu.cache", "cpu.bpu",
	"cpu.phase", "cpu.pvt", "cpu.cde", "cpu.core", "cpu.gating", "cpu.power", "cpu.bt", "cpu.vpu",
	"cpu.experiments", "cpu.rescache", "cpu.json", "cpu.sha256", "cpu.syscall",
	"cpu.obs", "cpu.http", "cpu.gc", "cpu.malloc", "cpu.other",
}

// ownModules are the program's internal packages with a group of their
// own, named after the module.
var ownModules = []string{
	"program", "rng", "cache", "bpu", "phase", "pvt", "cde", "core",
	"gating", "power", "bt", "vpu", "experiments", "rescache",
}

// Runtime function prefixes of the garbage collector and the allocator.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.scan", "runtime.greyobject", "runtime.findObject",
		"runtime.markroot", "runtime.markBits", "runtime.(*gcWork)", "runtime.(*gcBits)",
		"runtime.(*gcControllerState)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
		"runtime.sweepone", "runtime.bgsweep", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.typePointers", "runtime.(*mspan).typePointers", "runtime.(*mspan).heapBits",
	}
	mallocPrefixes = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.nextFreeFast",
		"runtime.(*mspan).nextFreeIndex", "runtime.heapSetType", "runtime.memclrNoHeapPointers",
	}
	httpPrefixes    = []string{"net/http.", "net.", "net/textproto.", "net/url.", "mime.", "bufio."}
	syscallPrefixes = []string{"syscall.", "internal/syscall/", "internal/runtime/syscall.", "internal/poll."}
)

// layerOf maps a profiled function name, as `go tool pprof -top`
// prints it, to its group.
func layerOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if rest, ok := strings.CutPrefix(fn, "powerchop/internal/sim."); ok {
		switch {
		case strings.HasPrefix(rest, "(*frontEnd).record"):
			return "cpu.sim.record"
		case isWindowFunc(rest):
			return "cpu.sim.window"
		}
		return "cpu.sim.exec"
	}
	for _, m := range ownModules {
		if strings.HasPrefix(fn, "powerchop/internal/"+m+".") {
			return "cpu." + m
		}
	}
	hasAny := func(prefixes []string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	switch {
	case strings.HasPrefix(fn, "powerchop/internal/obs.") || strings.HasPrefix(fn, "powerchop/internal/obs/"):
		return "cpu.obs"
	case strings.HasPrefix(fn, "encoding/json."):
		return "cpu.json"
	case strings.Contains(fn, "sha256."):
		return "cpu.sha256"
	case hasAny(syscallPrefixes):
		return "cpu.syscall"
	case hasAny(httpPrefixes):
		return "cpu.http"
	case hasAny(gcPrefixes):
		return "cpu.gc"
	case hasAny(mallocPrefixes):
		return "cpu.malloc"
	}
	return "cpu.other"
}

// isWindowFunc reports whether a sim function (receiver and name, with
// any closure suffix) closes a window: endWindow, closeShard, takeSample.
func isWindowFunc(rest string) bool {
	if i := strings.LastIndex(rest, ")."); i >= 0 {
		rest = rest[i+2:]
	}
	name, _, _ := strings.Cut(rest, ".")
	switch name {
	case "endWindow", "closeShard", "takeSample":
		return true
	}
	return false
}

// profileShares groups a CPU profile by layer, in percent of all
// samples, from `go tool pprof -top` text, which it keeps beside the
// profile as cpu.top.txt.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=0", "-nodefraction=0", "-edgefraction=0", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(path), "cpu.top.txt"), out, 0o644); err != nil {
		return nil, err
	}
	return parseTop(string(out))
}

// parseTop sums the flat column of `pprof -top -unit=ms` by layer.
func parseTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat %q", fields[0])
		}
		fn := strings.Join(fields[5:], " ")
		flat[layerOf(fn)] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: no samples")
	}
	shares := map[string]float64{}
	for _, g := range cpuGroups {
		shares[g] = 100 * flat[g] / total
	}
	return shares, nil
}

// span is one interval the harness recorded around its own calls into
// the program, tagged with the operation it belongs to.
type span struct {
	Op    int     `json:"op"`
	Layer string  `json:"layer"`
	Name  string  `json:"name,omitempty"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanRecorder keeps spans in memory; they are written out at the end.
// Layers: "op" (a Tune call, a Headline render, an HTTP request),
// "queue" and "sim" (a simulation waiting for and holding a job slot,
// from the program's progress callbacks) and "server" (the server-side
// duration of a request, from its run-history record).
type spanRecorder struct {
	t0 time.Time
	// op is the operation in progress, which progress reports join.
	op    atomic.Int64
	mu    sync.Mutex
	spans []span
	// open holds the simulations in flight, by op and run key.
	open map[string]*openRun
}

type openRun struct {
	op              int
	queued, started float64
	seenSim         bool
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: time.Now(), open: map[string]*openRun{}}
}

func (r *spanRecorder) now() float64 { return time.Since(r.t0).Seconds() }

func (r *spanRecorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// progress is a progress callback that turns the current operation's
// run lifecycle reports into queue and sim spans. Reports name a run by
// benchmark and kind only, so the runs in flight must differ in those,
// as the Runner's solo simulations do; a Tune op's lanes do not.
func (r *spanRecorder) progress(p powerchop.RunProgress) {
	now := r.now()
	key := p.Benchmark + "/" + p.Kind
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.open[key]
	if o == nil {
		o = &openRun{op: int(r.op.Load()), queued: now, started: now}
		r.open[key] = o
	}
	switch p.State {
	case powerchop.StateSimulating:
		if !o.seenSim {
			o.seenSim, o.started = true, now
		}
	case powerchop.StateDone, powerchop.StateError:
		if o.started > o.queued {
			r.spans = append(r.spans, span{Op: o.op, Layer: "queue", Name: key, Start: o.queued, End: o.started})
		}
		r.spans = append(r.spans, span{Op: o.op, Layer: "sim", Name: key, Start: o.started, End: now})
		delete(r.open, key)
	}
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it its child spans cover. Only "op" spans have children (the
// other spans of the same operation); the rest are leaves.
func (r *spanRecorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Layer != "op" {
			children[s.Op] = append(children[s.Op], s)
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		if s.Layer != "op" {
			self[s.Layer] += s.dur()
			continue
		}
		self["op"] += s.dur() - covered(s, children[s.Op])
	}
	return self
}

// durations returns the durations of one layer's spans of the
// operations numbered below ops, in ms.
func (r *spanRecorder) durations(layer string, ops int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer && s.Op < ops {
			out = append(out, s.dur()*1000)
		}
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// addSelfTimes copies the recorder's self times into the metrics.
func addSelfTimes(m metrics, r *spanRecorder) {
	for layer, v := range r.selfTimes() {
		m["span."+layer+".self_s"] = v
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 is the 90th percentile, reported only when at least ten samples
// lie beyond it; 0 otherwise.
func p90(xs []float64) float64 {
	if len(xs) < 100 {
		return 0
	}
	return quantile(xs, 0.9)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
