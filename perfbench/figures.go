package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"powerchop"
	"powerchop/internal/rescache"
)

// figuresScale is the Headline's reduced run length: every simulation
// runs exactly one pass of its phase schedule, the Runner's floor.
const figuresScale = 0.5

// figuresColds is how many cold Headlines a run times, each on a fresh
// cache directory; wall_s is their median, the mean of the two. One
// cold Headline lasts about 12 s, and single ones of adjacent runs
// differed by up to a fifth. Two keep a 30-second run near 30 s of
// work, as the other workloads' runs are.
const figuresColds = 2

// figuresWarmPerSecond sizes the warm phase: ceil(seconds × rate) warm
// renders, fixed by -seconds like the sweep's op count.
const figuresWarmPerSecond = 10

// runFigures runs the headline command in process: cold Headlines with
// jobs = nproc, each on a fresh cache directory, then warm Headlines
// on the last of those directories, each from a fresh runner and cache
// handle, the way repeated CLI invocations run. Its inputs are the
// paper's fixed benchmark set, so it ignores the seed.
func runFigures(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}}
	setup, err := programSetup()
	if err != nil {
		return nil, err
	}
	jobs := runtime.NumCPU()
	var rec *spanRecorder
	var prof *profile
	if cfg.traced {
		rec = newSpanRecorder()
		if prof, err = startProfile(cfg.traceDir); err != nil {
			return nil, err
		}
	}
	render := func(op int, c *rescache.Cache) ([]powerchop.SuiteAverages, float64, error) {
		opts := []powerchop.FigureOption{powerchop.WithJobs(jobs), powerchop.WithCache(c)}
		var opStart float64
		if rec != nil {
			rec.op.Store(int64(op))
			opts = append(opts, powerchop.WithProgress(rec.progress))
			opStart = rec.now()
		}
		t := time.Now()
		rows, err := powerchop.NewFigureRunner(figuresScale, opts...).HeadlineContext(ctx)
		wall := since(t)
		if rec != nil {
			rec.add(span{Op: op, Layer: "op", Name: "headline", Start: opStart, End: rec.now()})
		}
		return rows, wall, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	var dir string
	var coldWalls []float64
	coldStats := rescache.Stats{}
	for i := 0; i < figuresColds; i++ {
		dir = filepath.Join(cfg.dir, fmt.Sprintf("cache%d", i))
		c := rescache.New(dir, nil)
		rows, wall, err := render(i, c)
		s := c.Stats()
		coldStats.Hits += s.Hits
		coldStats.Misses += s.Misses
		coldStats.Stores += s.Stores
		coldWalls = append(coldWalls, wall)
		if err == nil {
			err = checkHeadline(rows, cfg.pins.Headline)
		}
		if err != nil {
			out.fail("cold headline %d: %v", i, err)
		} else {
			out.pass()
		}
	}
	coldWall := median(coldWalls)

	n := int(cfg.seconds*figuresWarmPerSecond + 0.999)
	warm := make([]float64, 0, n)
	warmStats := rescache.Stats{}
	warmStart := time.Now()
	for i := figuresColds; i < figuresColds+n; i++ {
		c := rescache.New(dir, nil)
		rows, wall, err := render(i, c)
		s := c.Stats()
		warmStats.Hits += s.Hits
		warmStats.Misses += s.Misses
		warmStats.Stores += s.Stores
		if err != nil {
			out.fail("warm headline %d: %v", i, err)
			continue
		}
		warm = append(warm, wall*1000)
		// A cold render passes only when it matches the pinned digest, so
		// a warm render equals the cold ones when it matches it too.
		if err := checkHeadline(rows, cfg.pins.Headline); err != nil {
			out.fail("warm headline %d: %v", i, err)
		} else {
			out.pass()
		}
	}
	warmWall := since(warmStart)
	if prof != nil {
		if out.profile, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	gcs, allocMB := memDelta(mem)
	later, err := programSetup()
	if err != nil {
		return nil, err
	}

	entries, err := readCacheEntries(dir)
	if err != nil {
		return nil, err
	}
	var insns float64
	for _, e := range entries {
		insns += float64(e.GuestInsns)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out.wall = sum(coldWalls) + warmWall
	out.e2e["setup_s"] = median(append(setup, later...))
	out.e2e["wall_s"] = coldWall
	out.e2e["sim_mips"] = insns / coldWall / 1e6
	out.e2e["warm_p50_ms"] = median(warm)
	out.e2e["p50_ms"] = median(warm)
	out.e2e["rps"] = float64(len(warm)) / warmWall
	out.e2e["peak_rss_mb"] = rss

	if rec != nil {
		l := out.layer
		addSelfTimes(l, rec)
		l["sim.runs"] = float64(coldStats.Stores)
		l["sim.minsns"] = insns * float64(len(coldWalls)) / 1e6
		l["runner.sims"] = float64(coldStats.Stores)
		// The cold Headlines (ops below figuresColds) are where
		// simulations wait for and hold job slots; warm renders only hit
		// the cache.
		l["runner.queue_p50_ms"] = median(rec.durations("queue", figuresColds))
		l["runner.busy_p50_ms"] = median(rec.durations("sim", figuresColds))
		total := rescache.Stats{
			Hits:   coldStats.Hits + warmStats.Hits,
			Misses: coldStats.Misses + warmStats.Misses,
			Stores: coldStats.Stores + warmStats.Stores,
		}
		l["rescache.stores"] = float64(total.Stores)
		l["rescache.hits"] = float64(total.Hits)
		l["rescache.misses"] = float64(total.Misses)
		if lookups := total.Hits + total.Misses; lookups > 0 {
			l["rescache.hit_frac"] = float64(total.Hits) / float64(lookups)
		}
		l["rescache.mb"] = dirMB(dir)
		var c entryCounters
		for _, e := range entries {
			c.add(e)
		}
		c.into(l)
		l["p90_ms"] = p90(warm)
		l["gc.cycles"], l["alloc.mb"] = gcs, allocMB
		if err := rec.write(filepath.Join(cfg.traceDir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkHeadline compares Headline rows with their pinned digest.
func checkHeadline(rows []powerchop.SuiteAverages, pinned string) error {
	if d := digest(rows); d != pinned {
		return fmt.Errorf("digest %s, pinned %s", d, pinned)
	}
	return nil
}

// cacheEntry is the part of a result-cache entry the benchmark reads:
// the counters of one simulation.
type cacheEntry struct {
	GuestInsns  uint64
	Branches    uint64
	Mispredicts uint64
	MLCHits     uint64
	MLCAccesses uint64
	PVT         struct{ Lookups, Hits uint64 }
	CDE         struct{ Invocations uint64 }
}

// readCacheEntries decodes every entry the cold Headline stored.
func readCacheEntries(dir string) ([]cacheEntry, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []cacheEntry
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var env struct{ Result cacheEntry }
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, fmt.Errorf("cache entry %s: %w", f, err)
		}
		out = append(out, env.Result)
	}
	return out, nil
}

// entryCounters sums cache entries into the per-layer rates.
type entryCounters struct {
	branches, mispredicts, mlcHits, mlcAccesses, pvtLookups, pvtHits, cde uint64
}

func (c *entryCounters) add(e cacheEntry) {
	c.branches += e.Branches
	c.mispredicts += e.Mispredicts
	c.mlcHits += e.MLCHits
	c.mlcAccesses += e.MLCAccesses
	c.pvtLookups += e.PVT.Lookups
	c.pvtHits += e.PVT.Hits
	c.cde += e.CDE.Invocations
}

func (c *entryCounters) into(m metrics) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["cache.mlc_hit_rate"] = ratio(c.mlcHits, c.mlcAccesses)
	m["bpu.mispredict_rate"] = ratio(c.mispredicts, c.branches)
	m["pvt.hit_rate"] = ratio(c.pvtHits, c.pvtLookups)
	m["cde.invocations"] = float64(c.cde)
}

// dirMB is the total size of the files in dir, in MB.
func dirMB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return float64(n) / (1 << 20)
}
