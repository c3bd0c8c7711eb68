package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"powerchop"
	"powerchop/internal/policy"
)

// cmdPolicies lists the registered gating policies with their parameter
// schemas and defaults.
func cmdPolicies(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("policies", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the policy list as JSON")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	infos := powerchop.Policies()
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(infos)
	}
	for _, p := range infos {
		fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Description)
		for _, prm := range p.Params {
			fmt.Fprintf(stdout, "    %-16s %s (default %g, range [%g, %g])\n",
				prm.Name, prm.Description, prm.Default, prm.Min, prm.Max)
		}
	}
	return nil
}

// gridFlag parses repeatable -grid PARAM=LO:HI:STEPS or PARAM=V1,V2,...
// entries into per-parameter value lists of at most
// policy.MaxGridPoints values, checked before a range expands.
type gridFlag map[string][]float64

func (g gridFlag) String() string { return "" }

func (g *gridFlag) Set(s string) error {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want PARAM=LO:HI:STEPS or PARAM=V1,V2,..., got %q", s)
	}
	var vals []float64
	if parts := strings.Split(spec, ":"); len(parts) == 3 {
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		steps, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || steps < 1 {
			return fmt.Errorf("bad range %q (want LO:HI:STEPS)", spec)
		}
		if steps > policy.MaxGridPoints {
			return fmt.Errorf("range %q has %d steps, above the limit of %d", spec, steps, policy.MaxGridPoints)
		}
		if steps == 1 {
			vals = []float64{lo}
		} else {
			for i := 0; i < steps; i++ {
				vals = append(vals, lo+(hi-lo)*float64(i)/float64(steps-1))
			}
		}
	} else {
		if n := strings.Count(spec, ",") + 1; n > policy.MaxGridPoints {
			return fmt.Errorf("list for %s has %d values, above the limit of %d", name, n, policy.MaxGridPoints)
		}
		for _, p := range strings.Split(spec, ",") {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return fmt.Errorf("bad value %q in %q", p, s)
			}
			vals = append(vals, v)
		}
	}
	if *g == nil {
		*g = gridFlag{}
	}
	(*g)[name] = vals
	return nil
}

// cmdTune sweeps a policy's parameter grid and prints the Pareto
// frontier of energy saved vs slowdown.
func cmdTune(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	policyName := fs.String("policy", "", "policy to sweep (see 'powerchop policies')")
	bench := fs.String("bench", "gobmk", "comma-separated benchmarks averaged over")
	archName := fs.String("arch", "", "design point (server|mobile; default per suite)")
	passes := fs.Float64("passes", 2, "passes over the phase schedule")
	jobs := fs.Int("jobs", 0, "max concurrent simulation groups (0/1 = serial)")
	batch := fs.Int("batch", 0, "max lanes per batched simulation group (0 = default cap of 16, 1 = one simulation per lane)")
	progress := fs.Bool("progress", false, "print per-run completion lines to stderr")
	httpAddr := fs.String("http", "", "serve a live monitor (/progress, /metrics) on this address for the sweep's duration")
	asJSON := fs.Bool("json", false, "emit the sweep result as JSON")
	cacheDir := fs.String("cache", os.Getenv("POWERCHOP_CACHE"), "persistent result cache directory (default $POWERCHOP_CACHE)")
	var grid gridFlag
	fs.Var(&grid, "grid", "parameter grid PARAM=LO:HI:STEPS or PARAM=V1,V2,... (repeatable; default half/default/double per parameter)")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	if *policyName == "" {
		return usageError{msg: fmt.Sprintf("missing -policy (known: %v)", powerchop.PolicyNames())}
	}
	cache, err := openCache(*cacheDir, nil)
	if err != nil {
		return err
	}
	opts := powerchop.TuneOptions{
		Policy:     *policyName,
		Benchmarks: strings.Split(*bench, ","),
		Grid:       grid,
		Options: powerchop.Options{
			Arch:        *archName,
			Passes:      *passes,
			Parallelism: *jobs,
			Batch:       *batch,
			Cache:       cache,
		},
	}
	// Per-run progress: an optional stderr line per completed run and,
	// with -http, the live monitor's /progress board. Sweep runs report
	// through the same Options.Progress hook as single runs, batched or
	// not, so both sinks see every (benchmark, fingerprint) lane.
	var sinks []func(powerchop.RunProgress)
	if *progress {
		var mu sync.Mutex
		done := 0
		sinks = append(sinks, func(p powerchop.RunProgress) {
			if p.State != powerchop.StateDone && p.State != powerchop.StateError {
				return
			}
			mu.Lock()
			done++
			n := done
			mu.Unlock()
			line := fmt.Sprintf("tune: %d runs done (%s %s", n, p.Benchmark, p.Kind)
			if p.State == powerchop.StateError {
				line += " FAILED: " + p.Err
			}
			fmt.Fprintf(os.Stderr, "%s)\n", line)
		})
	}
	start := time.Now()
	var res *powerchop.TuneResult
	runErr := withMonitor(*httpAddr, os.Stderr, func(l *liveMonitor) {
		sinks = append(sinks, l.mon.Board().Update)
		if c, err := openCache(*cacheDir, l.registry()); err == nil && c != nil {
			opts.Options.Cache = c
			cache = c
		}
	}, func() error {
		if len(sinks) > 0 {
			all := sinks
			opts.Options.Progress = func(p powerchop.RunProgress) {
				for _, s := range all {
					s(p)
				}
			}
		}
		var err error
		res, err = powerchop.Tune(opts)
		return err
	})
	recordHistory(*cacheDir, "tune", *policyName,
		fmt.Sprintf("bench=%s passes=%g", *bench, *passes), start, cache, runErr)
	if err := runErr; err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprint(stdout, res.Render())
	return nil
}
