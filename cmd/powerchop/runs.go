package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"powerchop/internal/obs/runlog"
	"powerchop/internal/rescache"
	"powerchop/internal/textplot"
)

// cmdRuns reads the persistent run history back out of the cache
// directory:
//
//	powerchop runs [list] [-cache DIR] [-kind K] [-name N] [-outcome O] [-limit N] [-offset N] [-json]
//	powerchop runs show [flags]   full detail of the newest matching record
//	powerchop runs tail [flags]   print the newest records, then follow
//
// It is the CLI twin of GET /api/runs: same journal, same filters.
func cmdRuns(args []string, stdout io.Writer) error {
	verb := "list"
	if len(args) > 0 {
		switch args[0] {
		case "list", "show", "tail":
			verb = args[0]
			args = args[1:]
		}
	}
	fs := flag.NewFlagSet("runs "+verb, flag.ContinueOnError)
	cacheDir := fs.String("cache", os.Getenv("POWERCHOP_CACHE"), "run-history directory (default $POWERCHOP_CACHE)")
	kind := fs.String("kind", "", "filter by kind (run, compare, figure, headline, ...)")
	name := fs.String("name", "", "filter by name (benchmark or figure id)")
	outcome := fs.String("outcome", "", "filter by outcome (ok, error)")
	limit := fs.Int("limit", 20, "maximum records to show (0 = all)")
	offset := fs.Int("offset", 0, "records to skip, newest first")
	asJSON := fs.Bool("json", false, "emit records as JSON")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	if *cacheDir == "" {
		return usageError{msg: "runs: no history directory (pass -cache DIR or set $POWERCHOP_CACHE)"}
	}
	store, err := runlog.Open(*cacheDir)
	if err != nil {
		return err
	}
	f := runlog.Filter{Kind: *kind, Name: *name, Outcome: *outcome, Limit: *limit, Offset: *offset}
	switch verb {
	case "show":
		return runsShow(store, f, *asJSON, stdout)
	case "tail":
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt)
		defer signal.Stop(stop)
		return runsTail(store, f, *asJSON, stdout, stop, 500*time.Millisecond)
	default:
		return runsList(store, f, *asJSON, stdout)
	}
}

// runsList prints matching history records newest-first as a table (or
// a JSON array with -json), mirroring the /runs board.
func runsList(store *runlog.Store, f runlog.Filter, asJSON bool, stdout io.Writer) error {
	recs, corrupt, err := store.List(f)
	if err != nil {
		return err
	}
	if asJSON {
		if recs == nil {
			recs = []runlog.Record{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(recs)
	}
	if len(recs) == 0 {
		fmt.Fprintf(stdout, "no runs recorded in %s\n", store.Path())
		return nil
	}
	rows := make([][]string, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, rec.Row())
	}
	fmt.Fprint(stdout, textplot.Table(runlog.Columns, rows))
	if corrupt > 0 {
		fmt.Fprintf(stdout, "(%d corrupt journal lines skipped)\n", corrupt)
	}
	return nil
}

// runsShow prints the newest matching record in full detail.
func runsShow(store *runlog.Store, f runlog.Filter, asJSON bool, stdout io.Writer) error {
	f.Limit = 1
	recs, _, err := store.List(f)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("runs show: no matching record in %s", store.Path())
	}
	rec := recs[0]
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	fmt.Fprintf(stdout, "time:        %s\n", rec.Time.UTC().Format(time.RFC3339))
	fmt.Fprintf(stdout, "kind:        %s\n", rec.Kind)
	fmt.Fprintf(stdout, "name:        %s\n", rec.Name)
	if rec.Params != "" {
		fmt.Fprintf(stdout, "params:      %s\n", rec.Params)
	}
	fmt.Fprintf(stdout, "duration:    %.1fms\n", rec.DurationMS)
	if rec.SpanID != 0 {
		fmt.Fprintf(stdout, "span:        %d\n", rec.SpanID)
	}
	if rec.RequestID != "" {
		fmt.Fprintf(stdout, "request id:  %s\n", rec.RequestID)
	}
	if rec.CacheHits+rec.CacheMisses > 0 {
		fmt.Fprintf(stdout, "cache:       %d hits, %d misses\n", rec.CacheHits, rec.CacheMisses)
	}
	fmt.Fprintf(stdout, "outcome:     %s\n", rec.Outcome)
	if rec.Error != "" {
		fmt.Fprintf(stdout, "error:       %s\n", rec.Error)
	}
	return nil
}

// runsTail prints the newest matching records and then follows the
// journal, printing records as they are appended, until stop signals or
// closes. interval is the poll period (the journal is a plain file; no
// notification channel exists across processes).
func runsTail(store *runlog.Store, f runlog.Filter, asJSON bool, stdout io.Writer, stop <-chan os.Signal, interval time.Duration) error {
	emit := func(rec runlog.Record) {
		if asJSON {
			b, err := json.Marshal(rec)
			if err != nil {
				return
			}
			fmt.Fprintf(stdout, "%s\n", b)
			return
		}
		row := rec.Row()
		fmt.Fprintf(stdout, "%s  %-8s %-12s %10s %8s  %s\n",
			row[0], row[1], row[2], row[3], row[4], row[5])
	}
	// One scan per tick: every matching record, newest first. The journal
	// only grows, so the records past the count seen so far are new.
	follow := runlog.Filter{Kind: f.Kind, Name: f.Name, Outcome: f.Outcome}
	recs, _, err := store.List(follow)
	if err != nil {
		return err
	}
	seen := len(recs)
	// Seed with the filter's window of them, oldest first so the feed
	// reads top-to-bottom chronologically.
	recs = recs[min(f.Offset, len(recs)):]
	if f.Limit > 0 {
		recs = recs[:min(f.Limit, len(recs))]
	}
	for i := len(recs) - 1; i >= 0; i-- {
		emit(recs[i])
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ticker.C:
			recs, _, err := store.List(follow)
			if err != nil || len(recs) <= seen {
				continue
			}
			for i := len(recs) - seen - 1; i >= 0; i-- {
				emit(recs[i])
			}
			seen = len(recs)
		}
	}
}

// recordHistory journals one completed CLI command into the run history
// under the cache directory, so `powerchop runs` lists CLI work next to
// API requests. Best-effort: recording never fails the command, and
// without a cache directory nothing is written.
func recordHistory(cacheDir, kind, name, params string, start time.Time, cache *rescache.Cache, runErr error) {
	if cacheDir == "" {
		return
	}
	store, err := runlog.Open(cacheDir)
	if err != nil {
		return
	}
	rec := runlog.Record{
		Kind:       kind,
		Name:       name,
		Params:     params,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if cache != nil {
		// The cache was opened for this command, so its absolute counters
		// are the command's own hit/miss deltas.
		st := cache.Stats()
		rec.CacheHits = st.Hits
		rec.CacheMisses = st.Misses
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	store.Append(rec)
}
