package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"

	"powerchop/internal/obs/alert"
)

// cmdAlerts dispatches the alerting tooling: "rules" prints the
// built-in ruleset, "check" replays a recorded trace through the
// evaluator offline, "watch" tails the live transition stream of a
// running serve monitor.
func cmdAlerts(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "rules":
			return cmdAlertsRules(args[1:], stdout)
		case "check":
			return cmdAlertsCheck(args[1:], stdout)
		case "watch":
			return cmdAlertsWatch(args[1:], stdout)
		case "help", "-h", "-help", "--help":
			fmt.Fprintln(stdout, "usage: powerchop alerts rules|check|watch (see powerchop help)")
			return nil
		}
	}
	return usageError{msg: "alerts wants a subcommand: rules, check or watch"}
}

// cmdAlertsRules prints the built-in default ruleset as JSON in the
// exact schema -alert-rules and `alerts check -rules` load, so
// `powerchop alerts rules > rules.json` is a valid starting point for
// a customized set.
func cmdAlertsRules(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("alerts rules", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(alert.RuleFile{Rules: alert.DefaultRules()})
}

// checkReport is the -json document of `alerts check`: the replayed
// transitions plus summary counts.
type checkReport struct {
	Rules      int    `json:"rules"`
	Events     int    `json:"events,omitempty"`
	LastWindow uint64 `json:"last_window,omitempty"`
	// Transitions is every state-machine edge, in evaluation order.
	Transitions []Transition `json:"transitions"`
	// Fired counts firing transitions; the command exits non-zero when
	// it is positive.
	Fired int `json:"fired"`
}

// Transition aliases the evaluator's transition for the JSON report.
type Transition = alert.Transition

// cmdAlertsCheck replays a recorded JSONL trace through a fresh
// telemetry store and alert evaluator — the same stride, so the same
// boundaries, as a live run — and reports every rule transition.
// Registry-metric rules are skipped (a trace carries no registry);
// series and anomaly rules reconcile exactly with the live /alerts
// stream. Exits non-zero when anything fired.
func cmdAlertsCheck(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("alerts check", flag.ContinueOnError)
	rulesFile := fs.String("rules", "", "rule file (JSON; default: the built-in ruleset, see 'alerts rules')")
	in := fs.String("in", "", "trace file (JSONL); also accepted as a positional argument")
	every := fs.Uint64("every", alert.DefaultEvery, "series evaluation stride in windows (must match the live -alert-every)")
	units := fs.String("units", "BPU,MLC,VPU", "gated units pre-declared to the ingest (must match the live run)")
	asJSON := fs.Bool("json", false, "emit the transitions as JSON")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	if *in == "" && fs.NArg() == 0 {
		return usageError{msg: "alerts check: need a trace file"}
	}

	rules := alert.DefaultRules()
	if *rulesFile != "" {
		var err error
		if rules, err = alert.LoadRules(*rulesFile); err != nil {
			return err
		}
	}

	events, err := readTraceEvents(fs, *in)
	if err != nil {
		return err
	}
	ev, err := alert.Replay(events, rules, alert.ReplayConfig{
		Every: *every,
		Units: splitUnits(*units),
	})
	if err != nil {
		return err
	}
	snap := ev.Snapshot()
	rep := checkReport{
		Rules:       len(rules),
		Events:      len(events),
		LastWindow:  snap.LastWindow,
		Transitions: snap.Transitions,
	}
	for _, tr := range rep.Transitions {
		if tr.State == alert.StateFiring {
			rep.Fired++
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, tr := range rep.Transitions {
			fmt.Fprintln(stdout, formatTransition(tr))
		}
		fmt.Fprintf(stdout, "%d rule(s), %d transition(s), %d firing\n",
			rep.Rules, len(rep.Transitions), rep.Fired)
	}
	if rep.Fired > 0 {
		return fmt.Errorf("alerts check: %d alert(s) fired", rep.Fired)
	}
	return nil
}

// splitUnits parses the -units CSV, dropping empty entries.
func splitUnits(csv string) []string {
	var out []string
	for _, u := range strings.Split(csv, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// formatTransition renders one transition for the terminal, in the
// same window=/tick= vocabulary as the run journal.
func formatTransition(tr Transition) string {
	at := fmt.Sprintf("window=%d", tr.Window)
	if tr.Window == 0 {
		at = fmt.Sprintf("tick=%d", tr.Tick)
	}
	return fmt.Sprintf("%-9s %-24s %-12s value=%g threshold=%g",
		tr.State, tr.Rule, at, tr.Value, tr.Threshold)
}

// cmdAlertsWatch tails the alert-transition stream of a running serve
// monitor (GET /alerts?format=ndjson) and prints each transition as it
// arrives. -count exits after N transitions, for scripting.
func cmdAlertsWatch(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("alerts watch", flag.ContinueOnError)
	addr := fs.String("addr", "", "base URL of a running serve monitor (e.g. http://127.0.0.1:8080)")
	count := fs.Int("count", 0, "exit after N transitions (0 = stream until interrupted)")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	if *addr == "" {
		return usageError{msg: "alerts watch: need -addr URL"}
	}
	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Get(base + "/alerts?format=ndjson")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("alerts watch: %s returned %s", base+"/alerts", resp.Status)
	}
	fmt.Fprintf(stdout, "watching %s/alerts\n", base)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	seen := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || !strings.HasPrefix(line, "{") {
			continue
		}
		var we struct {
			Kind   string  `json:"kind"`
			Unit   string  `json:"unit"`
			Detail string  `json:"detail"`
			Window uint64  `json:"window"`
			Count  uint64  `json:"count"`
			Value  float64 `json:"value"`
			Prev   float64 `json:"prev"`
		}
		if err := json.Unmarshal([]byte(line), &we); err != nil || we.Kind != "alert" {
			continue
		}
		fmt.Fprintln(stdout, formatTransition(Transition{
			Rule: we.Unit, State: we.Detail, Window: we.Window,
			Tick: we.Count, Value: we.Value, Threshold: we.Prev,
		}))
		if seen++; *count > 0 && seen >= *count {
			return nil
		}
	}
	return sc.Err()
}
