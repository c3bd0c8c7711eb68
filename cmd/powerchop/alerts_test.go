package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerchop/internal/obs/alert"
)

// TestAlertsCheckUsageErrors: a missing trace and an unknown flag are
// usage errors. The flag package reports the unknown flag itself (on
// the process's stderr); with the flag accepted, the missing trace file
// would be a runtime error and exit 1.
func TestAlertsCheckUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"alerts", "check"}, "alerts check: need a trace file"},
		{[]string{"alerts", "check", "-json"}, "alerts check: need a trace file"},
		{[]string{"alerts", "check", "-bench", "x", "missing.jsonl"}, ""},
	} {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", c.args, code)
		}
		if !strings.Contains(errOut.String(), c.want) {
			t.Errorf("%v stderr = %q, want %q", c.args, errOut.String(), c.want)
		}
	}
}

// TestAlertsCheckTrace replays a recorded run through the default rules
// and through CI serve-smoke's rule set, whose "ci-synthetic" rule fires
// on any run: the command exits 1 exactly when the report counts a
// firing transition.
func TestAlertsCheckTrace(t *testing.T) {
	t.Setenv("POWERCHOP_CACHE", "")
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.jsonl")
	var out, errOut bytes.Buffer
	if code := run([]string{"run", "-bench", "gobmk", "-passes", "0.1", "-trace", trace}, &out, &errOut); code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}

	synthetic := filepath.Join(dir, "rules.json")
	rules, err := json.Marshal(alert.RuleFile{Rules: append(alert.DefaultRules(), alert.Rule{
		Name: "ci-synthetic",
		Expr: alert.Expr{Series: "window.insns", Agg: "count", Window: 8, Op: ">", Threshold: 0},
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(synthetic, rules, 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(args ...string) (int, map[string]json.RawMessage, int) {
		t.Helper()
		var out, errOut bytes.Buffer
		code := run(append([]string{"alerts", "check", "-json"}, append(args, trace)...), &out, &errOut)
		var rep map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("alerts check %v printed no JSON report (%v): %s", args, err, errOut.String())
		}
		var fired int
		if err := json.Unmarshal(rep["fired"], &fired); err != nil {
			t.Fatalf("report has no fired count: %s", out.String())
		}
		return code, rep, fired
	}

	code, rep, fired := check()
	if want := map[bool]int{false: 0, true: 1}[fired > 0]; code != want {
		t.Errorf("default rules: fired %d, exit %d, want %d", fired, code, want)
	}
	if _, ok := rep["bench_violations"]; ok {
		t.Errorf("report carries bench_violations")
	}

	code, rep, fired = check("-rules", synthetic)
	if code != 1 || fired == 0 {
		t.Errorf("ci-synthetic rules: fired %d, exit %d, want a firing rule and exit 1", fired, code)
	}
	var transitions []alert.Transition
	if err := json.Unmarshal(rep["transitions"], &transitions); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range transitions {
		found = found || tr.Rule == "ci-synthetic" && tr.State == alert.StateFiring
	}
	if !found {
		t.Errorf("ci-synthetic never fired: %+v", transitions)
	}
}

// TestAlertsCheckQuietTrace: on a trace where no default rule changes
// state, the JSON report lists its transitions as an empty array, not
// null, so `jq '.transitions[]'` works on every report.
func TestAlertsCheckQuietTrace(t *testing.T) {
	t.Setenv("POWERCHOP_CACHE", "")
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	var out, errOut bytes.Buffer
	if code := run([]string{"run", "-bench", "gobmk", "-passes", "0.1", "-trace", trace}, &out, &errOut); code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := run([]string{"alerts", "check", "-json", trace}, &out, &errOut); code != 0 {
		t.Fatalf("alerts check exited %d: %s", code, errOut.String())
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("alerts check printed no JSON report (%v): %s", err, out.String())
	}
	if got := string(rep["transitions"]); got != "[]" {
		t.Errorf("transitions = %s, want []", got)
	}
}
