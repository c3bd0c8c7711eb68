package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerchop"
	"powerchop/internal/obs"
)

func TestRunFlagsDefaults(t *testing.T) {
	a, err := runFlags("run", []string{"-bench", "gobmk"})
	if err != nil {
		t.Fatal(err)
	}
	if a.bench != "gobmk" {
		t.Fatalf("bench = %q", a.bench)
	}
	if a.opts.Manager != powerchop.ManagerPowerChop || a.opts.Passes != 2 {
		t.Fatalf("defaults: %+v", a.opts)
	}
	if a.opts.Arch != "" || a.opts.SampleInterval != 0 || a.json || a.trace != "" || a.metrics {
		t.Fatalf("defaults: %+v", a)
	}
}

func TestRunFlagsExplicit(t *testing.T) {
	a, err := runFlags("run", []string{
		"-bench", "msn", "-manager", "timeout", "-arch", "mobile",
		"-passes", "1.5", "-sample", "10000", "-json",
		"-trace", "out.jsonl", "-metrics",
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.bench != "msn" || a.opts.Manager != "timeout" || a.opts.Arch != "mobile" ||
		a.opts.Passes != 1.5 || a.opts.SampleInterval != 10000 || !a.json {
		t.Fatalf("parsed: %+v", a)
	}
	if a.trace != "out.jsonl" || !a.metrics || !a.opts.Metrics {
		t.Fatalf("trace flags: %+v", a)
	}
}

func TestRunFlagsMissingBench(t *testing.T) {
	_, err := runFlags("run", nil)
	if err == nil {
		t.Fatal("missing -bench accepted")
	}
	if _, ok := err.(usageError); !ok {
		t.Fatalf("missing -bench is %T, want usageError", err)
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	for _, cmd := range []string{"help", "-h", "--help"} {
		var out, errOut bytes.Buffer
		if code := run([]string{cmd}, &out, &errOut); code != 0 {
			t.Errorf("%s exited %d", cmd, code)
		}
		if !strings.Contains(out.String(), "commands:") {
			t.Errorf("%s: usage not on stdout", cmd)
		}
		if errOut.Len() != 0 {
			t.Errorf("%s wrote to stderr: %q", cmd, errOut.String())
		}
	}
}

func TestRunNoArgsExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no args exited %d", code)
	}
	if !strings.Contains(errOut.String(), "commands:") {
		t.Error("usage not on stderr")
	}
}

func TestRunUnknownCommandExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown command exited %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown command") {
		t.Errorf("stderr: %q", errOut.String())
	}
}

// TestRunBadSubcommandFlag checks a bad flag on a subcommand exits 2 and
// does not dump the global usage on top of the flag package's message.
func TestRunBadSubcommandFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"run", "-nonsense"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exited %d", code)
	}
	if strings.Contains(errOut.String(), "commands:") {
		t.Error("global usage printed for a subcommand flag error")
	}
}

func TestRunSubcommandHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"run", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("run -h exited %d", code)
	}
}

// TestRunCompareFlagSets checks run and compare parse their own flags:
// -telemetry belongs to run and -batch to compare, and compare's help
// names compare.
func TestRunCompareFlagSets(t *testing.T) {
	for _, args := range [][]string{
		{"compare", "-bench", "gobmk", "-telemetry"},
		{"run", "-bench", "gobmk", "-batch", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
	// The flag package prints a subcommand's help to the process's
	// stderr.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	code := run([]string{"compare", "-h"}, &bytes.Buffer{}, &bytes.Buffer{})
	os.Stderr = stderr
	w.Close()
	help, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !strings.Contains(string(help), "Usage of compare:") {
		t.Errorf("compare -h exited %d and printed:\n%s", code, help)
	}
}

func TestRunMissingBenchExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"run"}, &out, &errOut); code != 2 {
		t.Fatalf("missing -bench exited %d", code)
	}
	if !strings.Contains(errOut.String(), "missing -bench") {
		t.Errorf("stderr: %q", errOut.String())
	}
}

func TestCmdTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONL(w)
	sink.Emit(obs.Event{Kind: obs.KindWindowClose, Window: 1, SigIDs: [obs.MaxSigIDs]uint32{0xaa}, SigN: 1, Count: 1000})
	sink.Emit(obs.Event{Kind: obs.KindPVTHit, Window: 1, SigIDs: [obs.MaxSigIDs]uint32{0xaa}, SigN: 1, Policy: 0xF})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	var out bytes.Buffer
	if err := cmdTrace([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\n<taa> ") {
		t.Errorf("trace report has no <taa> attribution row: %q", out.String())
	}

	// -in flag form.
	out.Reset()
	if err := cmdTrace([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("empty summary via -in")
	}
}

func TestCmdTraceMissingFile(t *testing.T) {
	err := cmdTrace(nil, &bytes.Buffer{})
	if err == nil {
		t.Fatal("missing file accepted")
	}
	if _, ok := err.(usageError); !ok {
		t.Fatalf("missing file is %T, want usageError", err)
	}
}

// TestCmdExplainJSON checks `explain -json` prints the audit trail in
// its own schema, the one /decisions?format=json serves: the pricing
// context and, in every decision, the policy's decoded text next to its
// code.
func TestCmdExplainJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark; skipped with -short")
	}
	var out bytes.Buffer
	if err := cmdExplain([]string{"-bench", "gobmk", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ClockHz   *float64         `json:"clock_hz"`
		Units     []string         `json:"units"`
		Decisions []map[string]any `json:"decisions"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("explain -json: %v\n%s", err, out.String())
	}
	if doc.ClockHz == nil || *doc.ClockHz <= 0 || len(doc.Units) == 0 || len(doc.Decisions) == 0 {
		t.Fatalf("explain -json lacks the trail's keys:\n%s", out.String())
	}
	for i, d := range doc.Decisions {
		if _, ok := d["policy_str"].(string); !ok {
			t.Errorf("decision %d has no policy_str: %v", i, d)
		}
		if _, ok := d["policy"].(float64); !ok {
			t.Errorf("decision %d has no policy code: %v", i, d)
		}
	}
}
