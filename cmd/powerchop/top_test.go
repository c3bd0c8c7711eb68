package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/obs/serve"
)

// TestCmdTraceTimelineJSON pins the -json round trip: the emitted JSON
// unmarshals back into exactly the timeline the text renderer shows.
func TestCmdTraceTimelineJSON(t *testing.T) {
	path := writeTestTrace(t)
	var out bytes.Buffer
	if err := cmdTrace([]string{"timeline", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var got obs.Timeline
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("timeline -json not JSON: %v\n%s", err, out.String())
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Parse(nil)
	events, err := readTraceEvents(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	want := obs.NewTimeline(events)
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("JSON round trip diverged:\ngot  %+v\nwant %+v", &got, want)
	}
	if len(got.Rows) != 2 || got.Rows[0].Window != 1 || got.Rows[0].Insns != 900 {
		t.Fatalf("rows: %+v", got.Rows)
	}
	if len(got.Units) != 1 || got.Units[0] != "VPU" || got.Rows[0].Fracs[0] != 0.05 {
		t.Errorf("units/fracs: units %v, row 1 fracs %v", got.Units, got.Rows[0].Fracs)
	}
}

func TestCmdTopUsageErrors(t *testing.T) {
	var out bytes.Buffer
	var uerr usageError
	if err := cmdTop(nil, &out); !errors.As(err, &uerr) {
		t.Errorf("top without flags: %v, want usage error", err)
	}
	if err := cmdTop([]string{"-addr", "x", "-bench", "y"}, &out); !errors.As(err, &uerr) {
		t.Errorf("top with both modes: %v, want usage error", err)
	}
}

// TestCmdTopRemote polls a live monitor whose telemetry store holds a few
// windows and checks the frame lists every series with a sparkline.
func TestCmdTopRemote(t *testing.T) {
	l, err := newServeMonitor(0.02, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	for w := uint64(1); w <= 12; w++ {
		l.telemetry.Append("window.insns", w, float64(w*1000), float64(900+w))
		l.telemetry.Append("unit.frac.VPU", w, float64(w*1000), 0.05)
	}
	srv := httptest.NewServer(l.mon.Handler())
	defer srv.Close()

	var out bytes.Buffer
	if err := cmdTop([]string{"-addr", srv.URL, "-frames", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"frame 1, 2 series", "window.insns", "unit.frac.VPU", "(12 pts)", "912"} {
		if !strings.Contains(got, want) {
			t.Errorf("top frame missing %q:\n%s", want, got)
		}
	}

	// A coarser step answers from the downsampled level.
	out.Reset()
	if err := cmdTop([]string{"-addr", srv.URL, "-frames", "1", "-step", "32"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1 pts)") {
		t.Errorf("top -step 32 did not coarsen:\n%s", out.String())
	}
}

// TestCmdTopRemoteNoTelemetry checks the 404 from a monitor without a
// store surfaces as a usable error.
func TestCmdTopRemoteNoTelemetry(t *testing.T) {
	mon := serve.NewMonitor(obs.NewCollector().Registry())
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()
	var out bytes.Buffer
	err := cmdTop([]string{"-addr", srv.URL, "-frames", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("top against bare monitor: %v", err)
	}
}

// TestCmdTopInProcess runs a tiny benchmark in process and renders the
// final telemetry store.
func TestCmdTopInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark; skipped with -short")
	}
	var out bytes.Buffer
	if err := cmdTop([]string{"-bench", "namd", "-passes", "0.1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"telemetry:", "window.insns", "window.ipc", "unit.frac.VPU"} {
		if !strings.Contains(got, want) {
			t.Errorf("in-process top missing %q:\n%s", want, got)
		}
	}
}

func TestRunFlagsTelemetry(t *testing.T) {
	a, err := runFlags("run", []string{"-bench", "gobmk", "-telemetry"})
	if err != nil {
		t.Fatal(err)
	}
	if !a.telemetry {
		t.Fatal("telemetry flag not parsed")
	}
}
