package alert

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/obs/audit"
	"powerchop/internal/obs/tsdb"
)

// TestReplayHugeWindowField pins that a trace's recorded window numbers
// cannot set the store's ordinal, which is the trace fold's own row
// count: a one-line trace stores one window and replays at once, however
// large its window field. An ordinal taken from the field would send the
// evaluator's catch-up loop through billions of boundaries, and at the
// top of the range around a wrapping counter forever.
func TestReplayHugeWindowField(t *testing.T) {
	for _, w := range []uint64{4000000000, math.MaxUint64} {
		line := fmt.Sprintf(`{"kind":"window-close","window":%d,"count":5}`, w)
		events, err := obs.ReadJSONL(strings.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		store := tsdb.NewStore(tsdb.DefaultConfig())
		in := tsdb.NewIngestor(store, tsdb.IngestorConfig{})
		for _, e := range events {
			in.Emit(e)
		}
		in.Flush()
		if got := store.LatestWindow(); got != 1 {
			t.Errorf("window %d: store holds %d windows, want 1", w, got)
		}
		done := make(chan error, 1)
		go func() {
			_, err := Replay(events, DefaultRules(), ReplayConfig{})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("window %d: Replay still running after 5s", w)
		}
	}
}

// FuzzTraceTools feeds arbitrary bytes through every offline trace tool
// — the JSONL reader, the timeline, telemetry ingest into a store, the
// auditor, the alert replay over the default rules and the Chrome
// export — and requires that none panics, and that the timeline and the
// store, both built by the trace fold, count the same windows.
func FuzzTraceTools(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		tl := obs.NewTimeline(events)
		tl.Render(0)
		// A one-level store keeps each exec cheap; the window count does
		// not depend on retention.
		store := tsdb.NewStore(tsdb.Config{Levels: []tsdb.LevelSpec{{Bucket: 1, Retain: 64}}})
		in := tsdb.NewIngestor(store, tsdb.IngestorConfig{Units: arch.GatedUnits()})
		for _, e := range events {
			in.Emit(e)
		}
		in.Flush()
		if got, want := store.LatestWindow(), uint64(len(tl.Rows)); got != want {
			t.Fatalf("store holds %d windows, timeline %d", got, want)
		}
		a := audit.MustNew(audit.DesignConfig(arch.Server()))
		for _, e := range events {
			a.Emit(e)
		}
		a.Snapshot().Render(0)
		if _, err := Replay(events, DefaultRules(), ReplayConfig{Units: arch.GatedUnits()}); err != nil {
			t.Fatal(err)
		}
		obs.WriteChrome(io.Discard, events)
	})
}
