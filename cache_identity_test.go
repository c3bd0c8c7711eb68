package powerchop

import (
	"bytes"
	"io"
	"testing"

	"powerchop/internal/rescache"
)

// TestWarmCacheFiguresByteIdentical is the result cache's contract test:
// rendering the full figure set uncached, cold-cached (populating the
// store) and warm-cached (serving from it) must produce byte-identical
// output. Any divergence means a cached Result fails to reconstruct
// something a live run reports.
func TestWarmCacheFiguresByteIdentical(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("renders the full figure set")
	}
	const scale = 0.02
	render := func(opts ...FigureOption) string {
		var buf bytes.Buffer
		if err := NewFigureRunner(scale, opts...).RenderAll(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	plain, err := plainFigures()
	if err != nil {
		t.Fatal(err)
	}
	uncached := string(plain)
	cache := rescache.New(t.TempDir(), nil)
	cold := render(WithCache(cache))
	if st := cache.Stats(); st.Stores == 0 {
		t.Fatalf("cold render stored nothing: %+v", st)
	}
	warm := render(WithCache(cache))
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("warm render hit nothing: %+v", st)
	}

	if cold != uncached {
		t.Error("cold-cache render differs from uncached render")
	}
	if warm != uncached {
		t.Error("warm-cache render differs from uncached render")
	}
}

// TestCompareHitsFigureCache pins one cache entry per simulation across
// the figure and root paths: Figure 12 files its runs under the policy
// fingerprint, as Compare does, and at scale 0.02 a figure run is one
// schedule pass, so a one-pass Compare after a Figure 12 render on the
// same cache simulates nothing.
func TestCompareHitsFigureCache(t *testing.T) {
	if testing.Short() {
		t.Skip("renders Figure 12")
	}
	cache := rescache.New(t.TempDir(), nil)
	if err := NewFigureRunner(0.02, WithCache(cache)).RenderFigure(io.Discard, "fig12"); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := Compare("gobmk", Options{Passes: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 3 || misses != 0 {
		t.Errorf("compare after fig12: %d hits, %d misses, want 3 and 0", hits, misses)
	}
}

// TestRunCacheHitMatchesLiveRun pins the public Run API's cache path: a
// cache-hit Report (including the manager-derived PhasesSeen, which must
// travel inside the cached Result) equals the live run's.
func TestRunCacheHitMatchesLiveRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark twice")
	}
	opts := Options{Passes: 0.3, Cache: rescache.New(t.TempDir(), nil)}
	live, err := Run("bzip2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Cache.Stats(); st.Stores != 1 {
		t.Fatalf("live run stored %d entries, want 1", st.Stores)
	}
	cached, err := Run("bzip2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("second run hit %d times, want 1: %+v", st.Hits, st)
	}
	if cached.Cycles != live.Cycles || cached.TotalEnergyJ != live.TotalEnergyJ {
		t.Errorf("cached run diverges: cycles %v vs %v, energy %v vs %v",
			cached.Cycles, live.Cycles, cached.TotalEnergyJ, live.TotalEnergyJ)
	}
	if cached.PhasesSeen != live.PhasesSeen {
		t.Errorf("PhasesSeen: cached %d, live %d", cached.PhasesSeen, live.PhasesSeen)
	}
}

// TestRunCacheBypassedForObservers pins the bypass rule: any consumer of
// the live event stream or per-run instrumentation disables the cache
// (counted, not silent) because a cached Result cannot replay events.
func TestRunCacheBypassedForObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark")
	}
	cache := rescache.New(t.TempDir(), nil)
	if _, err := Run("bzip2", Options{Passes: 0.3, Cache: cache, Metrics: true}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Bypass != 1 || st.Stores != 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly one bypass and no stores", st)
	}
}
