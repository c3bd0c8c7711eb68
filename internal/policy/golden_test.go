package policy_test

// Golden result corpus: SHA-256 digests of simulation results pinned to
// history. The identity tests compare one execution path against
// another, so a change that moves every path at once passes all of
// them; this corpus compares every path against the digests a past
// simulator committed.
//
// Regenerate after an intended change of results with
//
//	go test ./internal/policy -run '^TestGoldenCorpus$' -update -v
//
// which rewrites testdata/golden.txt and prints the entries that moved
// (go test shows a passing package's output only with -v).
// A moved entry must come with a bump of rescache.Version, the
// generation that makes older cache entries read as stale; the header
// line records the generation the corpus was made at.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/policy"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current simulator and print the entries that moved")

const (
	goldenPath = "testdata/golden.txt"
	// goldenRunLen is each run's length in region executions.
	goldenRunLen = 20000
	// goldenSampleInterval is the observed runs' sampling interval in
	// guest instructions.
	goldenSampleInterval = 25000
)

// goldenObserved is the observed subset: these benchmark × policy runs
// also carry a JSONL tracer, metrics, an audit trail and sampling.
var goldenObserved = map[string][]string{
	"bzip2":  {"powerchop", "agilewatts"},
	"gobmk":  {"powerchop", "agilewatts"},
	"msn":    {"powerchop", "agilewatts"},
	"amazon": {"powerchop", "agilewatts"},
}

// goldenLane is one corpus run: its entry name ("bench policy", plus
// " observed" for the observed subset), its configuration and, when
// observed, the buffer its JSONL tracer writes to.
type goldenLane struct {
	name  string
	cfg   sim.Config
	jsonl *obs.JSONL
	trace *bytes.Buffer
}

// goldenLanes builds a benchmark's corpus runs with fresh managers and
// tracers: every registered policy at its defaults on the benchmark's
// default design, then the observed subset. PowerChop tracks signature
// quality, as figure runs do.
func goldenLanes(t *testing.T, b workload.Benchmark) []goldenLane {
	t.Helper()
	design := arch.Server()
	if b.Mobile {
		design = arch.Mobile()
	}
	plain := func(spec policy.Spec) sim.Config {
		m, err := spec.Manager(nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		return sim.Config{
			Design:          design,
			Manager:         m,
			MaxTranslations: goldenRunLen,
			TrackQuality:    spec.Name == "powerchop",
		}
	}
	var lanes []goldenLane
	for _, spec := range policy.All() {
		lanes = append(lanes, goldenLane{name: b.Name + " " + spec.Name, cfg: plain(spec)})
	}
	for _, name := range goldenObserved[b.Name] {
		spec, ok := policy.Lookup(name)
		if !ok {
			t.Fatalf("unknown policy %q", name)
		}
		l := goldenLane{name: b.Name + " " + name + " observed", cfg: plain(spec), trace: new(bytes.Buffer)}
		l.jsonl = obs.NewJSONL(l.trace)
		l.cfg.Tracer = l.jsonl
		l.cfg.Metrics, l.cfg.Audit = true, true
		l.cfg.SampleInterval = goldenSampleInterval
		lanes = append(lanes, l)
	}
	return lanes
}

// digests returns a finished lane's corpus entries: the digest of its
// Result's rescache payload encoding and, when observed, of its trace.
func (l goldenLane) digests(t *testing.T, res *sim.Result) map[string]string {
	t.Helper()
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{l.name + " result": sha(payload)}
	if l.jsonl != nil {
		if err := l.jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		out[l.name+" trace"] = sha(l.trace.Bytes())
	}
	return out
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestGoldenCorpus checks every registered benchmark × registered policy,
// and the observed subset, against testdata/golden.txt twice: once as
// separate sim.Run calls and once as one sim.RunBatch call per
// benchmark.
func TestGoldenCorpus(t *testing.T) {
	version, want := readGolden(t)
	if !*update && version != rescache.Version {
		t.Fatalf("%s was made at cache generation %q, but rescache.Version is %q: regenerate it with -update",
			goldenPath, version, rescache.Version)
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("bench", func(t *testing.T) {
		for _, b := range workload.All() {
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				p := b.MustBuild()
				solo := map[string]string{}
				for _, l := range goldenLanes(t, b) {
					res, err := sim.Run(p, l.cfg)
					if err != nil {
						t.Fatalf("%s: %v", l.name, err)
					}
					for k, v := range l.digests(t, res) {
						solo[k] = v
					}
				}
				lanes := goldenLanes(t, b)
				cfgs := make([]sim.Config, len(lanes))
				for i, l := range lanes {
					cfgs[i] = l.cfg
				}
				results, err := sim.RunBatch(p, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				for i, l := range lanes {
					for k, v := range l.digests(t, results[i]) {
						if solo[k] != v {
							t.Errorf("%s: RunBatch lane %s, Run %s", k, v, solo[k])
						}
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for k, v := range solo {
					got[k] = v
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	if *update {
		writeGolden(t, version, want, got)
		return
	}
	for _, k := range sortedKeys(got) {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: not in %s", k, goldenPath)
		case w != got[k]:
			t.Errorf("%s moved: golden %s, now %s", k, w, got[k])
		}
	}
	for _, k := range sortedKeys(want) {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: in %s but no longer run", k, goldenPath)
		}
	}
	if t.Failed() {
		t.Logf("a change that moves results bumps rescache.Version and regenerates %s with -update", goldenPath)
	}
}

// readGolden parses the corpus: a "version" header line, then one
// "bench policy [observed] result|trace digest" line per entry. A missing
// file reads as empty so -update can create it.
func readGolden(t *testing.T) (version string, entries map[string]string) {
	t.Helper()
	entries = map[string]string{}
	f, err := os.Open(goldenPath)
	if os.IsNotExist(err) && *update {
		return "", entries
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "version" && len(fields) == 2 {
			version = fields[1]
			continue
		}
		if len(fields) < 4 {
			t.Fatalf("%s:%d: malformed entry %q", goldenPath, line, text)
		}
		n := len(fields) - 1
		entries[strings.Join(fields[:n], " ")] = fields[n]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return version, entries
}

// writeGolden rewrites the corpus and prints every entry that moved,
// appeared or went. Moving an entry without bumping rescache.Version
// fails: caches would keep serving the old results.
func writeGolden(t *testing.T, version string, old, got map[string]string) {
	t.Helper()
	var moved []string
	for _, k := range sortedKeys(got) {
		switch o, ok := old[k]; {
		case !ok:
			fmt.Printf("new   %s %s\n", k, got[k])
		case o != got[k]:
			fmt.Printf("moved %s %s -> %s\n", k, o, got[k])
			moved = append(moved, k)
		}
	}
	for _, k := range sortedKeys(old) {
		if _, ok := got[k]; !ok {
			fmt.Printf("gone  %s %s\n", k, old[k])
		}
	}
	if len(moved) > 0 && version == rescache.Version {
		t.Fatalf("%d entries moved but rescache.Version is still %q: bump it, then regenerate", len(moved), version)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# Golden result corpus: SHA-256 of each run's sim.Result JSON (the rescache\n")
	fmt.Fprintf(&buf, "# payload) and of each observed run's JSONL trace. See golden_test.go.\n")
	fmt.Fprintf(&buf, "version %s\n", rescache.Version)
	for _, k := range sortedKeys(got) {
		fmt.Fprintf(&buf, "%s %s\n", k, got[k])
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
