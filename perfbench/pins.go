package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"powerchop"
)

// pinsJSON holds the digests of the outputs that do not depend on the
// seed, generated with -pin. A change that shifts these results turns
// the affected operations into failures until the pins are regenerated.
//
//go:embed pins.json
var pinsJSON []byte

type pins struct {
	// FiguresScale is the Headline run-length scale the digest was
	// taken at.
	FiguresScale float64 `json:"figures_scale"`
	// Headline is the digest of the cold Headline rows.
	Headline string `json:"headline"`
	// Reports pins the canonical Report of every benchmark × manager the
	// serve mix can draw, keyed "bench/manager".
	Reports map[string]pinnedReport `json:"reports"`
}

type pinnedReport struct {
	Digest string `json:"digest"`
	// Insns is the run's guest instruction count.
	Insns uint64 `json:"insns"`
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if p.FiguresScale != figuresScale {
		return nil, fmt.Errorf("pins.json was made at figures scale %g, not %g", p.FiguresScale, figuresScale)
	}
	return &p, nil
}

// digest is the SHA-256 of v's JSON encoding, the canonical form every
// checked output is compared in. An output that cannot be encoded (a
// NaN, say) gets a digest that matches no pin.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writePins regenerates pins.json: the cold Headline at the figures
// scale and a solo Run of every pair the serve mix can draw, with the
// options /api/run uses (observers are pure, so the Reports are equal).
func writePins(path string) error {
	dir, err := os.MkdirTemp("", "perfbench-pin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rows, err := powerchop.NewFigureRunner(figuresScale,
		powerchop.WithJobs(runtime.NumCPU()), powerchop.WithCacheDir(dir)).Headline()
	if err != nil {
		return err
	}
	p := pins{FiguresScale: figuresScale, Headline: digest(rows), Reports: map[string]pinnedReport{}}

	var pairs []string
	for _, b := range powerchop.SortedBenchmarks() {
		for _, m := range serveManagers() {
			pairs = append(pairs, b+"/"+m)
		}
	}
	sort.Strings(pairs)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	next := make(chan string)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pair := range next {
				bench, manager := splitPair(pair)
				rep, err := powerchop.Run(bench, powerchop.Options{Manager: manager})
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", pair, err))
				} else {
					p.Reports[pair] = pinnedReport{Digest: digest(rep), Insns: rep.Instructions}
				}
				mu.Unlock()
			}
		}()
	}
	for _, pair := range pairs {
		next <- pair
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
