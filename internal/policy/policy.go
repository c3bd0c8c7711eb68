// Package policy is the gating-policy plugin registry: every power
// manager the simulator can run — PowerChop itself, the paper's
// baselines, and the competing policies of the zoo (DarkGates-style
// bypass gating, AgileWatts-style hierarchical idle states) — registers
// here as a Spec carrying its name, a parameter schema with defaults and
// bounds, and a factory producing a fresh core.Manager per run.
//
// The registry is the single source of truth for manager construction:
// the public Options.Manager string resolves through Lookup, the CLI's
// usage text and the serve API's /api/policies listing derive from
// Names/All, and the auto-tuner sweeps a Spec's parameter grid. Each
// (spec, parameters) pair has a deterministic fingerprint — the spec
// name plus the canonical rendering of its resolved parameters — which
// threads policy identity into persistent result-cache keys, so two
// processes sweeping the same grid share cached simulations exactly.
package policy

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"powerchop/internal/core"
	"powerchop/internal/rescache"
)

// Param describes one tunable parameter of a policy: its schema entry.
type Param struct {
	// Name keys the parameter in a Params map (kebab-case by
	// convention, e.g. "idle-cycles").
	Name string
	// Description says what the parameter controls.
	Description string
	// Default is the value used when the parameter is not supplied.
	Default float64
	// Min and Max bound accepted values inclusively.
	Min, Max float64
}

// Params is a parameter assignment for a policy. A nil map selects
// every default.
type Params map[string]float64

// Clone returns an independent copy (nil stays nil).
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// MaxGridPoints bounds a parameter sweep: neither one axis of a grid
// nor the product of its axes may exceed it. The largest default grid
// has 243 points (agilewatts: three values for each of five
// parameters).
const MaxGridPoints = 1024

// Spec is one registered gating policy.
type Spec struct {
	// Name is the registry key and the Options.Manager string selecting
	// the policy (e.g. "powerchop", "darkgates").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Params is the parameter schema, in declaration order.
	Params []Param
	// Build constructs a fresh manager for one run from a fully
	// resolved parameter set (every schema parameter present, bounds
	// already checked). Managers are stateful: Build must never return
	// a shared instance.
	Build func(p Params) (core.Manager, error)
}

// Defaults returns the schema's default assignment.
func (s Spec) Defaults() Params {
	out := make(Params, len(s.Params))
	for _, p := range s.Params {
		out[p.Name] = p.Default
	}
	return out
}

// param finds a schema entry by name.
func (s Spec) param(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Validate checks an assignment against the schema: every supplied key
// must exist and every value must sit within its parameter's bounds
// (NaN never does).
// Missing parameters are fine — Resolve fills defaults.
func (s Spec) Validate(p Params) error {
	// Deterministic error selection: report the lexically first
	// offending key, not a map-iteration-order-dependent one.
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sp, ok := s.param(k)
		if !ok {
			return fmt.Errorf("policy %s: unknown parameter %q (known: %v)", s.Name, k, s.paramNames())
		}
		// NaN compares false against both bounds, so it is rejected
		// explicitly: it would otherwise pass and fingerprint as "NaN".
		if v := p[k]; math.IsNaN(v) || v < sp.Min || v > sp.Max {
			return fmt.Errorf("policy %s: parameter %s = %v out of [%v, %v]", s.Name, k, v, sp.Min, sp.Max)
		}
	}
	return nil
}

// paramNames lists the schema's parameter names in declaration order.
func (s Spec) paramNames() []string {
	out := make([]string, len(s.Params))
	for i, p := range s.Params {
		out[i] = p.Name
	}
	return out
}

// Resolve validates an assignment and overlays it on the defaults,
// returning the complete parameter set Build consumes.
func (s Spec) Resolve(p Params) (Params, error) {
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	out := s.Defaults()
	for k, v := range p {
		out[k] = v
	}
	return out, nil
}

// Fingerprint returns the deterministic identity of (policy, params)
// for result-cache keys and tuner bookkeeping: the spec name plus the
// canonical rendering of the fully resolved parameters. Two
// assignments that resolve to the same values fingerprint identically
// regardless of which defaults were spelled out.
func (s Spec) Fingerprint(p Params) (string, error) {
	resolved, err := s.Resolve(p)
	if err != nil {
		return "", err
	}
	return s.Name + rescache.CanonicalParams(resolved), nil
}

// Manager resolves the parameters and builds a fresh manager.
func (s Spec) Manager(p Params) (core.Manager, error) {
	resolved, err := s.Resolve(p)
	if err != nil {
		return nil, err
	}
	return s.Build(resolved)
}

// registry is the process-wide spec table. Registration happens in
// package init functions; lookups are read-mostly and may be
// concurrent (figure sweeps build managers from many goroutines).
var (
	mu       sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds a spec. It panics on a duplicate name, an empty name,
// a nil factory or an inconsistent schema — registration is init-time
// wiring, and a broken spec is a programming error.
func Register(s Spec) {
	if s.Name == "" {
		panic("policy: registering spec with empty name")
	}
	if s.Build == nil {
		panic(fmt.Sprintf("policy %s: nil Build factory", s.Name))
	}
	seen := map[string]bool{}
	for _, p := range s.Params {
		if p.Name == "" {
			panic(fmt.Sprintf("policy %s: unnamed parameter", s.Name))
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("policy %s: duplicate parameter %q", s.Name, p.Name))
		}
		seen[p.Name] = true
		if p.Min > p.Max || p.Default < p.Min || p.Default > p.Max {
			panic(fmt.Sprintf("policy %s: parameter %s default %v outside [%v, %v]",
				s.Name, p.Name, p.Default, p.Min, p.Max))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
}

// Lookup finds a spec by name.
func Lookup(name string) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered policy names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered spec, sorted by name.
func All() []Spec {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
