package powerchop

import "powerchop/internal/policy"

// ParamSpec is the public view of one policy parameter's schema entry.
type ParamSpec struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Default     float64 `json:"default"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
}

// PolicyInfo is the public view of one registered gating policy.
type PolicyInfo struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Params      []ParamSpec `json:"params,omitempty"`
}

// Policies lists every registered gating policy with its parameter
// schema, sorted by name. The listing is the source the CLI's
// `powerchop policies` subcommand and the serve API's /api/policies
// endpoint render.
func Policies() []PolicyInfo {
	specs := policy.All()
	out := make([]PolicyInfo, 0, len(specs))
	for _, s := range specs {
		info := PolicyInfo{Name: s.Name, Description: s.Description}
		for _, p := range s.Params {
			info.Params = append(info.Params, ParamSpec{
				Name:        p.Name,
				Description: p.Description,
				Default:     p.Default,
				Min:         p.Min,
				Max:         p.Max,
			})
		}
		out = append(out, info)
	}
	return out
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string { return policy.Names() }

// PolicyFingerprint returns the deterministic identity of (policy,
// params): the registered name plus the canonical rendering of the
// fully resolved parameters — the same string Run folds into persistent
// result-cache keys. It errors on an unknown policy, an unknown
// parameter or an out-of-bounds value.
func PolicyFingerprint(name string, params map[string]float64) (string, error) {
	spec, err := resolvePolicy(name)
	if err != nil {
		return "", err
	}
	return spec.Fingerprint(params)
}
