package alert

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"powerchop/internal/obs"
	"powerchop/internal/obs/runlog"
	"powerchop/internal/obs/tsdb"
)

// DefaultEvery is the evaluation stride for series rules, in windows.
const DefaultEvery = 16

// DefaultMaxTransitions bounds the in-memory transition history kept
// for /api/alerts.
const DefaultMaxTransitions = 512

// Config wires an Evaluator to its sources and sinks. Every field but
// Rules is optional: a nil Store skips series rules, a nil Metrics
// function skips registry rules, and nil sinks are simply not fed.
type Config struct {
	// Rules is the rule set (validated by New).
	Rules []Rule
	// Store is the telemetry store series rules query.
	Store *tsdb.Store
	// Metrics snapshots the registry for metric rules (typically
	// Registry.Snapshot).
	Metrics func() *obs.Snapshot
	// Every is the series evaluation stride in windows (default
	// DefaultEvery). Series rules are evaluated exactly at window
	// ordinals that are multiples of Every, making the evaluation
	// schedule a pure function of the data.
	Every uint64
	// Sink receives each transition as an obs.KindAlert event.
	Sink obs.Tracer
	// Journal records each transition as a runlog record
	// (kind "alert", outcome = the new state).
	Journal *runlog.Store
	// Webhook receives each transition for delivery (see Webhook).
	Webhook *Webhook
	// Registry, when set, hosts the evaluator's own instruments:
	// alerts.evals, alerts.transitions, alerts.firing.
	Registry *obs.Registry
	// MaxTransitions bounds the retained transition history (default
	// DefaultMaxTransitions). Older transitions are dropped and counted.
	MaxTransitions int
}

// Transition is one state-machine edge of one rule. It is fully
// determined by the evaluated data — no wall-clock field — so live and
// offline evaluations of the same stream produce identical transitions.
type Transition struct {
	Rule  string `json:"rule"`
	State string `json:"state"` // pending | firing | resolved
	// Window is the evaluation boundary for series rules (0 for metric
	// rules); Tick the evaluation tick for metric rules (0 for series
	// rules); Cycle the simulated cycle of the boundary's last sample.
	Window uint64  `json:"window,omitempty"`
	Tick   uint64  `json:"tick,omitempty"`
	Cycle  float64 `json:"cycle,omitempty"`
	// Value is the observed value (z-score for anomaly rules) and
	// Threshold the rule's threshold (sigma for anomaly rules).
	Value     float64           `json:"value"`
	Threshold float64           `json:"threshold"`
	Labels    map[string]string `json:"labels,omitempty"`
}

// ruleState is one rule plus its state machine.
type ruleState struct {
	rule  Rule
	state string // inactive | pending | firing
	holds int    // consecutive true evaluation points
	// pendingSent dedupes the pending transition: it is emitted at most
	// once per episode, however often the rule flaps below its For span.
	pendingSent bool
	lastValue   float64
	evaluated   bool
	sinceAt     uint64 // window (series) or tick (metric) of state entry
	// increase-aggregator memory.
	prevVal, prevPer float64
	primed           bool
}

// Evaluator runs the rule set. Use New; the zero value is not usable.
type Evaluator struct {
	mu           sync.Mutex
	store        *tsdb.Store
	snap         func() *obs.Snapshot
	every        uint64
	sink         obs.Tracer
	journal      *runlog.Store
	webhook      *Webhook
	rules        []*ruleState
	lastBoundary uint64
	tick         uint64
	firedTotal   uint64
	history      []Transition
	maxHist      int
	dropped      uint64

	evals       *obs.Counter
	transitions *obs.Counter
	firing      *obs.Gauge
}

// New builds an evaluator. The rule set is validated; series-rule
// defaults (agg mean, window 1) are normalized in.
func New(cfg Config) (*Evaluator, error) {
	if err := Validate(cfg.Rules); err != nil {
		return nil, err
	}
	ev := &Evaluator{
		store:   cfg.Store,
		snap:    cfg.Metrics,
		every:   cfg.Every,
		sink:    cfg.Sink,
		journal: cfg.Journal,
		webhook: cfg.Webhook,
		maxHist: cfg.MaxTransitions,
	}
	if ev.every == 0 {
		ev.every = DefaultEvery
	}
	if ev.maxHist == 0 {
		ev.maxHist = DefaultMaxTransitions
	}
	for _, r := range cfg.Rules {
		r := r
		if r.Expr.Series != "" && r.Expr.Kind != KindAnomaly {
			if r.Expr.Agg == "" {
				r.Expr.Agg = "mean"
			}
			if r.Expr.Window == 0 {
				r.Expr.Window = 1
			}
		}
		if r.Expr.Metric != "" && r.Expr.Agg == "" {
			r.Expr.Agg = "value"
		}
		ev.rules = append(ev.rules, &ruleState{rule: r, state: StateInactive})
	}
	if reg := cfg.Registry; reg != nil {
		ev.evals = reg.Counter("alerts.evals")
		ev.transitions = reg.Counter("alerts.transitions")
		ev.firing = reg.Gauge("alerts.firing")
	}
	return ev, nil
}

// Rules returns the normalized rule set, in declaration order.
func (ev *Evaluator) Rules() []Rule {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	out := make([]Rule, len(ev.rules))
	for i, rs := range ev.rules {
		out[i] = rs.rule
	}
	return out
}

// Eval runs one evaluation pass: it catches up every series boundary
// the store has reached since the last pass (multiples of Every up to
// Store.LatestWindow) and evaluates metric rules once against a fresh
// registry snapshot. Safe for concurrent use; transitions are emitted
// to the sinks outside the lock.
func (ev *Evaluator) Eval() {
	ev.mu.Lock()
	var out []Transition
	if ev.store != nil {
		latest := ev.store.LatestWindow()
		for b := ev.lastBoundary + ev.every; b <= latest; b += ev.every {
			for _, rs := range ev.rules {
				if rs.rule.Expr.Series == "" {
					continue
				}
				val, thr, cycle, cond, ok := ev.evalSeries(rs, b)
				if tr := rs.step(ok && cond, val, thr, b, 0, cycle); tr != nil {
					out = append(out, *tr)
				}
			}
			ev.lastBoundary = b
		}
	}
	ev.tick++
	if ev.snap != nil {
		s := ev.snap()
		for _, rs := range ev.rules {
			if rs.rule.Expr.Metric == "" {
				continue
			}
			val, ok := rs.evalMetric(s)
			cond := ok && compare(rs.rule.Expr.Op, val, rs.rule.Expr.Threshold)
			if tr := rs.step(cond, val, rs.rule.Expr.Threshold, 0, ev.tick, 0); tr != nil {
				out = append(out, *tr)
			}
		}
	}
	for _, tr := range out {
		if tr.State == StateFiring {
			ev.firedTotal++
		}
		if len(ev.history) >= ev.maxHist {
			n := copy(ev.history, ev.history[1:])
			ev.history = ev.history[:n]
			ev.dropped++
		}
		ev.history = append(ev.history, tr)
	}
	firing := 0
	for _, rs := range ev.rules {
		if rs.state == StateFiring {
			firing++
		}
	}
	ev.mu.Unlock()

	if ev.evals != nil {
		ev.evals.Add(1)
	}
	if ev.firing != nil {
		ev.firing.Set(float64(firing))
	}
	for _, tr := range out {
		ev.emit(tr)
	}
}

// emit fans one transition out to the configured sinks.
func (ev *Evaluator) emit(tr Transition) {
	if ev.transitions != nil {
		ev.transitions.Add(1)
	}
	if ev.sink != nil {
		ev.sink.Emit(obs.Event{
			Kind:   obs.KindAlert,
			Unit:   tr.Rule,
			Detail: tr.State,
			Window: tr.Window,
			Cycle:  tr.Cycle,
			Count:  tr.Tick,
			Value:  tr.Value,
			Prev:   tr.Threshold,
		})
	}
	if ev.journal != nil {
		at := fmt.Sprintf("window=%d", tr.Window)
		if tr.Window == 0 {
			at = fmt.Sprintf("tick=%d", tr.Tick)
		}
		_ = ev.journal.Append(runlog.Record{
			Kind:    "alert",
			Name:    tr.Rule,
			Params:  fmt.Sprintf("%s value=%g threshold=%g", at, tr.Value, tr.Threshold),
			Outcome: tr.State,
		})
	}
	if ev.webhook != nil {
		ev.webhook.Enqueue(tr)
	}
}

// evalSeries evaluates one series rule at boundary b. ok is false when
// the range holds no data (missing series, empty range) — the condition
// is then treated as false without consuming the rule's damping state.
func (ev *Evaluator) evalSeries(rs *ruleState, b uint64) (val, thr, cycle float64, cond, ok bool) {
	e := rs.rule.Expr
	if e.Kind == KindAnomaly {
		return ev.evalAnomaly(rs, b)
	}
	from := uint64(1)
	if b > e.Window {
		from = b - e.Window + 1
	}
	res, err := ev.store.Query(tsdb.Query{Series: e.Series, From: from, To: b, Agg: e.Agg})
	if err != nil || len(res.Points) == 0 {
		return 0, e.Threshold, 0, false, false
	}
	pts := res.Points
	cycle = pts[len(pts)-1].Cycle
	var samples uint64
	for _, p := range pts {
		samples += p.Count
	}
	switch e.Agg {
	case "mean":
		if samples == 0 {
			return 0, e.Threshold, cycle, false, false
		}
		var sum float64
		for _, p := range pts {
			sum += p.Mean * float64(p.Count)
		}
		val = sum / float64(samples)
	case "min":
		val = math.Inf(1)
		for _, p := range pts {
			val = math.Min(val, p.Min)
		}
	case "max":
		val = math.Inf(-1)
		for _, p := range pts {
			val = math.Max(val, p.Max)
		}
	case "last":
		val = pts[len(pts)-1].Last
	case "sum":
		for _, p := range pts {
			val += p.Mean * float64(p.Count)
		}
	case "count":
		val = float64(samples)
	}
	return val, e.Threshold, cycle, compare(e.Op, val, e.Threshold), true
}

// evalAnomaly computes the z-score of window b's value against the
// prior BaselineWindows raw points. The reported value is the z-score
// and the threshold is sigma. A zero-variance baseline scores 0 when
// the value matches the baseline mean and sigma+1 (anomalous) when it
// does not — both finite and reproducible offline.
func (ev *Evaluator) evalAnomaly(rs *ruleState, b uint64) (val, thr, cycle float64, cond, ok bool) {
	e := rs.rule.Expr
	cur, err := ev.store.Query(tsdb.Query{Series: e.Series, From: b, To: b})
	if err != nil || len(cur.Points) == 0 {
		return 0, e.Sigma, 0, false, false
	}
	x := cur.Points[0].Mean
	cycle = cur.Points[0].Cycle
	from := uint64(1)
	if b > e.BaselineWindows {
		from = b - e.BaselineWindows
	}
	base, err := ev.store.Query(tsdb.Query{Series: e.Series, From: from, To: b - 1})
	if err != nil || len(base.Points) < 2 {
		return 0, e.Sigma, cycle, false, false
	}
	var mu float64
	for _, p := range base.Points {
		mu += p.Mean
	}
	mu /= float64(len(base.Points))
	var varsum float64
	for _, p := range base.Points {
		d := p.Mean - mu
		varsum += d * d
	}
	sigma := math.Sqrt(varsum / float64(len(base.Points)))
	var z float64
	switch {
	case sigma > 0:
		z = math.Abs(x-mu) / sigma
	case x != mu:
		z = e.Sigma + 1
	}
	return z, e.Sigma, cycle, z > e.Sigma, true
}

// evalMetric evaluates one metric rule against a registry snapshot.
func (rs *ruleState) evalMetric(s *obs.Snapshot) (float64, bool) {
	e := rs.rule.Expr
	if e.When != nil {
		gv, ok := snapValue(s, e.When.Metric)
		if !ok || !compare(e.When.Op, gv, e.When.Threshold) {
			return 0, false
		}
	}
	switch e.Agg {
	case "value":
		return snapValue(s, e.Metric)
	case "increase":
		cur, ok := snapValue(s, e.Metric)
		if !ok {
			return 0, false
		}
		curPer := 0.0
		if e.Per != "" {
			if curPer, ok = snapValue(s, e.Per); !ok {
				return 0, false
			}
		}
		if !rs.primed {
			rs.primed = true
			rs.prevVal, rs.prevPer = cur, curPer
			return 0, false
		}
		d, dp := cur-rs.prevVal, curPer-rs.prevPer
		rs.prevVal, rs.prevPer = cur, curPer
		if e.Per != "" {
			if dp <= 0 {
				return 0, false
			}
			return d / dp, true
		}
		return d, true
	default: // histogram aggregators
		h, ok := s.Histogram(e.Metric)
		if !ok || h.Count == 0 {
			return 0, false
		}
		switch e.Agg {
		case "p50":
			return h.Quantile(0.50), true
		case "p90":
			return h.Quantile(0.90), true
		case "p99":
			return h.Quantile(0.99), true
		case "mean":
			return h.Mean(), true
		case "min":
			return h.Min, true
		case "max":
			return h.Max, true
		case "count":
			return float64(h.Count), true
		}
	}
	return 0, false
}

// snapValue resolves a metric name against a snapshot: counter value,
// gauge value, or histogram observation count.
func snapValue(s *obs.Snapshot, name string) (float64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return float64(c.Value), true
		}
	}
	if v, ok := s.Gauge(name); ok {
		return v, true
	}
	if h, ok := s.Histogram(name); ok {
		return float64(h.Count), true
	}
	return 0, false
}

// compare applies a threshold operator.
func compare(op string, v, thr float64) bool {
	switch op {
	case "<":
		return v < thr
	case "<=":
		return v <= thr
	case ">":
		return v > thr
	case ">=":
		return v >= thr
	case "==":
		return v == thr
	case "!=":
		return v != thr
	}
	return false
}

// step advances the rule's state machine by one evaluation point and
// returns the transition to emit, if any. at is the point's identity:
// window for series rules, tick for metric rules.
func (rs *ruleState) step(cond bool, val, thr float64, window, tick uint64, cycle float64) *Transition {
	rs.lastValue = val
	rs.evaluated = true
	at := window
	if at == 0 {
		at = tick
	}
	make := func(state string) *Transition {
		return &Transition{
			Rule: rs.rule.Name, State: state,
			Window: window, Tick: tick, Cycle: cycle,
			Value: val, Threshold: thr, Labels: rs.rule.Labels,
		}
	}
	switch rs.state {
	case StateInactive:
		if !cond {
			return nil
		}
		rs.holds = 1
		if rs.rule.For > 1 {
			rs.state = StatePending
			rs.sinceAt = at
			if rs.pendingSent {
				return nil
			}
			rs.pendingSent = true
			return make(StatePending)
		}
		rs.state = StateFiring
		rs.sinceAt = at
		rs.pendingSent = false
		return make(StateFiring)
	case StatePending:
		if !cond {
			// Condition lapsed before the damping span elapsed: cancel
			// silently. pendingSent stays set, so a flapping rule emits
			// its pending transition once, not per flap.
			rs.state = StateInactive
			rs.holds = 0
			return nil
		}
		rs.holds++
		if rs.holds >= rs.rule.For {
			rs.state = StateFiring
			rs.sinceAt = at
			rs.pendingSent = false
			return make(StateFiring)
		}
		return nil
	case StateFiring:
		if cond {
			return nil
		}
		rs.state = StateInactive
		rs.holds = 0
		rs.pendingSent = false
		return make(StateResolved)
	}
	return nil
}

// RuleStatus is one rule's current state for /api/alerts.
type RuleStatus struct {
	Name   string `json:"name"`
	State  string `json:"state"`
	Source string `json:"source"`
	// Value is the rule's last evaluated value (z-score for anomaly
	// rules); meaningful once Evaluated is true.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Evaluated bool    `json:"evaluated"`
	// Since is the window (series) or tick (metric) at which the rule
	// entered its current non-inactive state.
	Since  uint64            `json:"since,omitempty"`
	For    int               `json:"for,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
}

// Snapshot is the full evaluator state for /api/alerts.
type Snapshot struct {
	Rules  []RuleStatus `json:"rules"`
	Firing int          `json:"firing"`
	// Evals counts evaluation passes, LastWindow the newest series
	// boundary evaluated.
	Evals      uint64 `json:"evals"`
	LastWindow uint64 `json:"last_window"`
	// Transitions is the retained history, oldest first, and empty (not
	// null) before any rule changes state; Dropped counts older
	// transitions evicted from it.
	Transitions []Transition `json:"transitions"`
	Dropped     uint64       `json:"dropped_transitions,omitempty"`
	// FiredTotal counts firing transitions ever emitted.
	FiredTotal uint64 `json:"fired_total"`
}

// Snapshot returns the evaluator's current state.
func (ev *Evaluator) Snapshot() Snapshot {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	snap := Snapshot{
		Evals:       ev.tick,
		LastWindow:  ev.lastBoundary,
		Dropped:     ev.dropped,
		FiredTotal:  ev.firedTotal,
		Transitions: append([]Transition{}, ev.history...),
	}
	for _, rs := range ev.rules {
		src := rs.rule.Expr.Series
		if src == "" {
			src = rs.rule.Expr.Metric
		}
		thr := rs.rule.Expr.Threshold
		if rs.rule.Expr.Kind == KindAnomaly {
			thr = rs.rule.Expr.Sigma
		}
		st := RuleStatus{
			Name: rs.rule.Name, State: rs.state, Source: src,
			Value: rs.lastValue, Threshold: thr, Evaluated: rs.evaluated,
			For: rs.rule.For, Labels: rs.rule.Labels,
		}
		if rs.state != StateInactive {
			st.Since = rs.sinceAt
		}
		if rs.state == StateFiring {
			snap.Firing++
		}
		snap.Rules = append(snap.Rules, st)
	}
	return snap
}

// Transitions returns a copy of the retained transition history,
// oldest first.
func (ev *Evaluator) Transitions() []Transition {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return append([]Transition(nil), ev.history...)
}

// FiredTotal counts firing transitions ever emitted.
func (ev *Evaluator) FiredTotal() uint64 {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.firedTotal
}

// FiringCount reports how many rules are currently firing. It
// implements the serve layer's AlertSource.
func (ev *Evaluator) FiringCount() int {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	n := 0
	for _, rs := range ev.rules {
		if rs.state == StateFiring {
			n++
		}
	}
	return n
}

// AlertsJSON renders the snapshot as indented JSON for /api/alerts. It
// implements the serve layer's AlertSource.
func (ev *Evaluator) AlertsJSON() ([]byte, error) {
	return json.MarshalIndent(ev.Snapshot(), "", "  ")
}

// Start runs Eval on a ticker until the returned stop function is
// called. Stop performs one final catch-up pass so boundaries reached
// just before shutdown are still evaluated; it is idempotent.
func (ev *Evaluator) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ev.Eval()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			ev.Eval()
		})
	}
}
