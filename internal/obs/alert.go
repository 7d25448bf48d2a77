// SLO/alert-rule engine: declarative rules evaluated over registry
// samples on an injectable clock, with a pending → firing → resolved
// state machine per rule. This is the layer that turns the fleet's raw
// telemetry into the operational question the paper's §5 deployment
// story hinges on: is harvesting the guardband currently costing
// reliability anywhere?
//
// Three rule kinds cover the fleet invariants:
//
//   - RuleThreshold: a sample (optionally divided by a second sample)
//     compared against a bound — e.g. unhealthy-board ratio ≥ 25 %.
//   - RuleRate: the per-second rate of change of a sample between
//     evaluations — e.g. SDC events/second over the virtual clock.
//   - RuleAbsence: the sample is missing from the registry entirely —
//     e.g. the poll counter vanished, so the fleet loop is dead.
//
// A rule names its samples by Registry.Snapshot key, but Eval never
// renders a snapshot: each key is resolved to its instrument once, and
// again only after the registry gains a family or child, so an
// evaluation reads just the samples its rules name.
//
// Evaluation is explicitly clocked (Eval), never timer-driven, so alert
// histories are a pure function of the metric stream and the injected
// clock — byte-identical across runs, like every other artifact here.
package obs

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// RuleKind selects the evaluation mode of a rule.
type RuleKind int

const (
	// RuleThreshold compares the sample (or sample/denominator) to the
	// threshold.
	RuleThreshold RuleKind = iota
	// RuleRate compares the sample's per-second rate of change between
	// evaluations to the threshold.
	RuleRate
	// RuleAbsence fires when the sample is absent from the registry.
	RuleAbsence
)

// String names the kind.
func (k RuleKind) String() string {
	switch k {
	case RuleThreshold:
		return "threshold"
	case RuleRate:
		return "rate"
	case RuleAbsence:
		return "absence"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// CmpOp is a rule's comparison operator.
type CmpOp int

const (
	// CmpGE fires when value ≥ threshold.
	CmpGE CmpOp = iota
	// CmpGT fires when value > threshold.
	CmpGT
	// CmpLE fires when value ≤ threshold.
	CmpLE
	// CmpLT fires when value < threshold.
	CmpLT
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case CmpGE:
		return ">="
	case CmpGT:
		return ">"
	case CmpLE:
		return "<="
	case CmpLT:
		return "<"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// cmp applies the operator.
func (o CmpOp) cmp(v, threshold float64) bool {
	switch o {
	case CmpGE:
		return v >= threshold
	case CmpGT:
		return v > threshold
	case CmpLE:
		return v <= threshold
	case CmpLT:
		return v < threshold
	default:
		return false
	}
}

// Rule is one declarative alert condition over Snapshot sample keys
// (`name` or `name{label="value"}`, exactly as Registry.Snapshot renders
// them).
type Rule struct {
	// Name identifies the rule (unique within an engine).
	Name string
	// Metric is the snapshot sample key the rule watches.
	Metric string
	// Denom optionally divides Metric by a second sample (ratio rules);
	// threshold rules only. A zero or missing denominator suppresses the
	// condition for that evaluation.
	Denom string
	// Kind selects threshold, rate-of-change, or absence semantics.
	Kind RuleKind
	// Op compares the evaluated value to Threshold (threshold and rate
	// rules).
	Op CmpOp
	// Threshold is the bound.
	Threshold float64
	// For is how long the condition must hold continuously before the
	// rule fires (0 fires on the first true evaluation).
	For time.Duration
	// Severity tags the alert ("warning", "critical", …).
	Severity string
	// Help documents the rule for API consumers.
	Help string
}

// AlertState is a rule's position in the firing state machine.
type AlertState int

const (
	// AlertInactive: the condition is false.
	AlertInactive AlertState = iota
	// AlertPending: the condition is true but has not yet held For.
	AlertPending
	// AlertFiring: the condition has held For and the alert is active.
	AlertFiring
)

// String names the state.
func (s AlertState) String() string {
	switch s {
	case AlertInactive:
		return "inactive"
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Alert is one rule's externally visible status. Value is NaN while the
// rule has no value: a rate rule before its baseline, or a missing
// sample.
type Alert struct {
	Rule      string
	Severity  string
	Kind      string
	State     AlertState
	Value     float64
	Threshold float64
	Since     time.Duration // start of the current state
	LastEval  time.Duration // engine clock at last Eval
	Help      string
}

// AlertTransition is one recorded firing or resolution.
type AlertTransition struct {
	Seq   uint64
	At    time.Duration
	Rule  string
	To    AlertState // AlertFiring or AlertInactive (resolved)
	Value float64
}

// maxAlertTransitions bounds the retained transition log.
const maxAlertTransitions = 1024

// ruleState is one rule's evaluation memory.
type ruleState struct {
	rule Rule

	metric, denom sampleRef // the rule's keys, resolved at the engine's resolvedAt
	v, d          float64   // this evaluation's metric and denominator samples
	vok, dok      bool      // whether each sample was present

	state      AlertState
	since      time.Duration // start of the current state
	value      float64       // last evaluated value (threshold/rate/ratio)
	condSince  time.Duration // when the condition last became true
	seenSample bool          // rate: a baseline sample exists
	lastSample float64       // rate: previous raw sample
	lastAt     time.Duration // rate: previous sample's clock
}

// AlertEngine evaluates rules against one registry. Construct with
// NewAlertEngine; a nil *AlertEngine is inert.
type AlertEngine struct {
	mu          sync.Mutex
	reg         *Registry
	now         func() time.Duration
	rules       map[string]*ruleState
	order       []*ruleState // registration order, for deterministic Eval
	byName      []*ruleState // sorted by rule name, for Alerts
	stale       bool         // rules added since the keys were last resolved
	resolvedAt  uint64       // registry growth the keys were resolved at
	lastEval    time.Duration
	evals       uint64
	tseq        uint64
	transitions []AlertTransition

	firing      *GaugeVec   // rule → 0/1
	transitionm *CounterVec // rule, to
}

// NewAlertEngine returns an engine reading reg on the given clock (nil
// clock pins the engine at 0 — fine for single-shot tests). The engine
// self-registers its own meta-telemetry (firing gauges, transition
// counters) on the same registry.
func NewAlertEngine(reg *Registry, now func() time.Duration) *AlertEngine {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &AlertEngine{
		reg:   reg,
		now:   now,
		rules: map[string]*ruleState{},
		firing: reg.GaugeVec("xvolt_alert_firing",
			"Whether each alert rule is currently firing (0/1).", "rule"),
		transitionm: reg.CounterVec("xvolt_alert_transitions_total",
			"Alert state transitions, by rule and destination state.", "rule", "to"),
	}
}

// Add registers rules. Invalid rules (empty name/metric, duplicate name,
// denominator on a non-threshold rule) are rejected. Nil-safe.
func (e *AlertEngine) Add(rules ...Rule) error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range rules {
		if r.Name == "" || r.Metric == "" {
			return fmt.Errorf("obs: alert rule needs a name and a metric: %+v", r)
		}
		if _, dup := e.rules[r.Name]; dup {
			return fmt.Errorf("obs: duplicate alert rule %q", r.Name)
		}
		if r.Denom != "" && r.Kind != RuleThreshold {
			return fmt.Errorf("obs: rule %q: denominators apply to threshold rules only", r.Name)
		}
		if r.For < 0 {
			return fmt.Errorf("obs: rule %q: negative For", r.Name)
		}
		st := &ruleState{rule: r, value: math.NaN()}
		e.rules[r.Name] = st
		e.order = append(e.order, st)
		e.byName = insertSorted(e.byName, st, func(o *ruleState) bool { return o.rule.Name > r.Name })
		e.stale = true
		e.firing.With(r.Name).Set(0)
	}
	return nil
}

// Eval runs one evaluation pass at the engine clock's current reading
// and returns the rules' resulting alerts (sorted by rule name).
// Nil-safe (nil).
func (e *AlertEngine) Eval() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	e.readLocked()
	e.lastEval = now
	e.evals++
	for _, st := range e.order {
		e.evalRuleLocked(st, now)
	}
	return e.alertsLocked()
}

// readLocked reads every rule's samples before any rule is evaluated,
// as one Snapshot taken at the start of Eval would hold them. The keys
// are resolved to their instruments again only when rules were added or
// the registry grew since the last resolution: a series registered
// after Add is seen at the next Eval.
//
//xvolt:hotpath every alert evaluation reads its rules' samples here; Registry.Snapshot is its oracle
func (e *AlertEngine) readLocked() {
	if grown := e.reg.growth(); e.stale || grown != e.resolvedAt {
		for _, st := range e.order {
			// No family is named "", so an empty Denom resolves absent.
			st.metric, st.denom = e.reg.lookup(st.rule.Metric), e.reg.lookup(st.rule.Denom)
		}
		e.stale, e.resolvedAt = false, grown
	}
	for _, st := range e.order {
		st.v, st.vok = st.metric.read()
		st.d, st.dok = st.denom.read()
	}
}

// evalRuleLocked folds one rule's samples into its state machine.
func (e *AlertEngine) evalRuleLocked(st *ruleState, now time.Duration) {
	r := st.rule
	cond := false
	switch r.Kind {
	case RuleThreshold:
		v, ok := st.v, st.vok
		if ok && r.Denom != "" {
			if !st.dok || st.d == 0 {
				ok = false
			} else {
				v /= st.d
			}
		}
		if ok {
			st.value = v
			cond = r.Op.cmp(v, r.Threshold)
		} else {
			st.value = math.NaN()
		}

	case RuleRate:
		v, ok := st.v, st.vok
		if ok {
			if st.seenSample && now > st.lastAt {
				rate := (v - st.lastSample) / (now - st.lastAt).Seconds()
				st.value = rate
				cond = r.Op.cmp(rate, r.Threshold)
			}
			if !st.seenSample || now > st.lastAt {
				st.lastSample, st.lastAt, st.seenSample = v, now, true
			}
		} else {
			st.seenSample = false
			st.value = math.NaN()
		}

	case RuleAbsence:
		cond = !st.vok
		st.value = 0
		if cond {
			st.value = 1
		}
	}

	switch {
	case cond && st.state == AlertInactive:
		st.condSince = now
		st.state = AlertPending
		st.since = now
		fallthrough
	case cond && st.state == AlertPending:
		if now-st.condSince >= r.For {
			st.state = AlertFiring
			st.since = now
			e.recordTransitionLocked(st, now)
		}
	case !cond && st.state != AlertInactive:
		fired := st.state == AlertFiring
		st.state = AlertInactive
		st.since = now
		if fired {
			e.recordTransitionLocked(st, now)
		}
	}
}

// recordTransitionLocked appends to the bounded transition log and
// publishes the meta-telemetry.
func (e *AlertEngine) recordTransitionLocked(st *ruleState, now time.Duration) {
	e.tseq++
	e.transitions = append(e.transitions, AlertTransition{
		Seq: e.tseq, At: now, Rule: st.rule.Name, To: st.state, Value: st.value,
	})
	if len(e.transitions) > maxAlertTransitions {
		e.transitions = e.transitions[len(e.transitions)-maxAlertTransitions:]
	}
	e.transitionm.With(st.rule.Name, st.state.String()).Inc()
	if st.state == AlertFiring {
		e.firing.With(st.rule.Name).Set(1)
	} else {
		e.firing.With(st.rule.Name).Set(0)
	}
}

// Alerts returns every rule's current status, sorted by rule name.
// Nil-safe (nil).
func (e *AlertEngine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.alertsLocked()
}

func (e *AlertEngine) alertsLocked() []Alert {
	out := make([]Alert, 0, len(e.byName))
	for _, st := range e.byName {
		out = append(out, Alert{
			Rule:      st.rule.Name,
			Severity:  st.rule.Severity,
			Kind:      st.rule.Kind.String(),
			State:     st.state,
			Value:     st.value,
			Threshold: st.rule.Threshold,
			Since:     st.since,
			LastEval:  e.lastEval,
			Help:      st.rule.Help,
		})
	}
	return out
}

// Firing returns the currently firing alerts, sorted by rule name.
// Nil-safe (nil).
func (e *AlertEngine) Firing() []Alert {
	var out []Alert
	for _, a := range e.Alerts() {
		if a.State == AlertFiring {
			out = append(out, a)
		}
	}
	return out
}

// Transitions returns a copy of the retained firing/resolved log.
// Nil-safe (nil).
func (e *AlertEngine) Transitions() []AlertTransition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]AlertTransition(nil), e.transitions...)
}

// Evals reports how many evaluation passes have run. Nil-safe (0).
func (e *AlertEngine) Evals() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}
