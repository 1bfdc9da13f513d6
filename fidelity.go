// fidelity.go is the adaptive fidelity ladder of the serving layer: a
// cheap triage pre-pass (internal/triage) classifies each admitted
// document FULL / CHEAP / SKIP, and a load controller shifts the triage
// thresholds up under saturation and back down on recovery — trading
// fidelity for throughput *before* admission control has to shed work
// with ErrOverloaded. Every cheap-path routing is recorded in
// Result.Degraded (fallback "triage-cheap" / "triage-skip"), so a
// degraded answer is never silently passed off as a full-fidelity one.
//
// The ladder is opt-in: the zero FidelityPolicy (and Mode "off") leaves
// the server byte-identical to one without the subsystem, which is what
// the durability and determinism contracts of the journal/resume and
// vs2d≡vs2serve suites pin.
package vs2

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"vs2/internal/obs"
	"vs2/internal/serve"
	"vs2/internal/triage"
)

// PhaseTriage is the fidelity ladder's pre-pass stage: degradations
// carrying it mean the document was routed onto a cheaper path by
// choice (complexity triage under the current fidelity level), not
// because anything failed.
const PhaseTriage Phase = "triage"

// Fidelity modes.
const (
	// FidelityOff disables the ladder entirely; the empty string means
	// the same. The server behaves exactly as one without the subsystem.
	FidelityOff = "off"
	// FidelityPinned holds the fidelity level at FidelityPolicy.Pin. A
	// context-carried level (WithFidelity — the level in the sharded
	// front end's request frame) still overrides per document.
	FidelityPinned = "pinned"
	// FidelityAdaptive runs the load controller: the level shifts up
	// under saturation and back down on recovery.
	FidelityAdaptive = "adaptive"
)

// FidelityPolicy tunes the serving layer's fidelity ladder. The zero
// value is off: no triage, no controller, bit-for-bit the pre-ladder
// behavior.
type FidelityPolicy struct {
	// Mode selects the ladder: FidelityOff (or ""), FidelityPinned or
	// FidelityAdaptive.
	Mode string
	// Levels is the deepest degradation rung; 0 selects 3.
	Levels int
	// Pin is the level a pinned-mode server holds (clamped to
	// [0, Levels]). Pin 0 enables triage at base thresholds only —
	// the mode the sharded workers run in, so the level in the front
	// end's request frame (WithFidelity) decides per document.
	Pin int
	// Triage is the level-0 complexity thresholds; the zero value
	// selects the triage package defaults.
	Triage triage.Policy
	// Interval is the adaptive controller's evaluation cadence; 0
	// selects 500ms.
	Interval time.Duration
	// HighLoad / LowLoad are the queue-occupancy watermarks (0 selects
	// 0.75 / 0.25); HighWaitMS / LowWaitMS the queue-wait p95 watermarks
	// (0 disables the wait signal). See triage.ControllerConfig.
	HighLoad, LowLoad     float64
	HighWaitMS, LowWaitMS float64
	// RaiseAfter / LowerAfter are the hysteresis streak lengths (0
	// selects 2 / 4); JitterHold bounds the seeded anti-flap hold after
	// a shift (0 selects 2, negative disables).
	RaiseAfter, LowerAfter int
	JitterHold             int
	// Seed drives the controller's jitter.
	Seed int64
}

// enabled reports whether the ladder does anything at all.
func (f FidelityPolicy) enabled() bool {
	return f.Mode == FidelityPinned || f.Mode == FidelityAdaptive
}

// levels resolves the Levels default.
func (f FidelityPolicy) levels() int {
	if f.Levels <= 0 {
		return 3
	}
	return f.Levels
}

type fidelityCtxKey struct{}

// WithFidelity returns a context carrying an explicit fidelity level
// for the documents extracted under it. On a server whose ladder is
// enabled (pinned or adaptive) the carried level overrides the server's
// own — this is how the sharded front end propagates one coherent
// level to every worker. A server with the ladder off ignores it.
func WithFidelity(ctx context.Context, level int) context.Context {
	if level < 0 {
		level = 0
	}
	return context.WithValue(ctx, fidelityCtxKey{}, level)
}

// FidelityFrom reports the context-carried fidelity level, if any.
func FidelityFrom(ctx context.Context) (int, bool) {
	lvl, ok := ctx.Value(fidelityCtxKey{}).(int)
	return lvl, ok
}

// triageDecision is the pre-pass verdict the serving layer attaches to
// the extraction context; ExtractContext routes on it and records the
// choice in Result.Degraded.
type triageDecision struct {
	class  triage.Class
	level  int
	score  triage.Score
	policy triage.Policy // thresholds as applied at level
}

// cause renders the deterministic one-line reason recorded in the
// Degradation (and therefore in journaled output lines — no clocks, no
// floats beyond fixed precision).
func (t triageDecision) cause() error {
	threshold, band := t.policy.CheapBelow, "cheap"
	if t.class == triage.Skip {
		threshold, band = t.policy.SkipBelow, "skip"
	}
	return fmt.Errorf("complexity %.3f below %s threshold %.3f at fidelity level %d",
		t.score.Complexity, band, threshold, t.level)
}

type triageCtxKey struct{}

func withTriageDecision(ctx context.Context, dec triageDecision) context.Context {
	return context.WithValue(ctx, triageCtxKey{}, dec)
}

func triageDecisionFrom(ctx context.Context) (triageDecision, bool) {
	dec, ok := ctx.Value(triageCtxKey{}).(triageDecision)
	return dec, ok
}

// startFidelity wires the server's fidelity subsystem per its policy;
// called once from NewServer, after the breakers exist (the adaptive
// controller watches them).
func (s *Server) startFidelity() {
	f := s.cfg.Fidelity
	if !f.enabled() {
		return
	}
	if f.Mode == FidelityAdaptive {
		// The controller's wait signal reads a short sliding window of
		// queue waits — saturation shows up here within seconds, and
		// recovery ages out just as fast.
		s.waitWin = obs.NewWindow(nil, 10*time.Second, 5)
		s.ctrl = triage.NewController(triage.ControllerConfig{
			Levels:     f.levels(),
			Interval:   f.Interval,
			HighLoad:   f.HighLoad,
			LowLoad:    f.LowLoad,
			HighWaitMS: f.HighWaitMS,
			LowWaitMS:  f.LowWaitMS,
			RaiseAfter: f.RaiseAfter,
			LowerAfter: f.LowerAfter,
			JitterHold: f.JitterHold,
			Seed:       f.Seed,
			Signals:    s.fidelitySignals,
			OnShift:    s.onFidelityShift,
		})
		s.m.Gauge("serve.fidelity.level").Set(0)
		s.ctrl.Start()
		return
	}
	pin := f.Pin
	if pin < 0 {
		pin = 0
	}
	if pin > f.levels() {
		pin = f.levels()
	}
	s.pinned.Store(int64(pin))
	s.m.Gauge("serve.fidelity.level").Set(float64(pin))
}

// fidelitySignals samples the server's saturation state for the
// controller: queue occupancy, windowed queue-wait p95, and whether any
// phase breaker is away from closed.
func (s *Server) fidelitySignals() triage.Signals {
	open := false
	for _, br := range s.breakers {
		if br.State() != serve.Closed {
			open = true
			break
		}
	}
	load := 0.0
	if c := cap(s.queue); c > 0 {
		load = float64(s.queued.Load()) / float64(c)
	}
	return triage.Signals{
		Load:        load,
		WaitP95MS:   s.waitWin.Quantile(0.95),
		BreakerOpen: open,
	}
}

// onFidelityShift records a controller transition in the metrics.
func (s *Server) onFidelityShift(from, to int) {
	dir := "up"
	if to < from {
		dir = "down"
	}
	s.m.Counter(obs.Name("serve.fidelity.shifts", obs.L("direction", dir))).Inc()
	s.m.Gauge("serve.fidelity.level").Set(float64(to))
}

// FidelityLevel is the server's current fidelity level: 0 = full
// fidelity (and always 0 with the ladder off), rising to
// FidelityPolicy.Levels at maximum degradation.
func (s *Server) FidelityLevel() int {
	switch {
	case s.ctrl != nil:
		return s.ctrl.Level()
	case s.cfg.Fidelity.enabled():
		return int(s.pinned.Load())
	default:
		return 0
	}
}

// triageCtx runs the pre-pass for one admitted document: score it,
// classify it at the resolved fidelity level (a context-carried level —
// the fleet's request frame — overrides the server's own), count it, and
// attach the decision for ExtractContext to route on. With the ladder
// off it returns ctx untouched — the zero-cost path the determinism
// contracts rely on.
func (s *Server) triageCtx(ctx context.Context, d *Document) context.Context {
	f := s.cfg.Fidelity
	if !f.enabled() {
		return ctx
	}
	level := s.FidelityLevel()
	if lvl, ok := FidelityFrom(ctx); ok {
		level = lvl
		if level > f.levels() {
			level = f.levels()
		}
	}
	pol := f.Triage.At(level, f.levels())
	score := triage.Analyze(d)
	class := pol.Classify(score)
	s.m.Counter(obs.Name("serve.triage.docs",
		obs.L("class", class.String()), obs.L("level", strconv.Itoa(level)))).Inc()
	if class == triage.Full {
		return ctx
	}
	return withTriageDecision(ctx, triageDecision{class: class, level: level, score: score, policy: pol})
}
