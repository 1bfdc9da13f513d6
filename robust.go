// robust.go is the hardened service layer around the two-phase pipeline:
// context-aware extraction with per-phase budgets, structured errors,
// panic containment at phase boundaries, and graceful degradation to
// cheaper strategies (linear segmentation, first-match selection) that is
// always reported to the caller through Result.Degraded.
package vs2

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"vs2/internal/baselines"
	"vs2/internal/doc"
	"vs2/internal/extract"
	"vs2/internal/obs"
	"vs2/internal/segment"
	"vs2/internal/template"
	"vs2/internal/triage"
)

// Phase identifies one stage of the pipeline in errors and degradation
// records.
type Phase string

const (
	// PhaseValidate is input admission (Document.Validate plus guards).
	PhaseValidate Phase = "validate"
	// PhaseTemplate is the pre-segmentation template-cache probe: the
	// quantized-geometry fingerprint lookup that, on a hit, replaces
	// VS2-Segment with a remapped memoized layout tree.
	PhaseTemplate Phase = "template"
	// PhaseSegment is VS2-Segment, the layout-tree decomposition.
	PhaseSegment Phase = "segment"
	// PhaseSearch is the pattern-search half of VS2-Select.
	PhaseSearch Phase = "search"
	// PhaseDisambiguate is the Eq. 2 conflict-resolution half of VS2-Select.
	PhaseDisambiguate Phase = "disambiguate"
)

// Sentinel causes carried inside Error, for errors.Is dispatch. Budget
// overruns additionally wrap context.DeadlineExceeded, and input problems
// wrap the doc-package sentinels (re-exported below).
var (
	// ErrInvalidDocument marks inputs rejected before the pipeline ran.
	ErrInvalidDocument = errors.New("invalid document")
	// ErrPanic marks a panic recovered at a phase boundary.
	ErrPanic = errors.New("panic recovered")
	// ErrBudgetExceeded marks a phase that outran its Budgets allowance.
	ErrBudgetExceeded = errors.New("phase budget exceeded")
)

// Input-guard sentinels of the document validator, re-exported so callers
// can dispatch on the rejection cause without importing internal packages.
var (
	ErrEmptyDocument   = doc.ErrEmptyDocument
	ErrNonFinite       = doc.ErrNonFinite
	ErrTooManyElements = doc.ErrTooManyElements
	ErrPageTooLarge    = doc.ErrPageTooLarge
)

// Error is the structured pipeline error: which phase failed, an optional
// finer-grained stage, and the cause. It participates in errors.Is/As
// chains through Unwrap.
type Error struct {
	// Phase is the pipeline stage that failed.
	Phase Phase
	// Stage optionally narrows the failure inside the phase.
	Stage string
	// Err is the cause; never nil.
	Err error
}

// Error implements the error interface.
func (e *Error) Error() string {
	s := "vs2: " + string(e.Phase)
	if e.Stage != "" {
		s += " (" + e.Stage + ")"
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Timeout reports whether the failure was a deadline (the caller's or a
// phase budget).
func (e *Error) Timeout() bool { return errors.Is(e.Err, context.DeadlineExceeded) }

// Budgets bounds each pipeline phase with a wall-clock allowance. A zero
// field leaves that phase unbounded (beyond the caller's ctx). When a
// phase overruns its budget the pipeline degrades rather than fails:
// segmentation falls back to the linear baseline, search keeps the
// candidates found so far, disambiguation falls back to first-match.
type Budgets struct {
	// Segment bounds VS2-Segment.
	Segment time.Duration
	// Search bounds the pattern search over the logical blocks.
	Search time.Duration
	// Disambiguate bounds interest-point selection plus Eq. 2 ranking.
	Disambiguate time.Duration
}

// Degradation records one fallback the pipeline took instead of failing.
type Degradation struct {
	// Phase is where the primary strategy was abandoned.
	Phase Phase
	// Fallback names the strategy used instead: "linear-segmentation",
	// "sanitized-blocks", "partial-search", "first-match", or — chosen by
	// the fidelity ladder rather than forced by a failure —
	// "triage-cheap" / "triage-skip".
	Fallback string
	// Cause describes why, in one line.
	Cause string
	// Time is when the fallback was taken, for correlating degradations
	// with traces and logs.
	Time time.Time
}

// String renders the degradation for warnings and trace output, e.g.
//
//	[12:04:05.231] segment degraded to linear-segmentation: phase budget exceeded
func (g Degradation) String() string {
	s := fmt.Sprintf("%s degraded to %s", g.Phase, g.Fallback)
	if g.Cause != "" {
		s += ": " + g.Cause
	}
	if !g.Time.IsZero() {
		s = "[" + g.Time.Format("15:04:05.000") + "] " + s
	}
	return s
}

// SegmentBackend produces the layout tree of a document. The default is
// the built-in VS2-Segment; Config.Segmenter overrides it (the
// internal/faults harness wraps it to inject failures).
type SegmentBackend interface {
	SegmentContext(ctx context.Context, d *Document) (*Node, error)
}

// ExtractBackend runs the search and select halves of VS2-Select. The
// default is the built-in extractor; Config.Extractor overrides it.
// SelectFirstMatch is the degraded-mode selection and must not depend on
// budgets or embeddings.
type ExtractBackend interface {
	SearchContext(ctx context.Context, d *Document, blocks []*Node, sets []*PatternSet) (map[string][]Candidate, error)
	SelectContext(ctx context.Context, d *Document, blocks []*Node, candidates map[string][]Candidate, sets []*PatternSet) ([]Extraction, error)
	SelectFirstMatch(d *Document, candidates map[string][]Candidate, sets []*PatternSet) []Extraction
}

// ExtractContext runs the full two-phase pipeline under ctx with the
// configured per-phase budgets. Its failure containment:
//
//   - The document is validated first; rejects return a *Error with
//     PhaseValidate wrapping ErrInvalidDocument.
//   - Panics inside a phase are recovered at the phase boundary and
//     converted to errors wrapping ErrPanic.
//   - Segmentation failure of any kind (budget, panic, error, corrupt
//     output) degrades to the linear baseline segmentation.
//   - Search that overruns its budget degrades to the candidates already
//     found; other search failures are returned as *Error.
//   - Disambiguation failure of any kind degrades to first-match
//     selection.
//   - Cancellation of ctx itself always aborts with a *Error.
//
// Every fallback taken is recorded in Result.Degraded. The returned error,
// when non-nil, is always a *Error.
//
// Observability: when the context carries an obs.Trace (vs2.WithTrace) the
// run records a span per phase — the segmenter and extractor add their own
// sub-spans beneath them — and degradations become span events. When
// Config.Metrics is set, per-phase latency histograms and the run/block/
// candidate/degradation counters are updated. Both are nil-guarded fast
// paths: an untraced, unmetered run pays a few nil checks.
func (p *Pipeline) ExtractContext(ctx context.Context, d *Document) (*Result, error) {
	m := p.cfg.Metrics
	parent := obs.SpanFrom(ctx)
	if parent == nil {
		parent = obs.TraceFrom(ctx).Root()
	}
	run := parent.Child("extract")
	defer run.End()
	m.Counter("extract.runs").Inc()

	fail := func(phase Phase, stage string, err error) (*Result, error) {
		e := &Error{Phase: phase, Stage: stage, Err: err}
		run.SetAttr("error", e.Error())
		m.Counter("extract.errors." + string(phase)).Inc()
		return nil, e
	}

	// Phase 0: validation.
	vstart := time.Now()
	vspan := run.Child("validate")
	verr := func() error {
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case d == nil:
			return fmt.Errorf("%w: nil document", ErrInvalidDocument)
		default:
			if err := d.Validate(); err != nil {
				return fmt.Errorf("%w: %w", ErrInvalidDocument, err)
			}
			return nil
		}
	}()
	vspan.End()
	m.Histogram("phase.validate.ms", nil).Observe(msSince(vstart))
	if verr != nil {
		return fail(PhaseValidate, "", verr)
	}
	vspan.SetAttr("elements", len(d.Elements))

	res := &Result{}
	degrade := func(phase Phase, fallback string, cause error) {
		res.degrade(phase, fallback, cause)
		g := res.Degraded[len(res.Degraded)-1]
		run.AddEvent("degraded",
			obs.Str("phase", string(phase)),
			obs.Str("fallback", fallback),
			obs.Str("cause", g.Cause))
		m.Counter("degraded." + fallback).Inc()
	}

	// Phase 0.5: triage. When the serving layer's fidelity ladder marked
	// this document for a cheaper path (a choice, not a failure), the
	// expensive segmentation is skipped outright: CHEAP takes the linear
	// baseline tree, SKIP treats the whole page as one block. Exactly one
	// Degradation records the routing — it covers both the segmentation
	// substitute and the first-match selection the triaged run uses — so
	// Result.Degraded and -explain stay honest about what actually ran.
	dec, triaged := triageDecisionFrom(ctx)
	var tree *Node
	var err error
	var fp template.Fingerprint
	tplOutcome := "" // "hit" / "miss" when the cache probed this run
	tplInsert := false
	switch {
	case triaged && dec.class == triage.Skip:
		tree = doc.NewTree(d)
		degrade(PhaseTriage, "triage-skip", dec.cause())
		run.SetAttr("triage", "skip")
	case triaged && dec.class == triage.Cheap:
		tree = p.linearTree(d)
		degrade(PhaseTriage, "triage-cheap", dec.cause())
		run.SetAttr("triage", "cheap")
	default:
		triaged = false
		// Phase 0.75: template-cache probe. Only full-fidelity runs reach
		// this point, so a SKIP/CHEAP triage routing can never poison the
		// cache with its substitute trees. A hit replaces VS2-Segment with
		// the memoized structure remapped onto this document's geometry —
		// a designed reuse, not a fallback, so it records no Degradation.
		if tc := p.cfg.Templates; tc != nil {
			tstart := time.Now()
			tsp := run.Child("template")
			fp = tc.Fingerprint(d)
			if cached, ok := tc.Lookup(d, fp); ok {
				tree = cached
				tplOutcome = "hit"
			} else {
				tplOutcome = "miss"
			}
			tsp.SetAttr("outcome", tplOutcome)
			tsp.SetAttr("fingerprint", fp.String())
			tsp.End()
			m.Histogram("phase.template.ms", nil).Observe(msSince(tstart))
			run.SetAttr("template", tplOutcome)
		}
		if tree == nil {
			// Phase 1: segmentation. Any failure degrades to the linear
			// baseline.
			tree, err = p.segmentPhase(ctx, run, d)
			if err != nil {
				if ctx.Err() != nil {
					return fail(PhaseSegment, "", err)
				}
				degrade(PhaseSegment, "linear-segmentation", err)
				tree = p.linearTree(d)
			}
			// Only a cleanly segmented tree may be memoized; the linear
			// fallback is a degradation, not the template's layout.
			tplInsert = tplOutcome == "miss" && err == nil
		}
	}
	blocks, note := sanitizeBlocks(d, tree)
	if note != "" {
		// The segmenter returned blocks a correct implementation cannot
		// produce (corrupt geometry, dangling element indices, dropped
		// elements); the cleaned set is used and the damage reported.
		degrade(PhaseSegment, "sanitized-blocks", errors.New(note))
		tree = wrapBlocks(d, blocks)
	}
	if tplInsert && note == "" {
		// Memoize after sanitation has vouched for the tree: a damaged
		// tree must degrade this run only, never future hits.
		p.cfg.Templates.Insert(d, fp, tree)
	}

	// Phase 2: pattern search. A budget overrun keeps partial candidates,
	// and a search short-circuited by its tripped circuit breaker (the
	// serving layer wraps the backend) keeps the empty set it returned —
	// both continue as degraded partial-search runs.
	cands, err := p.searchPhase(ctx, run, d, blocks)
	if err != nil {
		if ctx.Err() != nil {
			return fail(PhaseSearch, "", err)
		}
		if cands == nil || !(errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrBreakerOpen)) {
			return fail(PhaseSearch, "", err)
		}
		degrade(PhaseSearch, "partial-search", err)
	}

	// Phase 3: disambiguation. A triaged run takes first-match selection
	// by design — the routing's single Degradation already covers it, so
	// no second entry is recorded. Otherwise any failure degrades to
	// first-match. When an explanation was requested, a sink rides the
	// phase context and the extractor fills it with the Eq. 2 reasoning
	// per entity.
	var entities []Extraction
	var sink *extract.ExplainSink
	if triaged {
		entities, err = p.firstMatchPhase(d, cands)
		if err != nil {
			return fail(PhaseDisambiguate, "triage first-match", err)
		}
	} else {
		ectx := ctx
		if p.cfg.Explain {
			ectx, sink = extract.WithExplain(ctx)
		}
		entities, err = p.selectPhase(ectx, run, d, blocks, cands)
		if err != nil {
			if ctx.Err() != nil {
				return fail(PhaseDisambiguate, "", err)
			}
			fallback, ferr := p.firstMatchPhase(d, cands)
			if ferr != nil {
				return fail(PhaseDisambiguate, "first-match fallback", ferr)
			}
			degrade(PhaseDisambiguate, "first-match", err)
			entities = fallback
		}
	}

	res.Entities, res.Blocks, res.Tree = entities, blocks, tree
	if sink != nil {
		res.Report = buildReport(tree, sink.Explanations(), res.Degraded)
	} else if p.cfg.Explain {
		// A triaged run never fills the Eq. 2 sink (first-match has no
		// reasoning to explain), but the report still carries the
		// degradation trail so -explain shows why the cheap path ran.
		res.Report = buildReport(tree, nil, res.Degraded)
	}
	if res.Report != nil {
		res.Report.Template = tplOutcome
	}
	if run != nil || m != nil {
		total := 0
		for _, cs := range cands {
			total += len(cs)
		}
		m.Counter("blocks.produced").Add(int64(len(blocks)))
		m.Counter("entities.extracted").Add(int64(len(entities)))
		m.Counter("candidates.found").Add(int64(total))
		m.Counter("candidates.rejected").Add(int64(total - len(entities)))
		run.SetAttr("blocks", len(blocks))
		run.SetAttr("entities", len(entities))
		run.SetAttr("candidates", total)
		run.SetAttr("degradations", len(res.Degraded))
	}
	return res, nil
}

// phaseSpan opens the span for one phase and attaches it to the phase
// context, so the backend below picks it up as its parent.
func phaseSpan(pctx context.Context, run *obs.Span, name string) (context.Context, *obs.Span) {
	sp := run.Child(name)
	return obs.WithSpan(pctx, sp), sp
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// segmentPhase runs the segmenter under its budget with panic recovery
// and publishes where its forks ran (see recordForks).
func (p *Pipeline) segmentPhase(ctx context.Context, run *obs.Span, d *Document) (tree *Node, err error) {
	defer recoverPhase(&err)
	start := time.Now()
	defer func() { p.cfg.Metrics.Histogram("phase.segment.ms", nil).Observe(msSince(start)) }()
	pctx, cancel := phaseContext(ctx, p.cfg.Budgets.Segment)
	defer cancel()
	pctx, sp := phaseSpan(pctx, run, "segment")
	defer sp.End()
	pctx, forks := segment.WithStats(pctx)
	defer recordForks(p.cfg.Metrics, sp, forks)
	pprof.Do(pctx, pprof.Labels("vs2_phase", "segment"), func(c context.Context) {
		tree, err = p.segmenter.SegmentContext(c, d)
	})
	if err == nil && tree == nil {
		err = errors.New("segmenter returned no tree")
	}
	if err = budgetize(ctx, pctx, err); err != nil {
		sp.SetAttr("error", err.Error())
	}
	return tree, err
}

// recordForks publishes where a parallel segmenter ran its subtree forks:
// on the branch pool ("spawned") or, when the pool was full, inline on
// the forking goroutine ("inline"). Both give the same tree, so the
// reply does not record them; the segment span's branch_spawned /
// branch_inline attributes and the segment.forks counter do, so a
// starved pool still shows in traces and on /metrics. A segmenter that
// never forks (a sequential one, or another backend) records nothing.
func recordForks(m *obs.Registry, sp *obs.Span, st *segment.Stats) {
	spawned, inline := st.Spawned.Load(), st.Inline.Load()
	if spawned+inline == 0 {
		return
	}
	sp.SetAttr("branch_spawned", spawned)
	sp.SetAttr("branch_inline", inline)
	m.Counter(obs.Name("segment.forks", obs.L("ran", "spawned"))).Add(spawned)
	m.Counter(obs.Name("segment.forks", obs.L("ran", "inline"))).Add(inline)
}

// searchPhase runs the pattern search under its budget with panic
// recovery; on a budget overrun the partial candidate map is returned
// alongside the error.
func (p *Pipeline) searchPhase(ctx context.Context, run *obs.Span, d *Document, blocks []*Node) (cands map[string][]Candidate, err error) {
	defer recoverPhase(&err)
	start := time.Now()
	defer func() { p.cfg.Metrics.Histogram("phase.search.ms", nil).Observe(msSince(start)) }()
	pctx, cancel := phaseContext(ctx, p.cfg.Budgets.Search)
	defer cancel()
	pctx, sp := phaseSpan(pctx, run, "search")
	defer sp.End()
	pprof.Do(pctx, pprof.Labels("vs2_phase", "search"), func(c context.Context) {
		cands, err = p.extractor.SearchContext(c, d, blocks, p.cfg.Task.Sets)
	})
	if err = budgetize(ctx, pctx, err); err != nil {
		sp.SetAttr("error", err.Error())
	}
	return cands, err
}

// selectPhase runs conflict resolution under its budget with panic
// recovery.
func (p *Pipeline) selectPhase(ctx context.Context, run *obs.Span, d *Document, blocks []*Node, cands map[string][]Candidate) (out []Extraction, err error) {
	defer recoverPhase(&err)
	start := time.Now()
	defer func() { p.cfg.Metrics.Histogram("phase.disambiguate.ms", nil).Observe(msSince(start)) }()
	pctx, cancel := phaseContext(ctx, p.cfg.Budgets.Disambiguate)
	defer cancel()
	pctx, sp := phaseSpan(pctx, run, "disambiguate")
	defer sp.End()
	pprof.Do(pctx, pprof.Labels("vs2_phase", "disambiguate"), func(c context.Context) {
		out, err = p.extractor.SelectContext(c, d, blocks, cands, p.cfg.Task.Sets)
	})
	if err = budgetize(ctx, pctx, err); err != nil {
		sp.SetAttr("error", err.Error())
	}
	return out, err
}

// firstMatchPhase is the last-resort selection; recovery matters because
// the candidates may come from a search over corrupted blocks.
func (p *Pipeline) firstMatchPhase(d *Document, cands map[string][]Candidate) (out []Extraction, err error) {
	defer recoverPhase(&err)
	return p.extractor.SelectFirstMatch(d, cands, p.cfg.Task.Sets), nil
}

// linearTree builds the fallback layout tree: the linear baseline
// segmentation under the document root, or a single whole-page block if
// even that fails.
func (p *Pipeline) linearTree(d *Document) (tree *Node) {
	defer func() {
		if recover() != nil || tree == nil {
			tree = doc.NewTree(d)
		}
	}()
	root := doc.NewTree(d)
	if blocks := (baselines.Linear{}).Segment(d); len(blocks) > 1 {
		for _, b := range blocks {
			b.Depth = 1
		}
		root.Children = blocks
	}
	return root
}

// sanitizeBlocks guards the extraction phases against a segmenter that
// returned damaged output: leaves with non-finite boxes, element indices
// outside the document, or missing elements (a truncated tree). Invalid
// leaves are dropped and uncovered elements are regrouped into a residual
// block, so the search phase always sees a usable, in-bounds block set. A
// correct segmenter's output passes through untouched with note == "".
func sanitizeBlocks(d *Document, tree *Node) (blocks []*Node, note string) {
	leaves := tree.Leaves()
	covered := make([]bool, len(d.Elements))
	dropped := 0
	for _, b := range leaves {
		if !validBlock(d, b) {
			dropped++
			continue
		}
		for _, id := range b.Elements {
			covered[id] = true
		}
		blocks = append(blocks, b)
	}
	var uncovered []int
	for i, c := range covered {
		if !c {
			uncovered = append(uncovered, i)
		}
	}
	switch {
	case dropped == 0 && len(uncovered) == 0:
		return blocks, ""
	case len(uncovered) > 0:
		blocks = append(blocks, &Node{Box: d.BoundingBoxOf(uncovered), Elements: uncovered, Depth: 1})
	}
	return blocks, fmt.Sprintf("%d invalid blocks dropped, %d uncovered elements regrouped", dropped, len(uncovered))
}

func validBlock(d *Document, b *Node) bool {
	if b == nil || len(b.Elements) == 0 {
		return false
	}
	if math.IsNaN(b.Box.X) || math.IsNaN(b.Box.Y) || math.IsNaN(b.Box.W) || math.IsNaN(b.Box.H) ||
		math.IsInf(b.Box.X, 0) || math.IsInf(b.Box.Y, 0) || math.IsInf(b.Box.W, 0) || math.IsInf(b.Box.H, 0) {
		return false
	}
	for _, id := range b.Elements {
		if id < 0 || id >= len(d.Elements) {
			return false
		}
	}
	return true
}

// wrapBlocks rebuilds a two-level layout tree over a sanitized block set,
// discarding whatever internal structure the damaged tree carried.
func wrapBlocks(d *Document, blocks []*Node) *Node {
	root := doc.NewTree(d)
	if len(blocks) > 1 {
		for _, b := range blocks {
			b.Depth = 1
			b.Children = nil
		}
		root.Children = blocks
	}
	return root
}

// phaseContext derives the phase's deadline context; a non-positive budget
// leaves the caller's context in charge.
func phaseContext(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, budget)
}

// budgetize marks an error caused by the phase's own deadline — rather
// than the caller's — as a budget overrun.
func budgetize(ctx, pctx context.Context, err error) error {
	if err != nil && pctx.Err() != nil && ctx.Err() == nil {
		return fmt.Errorf("%w: %w", ErrBudgetExceeded, err)
	}
	return err
}

// recoverPhase converts a panic inside a phase into an error wrapping
// ErrPanic, so a pathological document (or an injected fault) cannot take
// down the process.
func recoverPhase(errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("%w: %v", ErrPanic, r)
	}
}

func (r *Result) degrade(phase Phase, fallback string, cause error) {
	c := ""
	if cause != nil {
		c = cause.Error()
	}
	r.Degraded = append(r.Degraded, Degradation{Phase: phase, Fallback: fallback, Cause: c, Time: time.Now()})
}

// IsDegraded reports whether any phase fell back to a cheaper strategy.
func (r *Result) IsDegraded() bool { return len(r.Degraded) > 0 }
