// serve.go is the resilient concurrent serving layer over the hardened
// pipeline: a bounded worker pool with a bounded admission queue and
// deadline-aware load shedding, per-document retries with seeded
// jittered exponential backoff, per-phase circuit breakers that route
// persistent segment failures onto the linear-segmentation fallback,
// and graceful drain on shutdown. It turns the one-document contract of
// ExtractContext ("degraded result or structured error, never a panic,
// never a hang") into a corpus-scale contract: every admitted document
// gets exactly one reply, every rejected document gets a structured
// *Error, and the process survives bursty, adversarial input mixes.
package vs2

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vs2/internal/obs"
	"vs2/internal/serve"
	"vs2/internal/triage"
)

// PhaseAdmit is the serving layer's admission stage: errors carrying it
// were rejected before the pipeline ran (queue full, queue-wait budget
// exceeded, server closed, caller gone).
const PhaseAdmit Phase = "admit"

// PhaseShard is the sharded serving layer's routing stage: errors
// carrying it mean the document could not be placed on (or answered by)
// any worker shard — the fleet-level analogue of PhaseAdmit.
const PhaseShard Phase = "shard"

// Serving-layer sentinels, dispatchable with errors.Is through *Error.
var (
	// ErrOverloaded marks a document shed by admission control: the
	// queue was full past the queue-wait budget, or the document waited
	// in the queue longer than the budget allows.
	ErrOverloaded = errors.New("server overloaded")
	// ErrServerClosed marks a document submitted during or after
	// Shutdown.
	ErrServerClosed = errors.New("server closed")
	// ErrBreakerOpen marks a phase short-circuited by its tripped
	// circuit breaker. For the segment phase the pipeline degrades to
	// the linear baseline; for search it keeps an empty candidate set;
	// for disambiguation it falls back to first-match. All three are
	// recorded in Result.Degraded.
	ErrBreakerOpen = errors.New("circuit breaker open")
)

// IsTransient classifies a pipeline or serving error for retry: true
// means a later attempt on the same document could plausibly succeed.
//
// Permanent (never retried): invalid documents (ErrInvalidDocument and
// the doc-validator sentinels), a caller that walked away
// (context.Canceled), and ErrServerClosed.
//
// Transient: panics contained at a phase boundary (ErrPanic), budget
// overruns (ErrBudgetExceeded, which also wraps
// context.DeadlineExceeded), admission sheds (ErrOverloaded), tripped
// breakers (ErrBreakerOpen), and any unclassified failure — a backend
// flake is presumed recoverable unless proven otherwise.
func IsTransient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrInvalidDocument),
		errors.Is(err, ErrEmptyDocument),
		errors.Is(err, ErrNonFinite),
		errors.Is(err, ErrTooManyElements),
		errors.Is(err, ErrPageTooLarge),
		errors.Is(err, ErrServerClosed),
		errors.Is(err, context.Canceled):
		return false
	}
	return true
}

// Transient reports whether the error is worth retrying; see
// IsTransient.
func (e *Error) Transient() bool { return IsTransient(e) }

// RetryPolicy bounds the per-document retry loop. Attempts that fail
// with a transient error (IsTransient) are retried after a seeded,
// jittered exponential backoff; attempts that fail with ErrPanic or
// ErrBudgetExceeded retry in degraded mode — linear segmentation plus
// first-match selection, bypassing the machinery that just failed.
// Invalid documents and cancelled callers are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per document
	// (first try included). 0 selects 3; 1 disables retries.
	MaxAttempts int
	// Backoff is the base delay before the first retry; 0 selects 50ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; 0 selects 2s.
	MaxBackoff time.Duration
	// Seed drives the jitter, making the whole retry schedule
	// reproducible.
	Seed int64
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 3
	}
	if r.MaxAttempts < 1 {
		r.MaxAttempts = 1
	}
	return r
}

// BreakerPolicy tunes the per-phase circuit breakers.
type BreakerPolicy struct {
	// Threshold is the consecutive-failure count that trips a phase's
	// breaker; 0 selects 5, negative disables the breakers entirely.
	Threshold int
	// Cooldown is how long a tripped breaker stays open before probing;
	// 0 selects 5s.
	Cooldown time.Duration
	// Probes is the number of half-open probes admitted (and the
	// consecutive successes required to re-close); 0 selects 1.
	Probes int
}

// TemplatePolicy tunes the serving layer's layout-template fingerprint
// cache (see TemplateCache). The zero value is off: every document pays
// full segmentation, byte-identical to the pre-cache server.
type TemplatePolicy struct {
	// Capacity is the bounded LRU's maximum template count; 0 disables
	// the cache.
	Capacity int
	// Quantum is the geometry tolerance band in page units absorbing OCR
	// jitter between instances of one template; 0 selects 4.
	Quantum float64
}

// ServerConfig tunes a Server. The zero value serves with GOMAXPROCS
// workers (capped at 8), a queue of 4x the workers, a 1s queue-wait
// budget, 3 attempts per document, and breakers tripping after 5
// consecutive phase failures.
type ServerConfig struct {
	// Workers is the worker-pool size; 0 selects min(GOMAXPROCS, 8).
	Workers int
	// Queue is the admission-queue depth; 0 selects 4*Workers.
	Queue int
	// QueueWait is the shedding budget: the longest a document may
	// spend between submission and the start of execution. Admission
	// blocks up to this long for a queue slot, and a dequeued document
	// that already waited past it is shed instead of run. 0 selects 1s;
	// negative sheds immediately when the queue is full.
	QueueWait time.Duration
	// Retry is the per-document retry policy.
	Retry RetryPolicy
	// Breaker tunes the per-phase circuit breakers.
	Breaker BreakerPolicy
	// Fidelity tunes the adaptive fidelity ladder: complexity triage
	// onto the cheap path, and (in adaptive mode) the load controller
	// that widens the triage bands under saturation. The zero value is
	// off — no triage, byte-identical to the pre-ladder server.
	Fidelity FidelityPolicy
	// Template tunes the layout-template fingerprint cache: documents
	// whose quantized geometry matches a memoized layout skip VS2-Segment
	// and reuse the cached tree remapped onto their elements. The cache
	// is wired onto the primary-attempt pipeline only — degraded-mode
	// retries bypass it, like they bypass the breakers. When the handed-in
	// pipeline already carries Config.Templates, that cache is used and
	// this policy is ignored. The zero value is off.
	Template TemplatePolicy
	// Metrics, when non-nil, receives the serving-layer telemetry:
	// serve.queue.depth / serve.inflight gauges, serve.shed /
	// serve.retries / serve.breaker.<phase>.to_<state> counters and the
	// serve.queue.wait.ms histogram. The bare serve.shed counter counts
	// overload sheds (ErrOverloaded); the labeled
	// serve.shed{reason="queue_full"|"queue_wait"|"admission_closed"}
	// series breaks every admission rejection down by reason. With the
	// fidelity ladder on, serve.fidelity.level,
	// serve.fidelity.shifts{direction=...} and
	// serve.triage.docs{class=...,level=...} land here too. Independent
	// of the pipeline's own Config.Metrics; the same registry may serve
	// both.
	Metrics *Metrics
}

// Window returns the number of documents a streaming caller should keep
// in flight to saturate this configuration — effective workers plus
// effective queue depth, after the same defaulting NewServer applies.
// Submitting more than this buys no throughput, only memory; submitting
// fewer starves the pool. cmd/vs2serve and the vs2d shard worker both
// size their streaming windows with it.
func (c ServerConfig) Window() int {
	workers := c.Workers
	if workers <= 0 {
		workers = serve.PoolSize(0)
	}
	queue := c.Queue
	if queue <= 0 {
		queue = 4 * workers
	}
	return workers + queue
}

// Server runs a Pipeline concurrently with admission control, retries
// and circuit breaking. Create one with NewServer, submit documents
// with Extract or ExtractBatch from any number of goroutines, and
// Shutdown to drain. All methods are safe for concurrent use.
type Server struct {
	base *Pipeline // as handed in: degraded-mode retries bypass breakers
	pipe *Pipeline // breaker-wrapped clone the primary attempts run on
	cfg  ServerConfig
	m    *Metrics

	backoff *serve.Backoff

	// The fidelity ladder (nil / zero when ServerConfig.Fidelity is off):
	// the adaptive controller, the queue-wait window feeding its p95
	// signal, the pinned level, and the phase breakers it watches.
	ctrl     *triage.Controller
	waitWin  *obs.Window
	pinned   atomic.Int64
	breakers []*serve.Breaker

	queue    chan *job
	queued   atomic.Int64
	inflight atomic.Int64

	mu        sync.RWMutex // admission gate: Shutdown's write lock is the barrier
	closed    atomic.Bool
	done      chan struct{}
	drained   chan struct{}
	closeOnce sync.Once
	workers   sync.WaitGroup
}

type job struct {
	ctx      context.Context
	doc      *Document
	enqueued time.Time
	out      chan jobResult // buffered; exactly one reply per job
}

type jobResult struct {
	res *Result
	err error
}

// NewServer builds a Server over the pipeline and starts its worker
// pool. The pipeline is not mutated; its backends are wrapped with the
// per-phase circuit breakers on a derived pipeline.
func NewServer(p *Pipeline, cfg ServerConfig) *Server {
	if p == nil {
		panic("vs2: NewServer requires a pipeline")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = serve.PoolSize(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	switch {
	case cfg.QueueWait == 0:
		cfg.QueueWait = time.Second
	case cfg.QueueWait < 0:
		cfg.QueueWait = 0
	}
	cfg.Retry = cfg.Retry.withDefaults()
	s := &Server{
		base:    p,
		cfg:     cfg,
		m:       cfg.Metrics,
		backoff: serve.NewBackoff(cfg.Retry.Backoff, cfg.Retry.MaxBackoff, cfg.Retry.Seed),
		queue:   make(chan *job, cfg.Queue),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	s.pipe = s.wirePipeline(p, cfg.Breaker)
	s.startFidelity()
	s.m.Gauge("serve.workers").Set(float64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// wirePipeline derives the pipeline the primary attempts run on: the
// same configuration and backends, with each phase's backend gated by
// its circuit breaker, and — when ServerConfig.Template enables it —
// the layout-template cache wired into the configuration. A negative
// breaker threshold disables the breaker wrapping; primary attempts
// then run on the pipeline as handed in (template cache still applied,
// on a configuration-only clone). The handed-in pipeline is never
// mutated: degraded-mode retries run on it and so bypass both the
// breakers and the cache.
func (s *Server) wirePipeline(p *Pipeline, pol BreakerPolicy) *Pipeline {
	cfg := p.cfg
	if s.cfg.Template.Capacity > 0 && cfg.Templates == nil {
		cfg.Templates = NewTemplateCache(s.cfg.Template.Capacity, s.cfg.Template.Quantum, s.m)
	}
	if pol.Threshold < 0 {
		if cfg.Templates == p.cfg.Templates {
			return p
		}
		clone := *p
		clone.cfg = cfg
		return &clone
	}
	return &Pipeline{
		cfg: cfg,
		segmenter: &breakerSegmenter{
			inner: p.segmenter,
			br:    s.newBreaker(PhaseSegment, pol),
		},
		extractor: &breakerExtractor{
			inner:  p.extractor,
			search: s.newBreaker(PhaseSearch, pol),
			sel:    s.newBreaker(PhaseDisambiguate, pol),
		},
	}
}

func (s *Server) newBreaker(phase Phase, pol BreakerPolicy) *serve.Breaker {
	name := string(phase)
	br := serve.NewBreaker(serve.BreakerConfig{
		Threshold: pol.Threshold,
		Cooldown:  pol.Cooldown,
		Probes:    pol.Probes,
		OnTransition: func(_, to serve.State) {
			s.m.Counter("serve.breaker." + name + ".to_" + to.String()).Inc()
			s.m.Gauge("serve.breaker." + name + ".state").Set(float64(to))
		},
	})
	// The fidelity controller reads breaker state as a saturation signal;
	// keep a reference to every phase breaker wired.
	s.breakers = append(s.breakers, br)
	return br
}

// Extract submits one document and blocks until its result: the
// pipeline's (*Result, error) after admission, retries and breaker
// routing. Rejections — queue full past the queue-wait budget, server
// closed, caller cancelled while queued — return a *Error with
// PhaseAdmit wrapping ErrOverloaded, ErrServerClosed or the context
// error. Every call gets exactly one reply; none block past their
// document's fate being decided.
func (s *Server) Extract(ctx context.Context, d *Document) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{ctx: ctx, doc: d, enqueued: time.Now(), out: make(chan jobResult, 1)}
	if err := s.admit(ctx, j); err != nil {
		return nil, err
	}
	r := <-j.out
	return r.res, r.err
}

// BatchResult is one document's outcome within ExtractBatch.
type BatchResult struct {
	// Index is the document's position in the submitted slice.
	Index int
	// Doc is the submitted document.
	Doc *Document
	// Result is the extraction result; nil when Err is non-nil and for
	// documents replayed from a journal.
	Result *Result
	// Err is the structured failure, when the document was rejected or
	// every attempt failed.
	Err error
	// Line is the canonical rendered output line (see RenderLine); set
	// when the batch ran durably (WithDurability) or through
	// ExtractRecorded.
	Line []byte
	// Status is Line's outcome class, set with Line: read off the
	// rendered result, or parsed from a replayed line.
	Status Status
	// Replayed marks a document skipped because the journal already held
	// its completion: Line carries the cached output, the pipeline never
	// ran.
	Replayed bool
}

// BatchOption tunes one ExtractBatch call.
type BatchOption func(*batchConfig)

type batchConfig struct {
	journal *Journal
}

// WithDurability journals the batch through j: admissions, degradations
// and completions are written ahead of results being returned, documents
// already completed in j (a resumed run) are skipped idempotently with
// their cached lines, and transient failures stay unjournaled so a
// resume re-extracts them. See ExtractRecorded for the exact contract.
func WithDurability(j *Journal) BatchOption {
	return func(c *batchConfig) { c.journal = j }
}

// ExtractBatch submits every document concurrently and returns their
// outcomes in input order. The pool and admission queue bound actual
// parallelism; with a finite QueueWait a batch far larger than the
// queue sheds its overflow with ErrOverloaded rather than queueing
// unboundedly. With WithDurability the batch is journaled and resumable
// document by document.
func (s *Server) ExtractBatch(ctx context.Context, docs []*Document, opts ...BatchOption) []BatchResult {
	var cfg batchConfig
	for _, o := range opts {
		o(&cfg)
	}
	out := make([]BatchResult, len(docs))
	var wg sync.WaitGroup
	for i, d := range docs {
		wg.Add(1)
		go func(i int, d *Document) {
			defer wg.Done()
			if cfg.journal != nil {
				out[i] = s.ExtractRecorded(ctx, i, d, cfg.journal)
				return
			}
			res, err := s.Extract(ctx, d)
			out[i] = BatchResult{Index: i, Doc: d, Result: res, Err: err}
		}(i, d)
	}
	wg.Wait()
	return out
}

// Shutdown stops admission immediately and drains: queued and in-flight
// documents finish, workers exit, and no goroutines are leaked. It
// returns nil once fully drained, or the context's error if the drain
// budget expires first — in that case workers keep finishing in the
// background and a later Shutdown call can be used to await them.
// Idempotent and safe to call concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.done) // wakes admissions blocked on a full queue
		s.mu.Lock()   // barrier: every in-flight admission has resolved
		close(s.queue)
		s.mu.Unlock()
		if s.ctrl != nil {
			s.ctrl.Stop()
		}
		go func() {
			s.workers.Wait()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("vs2: drain budget exceeded with work in flight: %w", ctx.Err())
	}
}

// admit places the job in the queue or rejects it with a structured
// error. The read lock pairs with Shutdown's write lock so no admission
// can race the queue closing.
func (s *Server) admit(ctx context.Context, j *job) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		s.m.Counter("serve.rejected.closed").Inc()
		s.m.Counter(obs.Name("serve.shed", obs.L("reason", "admission_closed"))).Inc()
		return &Error{Phase: PhaseAdmit, Stage: "closed", Err: ErrServerClosed}
	}
	select {
	case s.queue <- j:
		s.enqueued()
		return nil
	default:
	}
	if s.cfg.QueueWait <= 0 {
		s.shed("queue_full")
		return &Error{Phase: PhaseAdmit, Stage: "queue-full",
			Err: fmt.Errorf("%w: queue full (depth %d)", ErrOverloaded, cap(s.queue))}
	}
	admit, cancel := context.WithTimeout(ctx, s.cfg.QueueWait)
	defer cancel()
	select {
	case s.queue <- j:
		s.enqueued()
		return nil
	case <-s.done:
		s.m.Counter("serve.rejected.closed").Inc()
		s.m.Counter(obs.Name("serve.shed", obs.L("reason", "admission_closed"))).Inc()
		return &Error{Phase: PhaseAdmit, Stage: "closed", Err: ErrServerClosed}
	case <-admit.Done():
		if err := ctx.Err(); err != nil {
			s.m.Counter("serve.abandoned").Inc()
			return &Error{Phase: PhaseAdmit, Stage: "admission", Err: err}
		}
		s.shed("queue_full")
		return &Error{Phase: PhaseAdmit, Stage: "queue-full",
			Err: fmt.Errorf("%w: no queue slot within the %v queue-wait budget", ErrOverloaded, s.cfg.QueueWait)}
	}
}

// shed counts one ErrOverloaded rejection: the bare serve.shed counter
// (the series /slo and the chaos suites pin) plus the per-reason
// labeled breakdown. Admission-closed rejections are not ErrOverloaded
// and only land on the labeled series.
func (s *Server) shed(reason string) {
	s.m.Counter("serve.shed").Inc()
	s.m.Counter(obs.Name("serve.shed", obs.L("reason", reason))).Inc()
}

func (s *Server) enqueued() {
	s.m.Counter("serve.enqueued").Inc()
	s.m.Gauge("serve.queue.depth").Set(float64(s.queued.Add(1)))
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.handle(j)
	}
}

// handle decides one dequeued job: shed it if its queue wait outran the
// budget or its caller is gone, otherwise run the retry loop. Exactly
// one reply is sent in every path.
func (s *Server) handle(j *job) {
	s.m.Gauge("serve.queue.depth").Set(float64(s.queued.Add(-1)))
	wait := time.Since(j.enqueued)
	s.m.Histogram("serve.queue.wait.ms", nil).Observe(float64(wait) / float64(time.Millisecond))
	s.waitWin.Observe(float64(wait) / float64(time.Millisecond)) // nil-safe; fidelity controller's p95 signal
	if err := j.ctx.Err(); err != nil {
		s.m.Counter("serve.abandoned").Inc()
		j.out <- jobResult{err: &Error{Phase: PhaseAdmit, Stage: "queued", Err: err}}
		return
	}
	if w := s.cfg.QueueWait; w > 0 && wait > w {
		s.shed("queue_wait")
		j.out <- jobResult{err: &Error{Phase: PhaseAdmit, Stage: "queue-wait",
			Err: fmt.Errorf("%w: waited %v beyond the %v queue-wait budget",
				ErrOverloaded, wait.Round(time.Millisecond), w)}}
		return
	}
	s.m.Gauge("serve.inflight").Set(float64(s.inflight.Add(1)))
	res, err := s.run(j.ctx, j.doc)
	s.m.Gauge("serve.inflight").Set(float64(s.inflight.Add(-1)))
	if err != nil {
		s.m.Counter("serve.failed").Inc()
	} else {
		s.m.Counter("serve.completed").Inc()
	}
	j.out <- jobResult{res: res, err: err}
}

// run is the per-document attempt loop: primary attempts on the
// breaker-wrapped pipeline, backoff between attempts, and — once a
// panic or budget overrun has been seen — degraded-mode attempts that
// bypass the machinery that just failed. Permanent errors and drained
// servers end the loop immediately.
func (s *Server) run(ctx context.Context, d *Document) (*Result, error) {
	// The fidelity pre-pass: with the ladder on, triage may mark the
	// document for the cheap or skip path at the current level; the
	// decision rides the context into ExtractContext, which records the
	// routing in Result.Degraded. With the ladder off this is a no-op.
	ctx = s.triageCtx(ctx, d)
	var lastErr error
	degraded := false
	for attempt := 0; attempt < s.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.m.Counter("serve.retries").Inc()
			// The sleep aborts promptly on caller cancellation and on
			// drain (finish the work already attempted, don't start new
			// attempts); either way the document fails with its last
			// error rather than hanging out the interval.
			if err := s.backoff.Sleep(ctx, s.done, attempt-1); err != nil {
				return nil, lastErr
			}
		}
		var res *Result
		var err error
		if degraded {
			res, err = s.degradedExtract(ctx, d, lastErr)
		} else {
			res, err = s.pipe.ExtractContext(ctx, d)
		}
		if err == nil {
			return res, nil
		}
		lastErr = err
		if j := ctx.Err(); j != nil || !IsTransient(err) {
			break
		}
		if errors.Is(err, ErrPanic) || errors.Is(err, ErrBudgetExceeded) {
			degraded = true
		}
	}
	return nil, lastErr
}

// degradedExtract is the degraded-mode attempt: linear segmentation and
// first-match selection on the unwrapped backends, bypassing both
// VS2-Segment and Eq. 2 disambiguation (the stages that panic or outrun
// budgets on pathological documents). The search still runs — it is the
// one stage with no cheaper substitute — under panic containment; if it
// fails again the document fails for good with a structured error.
// Every bypass is recorded in Result.Degraded.
func (s *Server) degradedExtract(ctx context.Context, d *Document, cause error) (*Result, error) {
	s.m.Counter("serve.retries.degraded").Inc()
	if err := ctx.Err(); err != nil {
		return nil, &Error{Phase: PhaseSegment, Stage: "degraded-retry", Err: err}
	}
	reason := fmt.Errorf("degraded-mode retry: %w", cause)
	tree := s.base.linearTree(d)
	blocks := tree.Leaves()
	res := &Result{Tree: tree, Blocks: blocks}
	res.degrade(PhaseSegment, "linear-segmentation", reason)
	cands, err := s.degradedSearch(ctx, d, blocks)
	if err != nil {
		if cands == nil {
			return nil, &Error{Phase: PhaseSearch, Stage: "degraded-retry", Err: err}
		}
		res.degrade(PhaseSearch, "partial-search", err)
	}
	entities, err := s.degradedSelect(d, cands)
	if err != nil {
		return nil, &Error{Phase: PhaseDisambiguate, Stage: "degraded-retry", Err: err}
	}
	res.degrade(PhaseDisambiguate, "first-match", reason)
	res.Entities = entities
	return res, nil
}

func (s *Server) degradedSearch(ctx context.Context, d *Document, blocks []*Node) (cands map[string][]Candidate, err error) {
	defer recoverPhase(&err)
	return s.base.extractor.SearchContext(ctx, d, blocks, s.base.cfg.Task.Sets)
}

func (s *Server) degradedSelect(d *Document, cands map[string][]Candidate) (out []Extraction, err error) {
	defer recoverPhase(&err)
	return s.base.extractor.SelectFirstMatch(d, cands, s.base.cfg.Task.Sets), nil
}

// Circuit-breaker backend wrappers. Each phase's backend reports its
// outcomes to that phase's breaker; a tripped breaker short-circuits
// the phase with an error wrapping ErrBreakerOpen, which the pipeline's
// degradation ladder absorbs: segment falls back to the linear
// baseline, search keeps an empty candidate set, disambiguation falls
// back to first-match — all recorded in Result.Degraded. Caller
// cancellation is not counted against a breaker; panics are counted and
// re-raised for the pipeline's phase-boundary containment.

func breakerOutcome(br *serve.Breaker, err error) {
	switch {
	case err == nil:
		br.Success()
	case errors.Is(err, context.Canceled):
		// The caller walked away; says nothing about the backend.
	default:
		br.Failure()
	}
}

type breakerSegmenter struct {
	inner SegmentBackend
	br    *serve.Breaker
}

func (w *breakerSegmenter) SegmentContext(ctx context.Context, d *Document) (tree *Node, err error) {
	if !w.br.Allow() {
		return nil, fmt.Errorf("%w: segment phase short-circuited", ErrBreakerOpen)
	}
	defer func() {
		if r := recover(); r != nil {
			w.br.Failure()
			panic(r)
		}
	}()
	tree, err = w.inner.SegmentContext(ctx, d)
	breakerOutcome(w.br, err)
	return tree, err
}

type breakerExtractor struct {
	inner       ExtractBackend
	search, sel *serve.Breaker
}

func (w *breakerExtractor) SearchContext(ctx context.Context, d *Document, blocks []*Node, sets []*PatternSet) (cands map[string][]Candidate, err error) {
	if !w.search.Allow() {
		return map[string][]Candidate{}, fmt.Errorf("%w: search phase short-circuited", ErrBreakerOpen)
	}
	defer func() {
		if r := recover(); r != nil {
			w.search.Failure()
			panic(r)
		}
	}()
	cands, err = w.inner.SearchContext(ctx, d, blocks, sets)
	breakerOutcome(w.search, err)
	return cands, err
}

func (w *breakerExtractor) SelectContext(ctx context.Context, d *Document, blocks []*Node, cands map[string][]Candidate, sets []*PatternSet) (out []Extraction, err error) {
	if !w.sel.Allow() {
		return nil, fmt.Errorf("%w: disambiguation short-circuited", ErrBreakerOpen)
	}
	defer func() {
		if r := recover(); r != nil {
			w.sel.Failure()
			panic(r)
		}
	}()
	out, err = w.inner.SelectContext(ctx, d, blocks, cands, sets)
	breakerOutcome(w.sel, err)
	return out, err
}

// SelectFirstMatch stays unwrapped: it is the last-resort fallback and
// must remain available while every breaker is open.
func (w *breakerExtractor) SelectFirstMatch(d *Document, cands map[string][]Candidate, sets []*PatternSet) []Extraction {
	return w.inner.SelectFirstMatch(d, cands, sets)
}
