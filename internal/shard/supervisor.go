package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vs2/internal/obs"
	"vs2/internal/serve"
)

// Supervisor errors.
var (
	// ErrClosed marks work submitted to a supervisor that is shutting
	// down.
	ErrClosed = errors.New("shard: supervisor closed")
	// ErrNoShards marks work that cannot be placed anywhere: every shard
	// has permanently failed.
	ErrNoShards = errors.New("shard: no live shards")
	// ErrPoisoned marks a document quarantined after crashing its worker
	// Config.PoisonAfter times: it fails permanently instead of riding
	// the restart loop forever and taking the shard down with it.
	ErrPoisoned = errors.New("shard: poison document quarantined")
)

// RerouteBuckets is the bucket layout of the shard.reroute.distance
// histogram: how many ring positions a rerouted key travelled past its
// owner before landing on a live shard.
var RerouteBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16}

// Config tunes a Supervisor. The zero value of every optional field
// selects the default noted on it.
type Config struct {
	// Shards is the number of worker shards; required, >= 1.
	Shards int
	// Replicas is the number of virtual ring points per shard; 0
	// selects 64.
	Replicas int
	// Start builds the command for one (re)incarnation of a shard's
	// child process; required. The supervisor wires stdin/stdout itself
	// and starts the command, so Start must leave both unset. A fresh
	// command is requested for every restart.
	Start func(shard int) (*exec.Cmd, error)
	// OnStart, when non-nil, observes every successful child start with
	// the shard index and the child's PID (e.g. to write pidfiles for
	// external tooling and chaos harnesses).
	OnStart func(shard, pid int)
	// OnProvision, when non-nil, runs before the first child of a shard
	// added by Scale starts — the front end's chance to clear stale
	// per-shard state (a journal left behind by a previous incarnation
	// of the same index, whose completions were already handed off).
	// It is not called for the initial fleet, so resume semantics of a
	// fresh supervisor are untouched.
	OnProvision func(shard int) error
	// OnHandoff, when non-nil, runs during scale-in after the retired
	// shard's child has fully exited and before routing work resumes:
	// the front end transfers the retired shard's durable state (journal
	// ownership) to the successor and returns the path the successor
	// should adopt — "" to skip adoption (no durable state). An error
	// aborts the Scale call; the fleet keeps serving at the new size,
	// but the retired journal stays unadopted for a retry.
	OnHandoff func(retired, successor int) (adoptPath string, err error)
	// ProbeInterval is the liveness-probe cadence; 0 selects 1s,
	// negative disables probing (process exit remains detected).
	ProbeInterval time.Duration
	// ProbeTimeout is how long a child may go without answering a probe
	// (or sending any response) before it is declared hung and killed;
	// 0 selects 5s.
	ProbeTimeout time.Duration
	// RestartBackoff and RestartBackoffMax bound the jittered
	// exponential backoff between a shard's crash and its restart; 0
	// selects 100ms and 5s.
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// MaxRestarts is the number of consecutive unproven (re)starts —
	// children that died or failed to start without ever answering —
	// after which the shard is abandoned as permanently failed and its
	// keyspace fails over for good; 0 selects 8.
	MaxRestarts int
	// BreakerThreshold is the consecutive-crash count after which the
	// shard's breaker opens and new traffic reroutes to its ring
	// successors while restarts continue behind it; 0 selects 3,
	// negative disables rerouting (traffic always queues on the owner).
	BreakerThreshold int
	// BreakerCooldown is how long an open shard breaker waits before a
	// recovered child may win traffic back; 0 selects 2s.
	BreakerCooldown time.Duration
	// DrainGrace is how long a drain (Close, retirement, rolling
	// restart) waits for a child after its stdin closes before killing
	// it; 0 selects 10s.
	DrainGrace time.Duration
	// PoisonAfter is the number of worker crashes one in-flight document
	// may ride through before it is quarantined: its call fails with
	// ErrPoisoned instead of requeueing, so a single pathological input
	// cannot crash-loop a shard into abandonment. 0 (the default)
	// disables quarantine — a shard that crash-loops for reasons
	// unrelated to its input must not condemn the innocent documents
	// riding through the restarts, so the threshold is an explicit
	// deployment choice.
	PoisonAfter int
	// OnPoison, when non-nil, observes every quarantined document with
	// the shard it poisoned and its crash count (e.g. to journal the key
	// for offline triage). Called outside supervisor locks.
	OnPoison func(shard int, key string, crashes int)
	// Seed drives the restart-backoff jitter; shard i uses Seed+i so one
	// seed reproduces the whole fleet's schedule.
	Seed int64
	// Metrics, when non-nil, receives the shard.* telemetry: per-shard
	// up/down gauges, start/restart/crash/failover counters and the
	// reroute-distance histogram. Per-shard series carry the shard index
	// as a real label (obs.Name), so a Prometheus exposition shows
	// shard="3" rather than a key-suffix pseudo-name.
	Metrics *obs.Registry
	// OnTelemetry, when non-nil, observes every telemetry shipment a
	// worker sends up the response pipe, and every span tree a traced
	// reply carries (as a shipment of one span, observed before the
	// reply reaches its caller), each stamped with the authoritative
	// shard index and child epoch. Called from the shard's reader
	// goroutine — implementations must be quick and internally
	// synchronized.
	OnTelemetry func(t Telemetry)
	// Stderr receives the children's stderr; nil selects os.Stderr.
	Stderr io.Writer
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 5 * time.Second
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 100 * time.Millisecond
	}
	if c.RestartBackoffMax <= 0 {
		c.RestartBackoffMax = 5 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 8
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.Stderr == nil {
		c.Stderr = os.Stderr
	}
	// Supervisor log lines and every child's stderr funnel into this one
	// writer from independent goroutines; serialize the writes so a plain
	// bytes.Buffer (tests) or pipe is a legal sink.
	c.Stderr = SyncWriter(c.Stderr)
	return c
}

// SyncWriter wraps w so concurrent Write calls serialize, making any
// io.Writer safe as a sink shared across goroutines and child-process
// stderr copiers. Writers that are already SyncWriters pass through.
func SyncWriter(w io.Writer) io.Writer {
	if _, ok := w.(*lockedWriter); ok {
		return w
	}
	return &lockedWriter{w: w}
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// fleet is one immutable routing view: the ring and exactly the shard
// states it routes over (len(shards) == ring.Shards()). Readers load the
// pointer once and see a consistent pair; Scale swaps the whole view
// atomically, which is what lets routing flip only after a successor has
// proven liveness.
type fleet struct {
	ring   *Ring
	shards []*shardState
}

// Supervisor owns a fleet of shard child processes and routes keyed work
// across them: consistent-hash placement, liveness supervision with
// probes and exponential-backoff restarts, breaker-gated failover for
// shards that crash-loop, and live reconfiguration — Scale resizes the
// fleet with zero-loss handoff, Roll restarts children one at a time.
// Create one with New, submit work with Do from any number of
// goroutines, and Close to drain. All methods are safe for concurrent
// use.
type Supervisor struct {
	cfg  Config
	view atomic.Pointer[fleet]
	m    *obs.Registry

	// mu guards all (every shard state ever created, including retired
	// generations — Close reaps them all) and the closed transition that
	// fences new states.
	mu  sync.Mutex
	all []*shardState

	// reconfigMu serializes Scale and Roll: one transition at a time.
	reconfigMu    sync.Mutex
	reconfigEpoch atomic.Int64
	transition    atomic.Pointer[Reconfig]

	closed    atomic.Bool
	done      chan struct{}
	closeOnce sync.Once
}

// New builds a supervisor and starts one runner per shard; children
// spawn immediately.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Shards < 1 {
		return nil, errors.New("shard: Config.Shards must be >= 1")
	}
	if cfg.Start == nil {
		return nil, errors.New("shard: Config.Start is required")
	}
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:  cfg,
		m:    cfg.Metrics,
		done: make(chan struct{}),
	}
	f := &fleet{ring: NewRing(cfg.Shards, cfg.Replicas)}
	for i := 0; i < cfg.Shards; i++ {
		f.shards = append(f.shards, s.newShardState(i))
	}
	s.view.Store(f)
	s.all = append(s.all, f.shards...)
	s.m.Gauge("shard.ring.version").Set(float64(f.ring.Version()))
	for _, st := range f.shards {
		go st.run()
	}
	return s, nil
}

// newShardState builds the supervision state for one shard index. Scale
// reuses it for added shards — including a re-added index whose previous
// generation was retired; the old state stays in s.all (terminal) and
// the new one takes over the index.
func (s *Supervisor) newShardState(i int) *shardState {
	lifeCtx, lifeStop := context.WithCancel(context.Background())
	st := &shardState{
		sup:      s,
		id:       i,
		sent:     map[string][]*call{},
		kick:     make(chan struct{}, 1),
		retireCh: make(chan struct{}),
		rollCh:   make(chan struct{}, 1),
		gone:     make(chan struct{}),
		lifeCtx:  lifeCtx,
		lifeStop: lifeStop,
		backoff:  serve.NewBackoff(s.cfg.RestartBackoff, s.cfg.RestartBackoffMax, s.cfg.Seed+int64(i)),
	}
	st.breaker = serve.NewBreaker(serve.BreakerConfig{
		Threshold: breakerThreshold(s.cfg.BreakerThreshold),
		Cooldown:  s.cfg.BreakerCooldown,
		OnTransition: func(_, to serve.State) {
			s.m.Counter(obs.Name("shard.breaker.transitions",
				obs.L("shard", strconv.Itoa(i)), obs.L("to", to.String()))).Inc()
		},
	})
	return st
}

// breakerThreshold maps the config convention (negative disables) onto a
// threshold the breaker can never reach.
func breakerThreshold(t int) int {
	if t < 0 {
		return 1 << 30
	}
	return t
}

// Result of one call, delivered exactly once.
type callResult struct {
	line   []byte
	status Status
	err    error
}

type call struct {
	key     string
	doc     []byte
	span    string          // front-end parent span ID, "" when untraced
	level   int             // front-end fidelity level, 0 = full
	adopt   string          // adoption request: path of a retired journal
	pinned  bool            // never reroute: the request only makes sense on its shard
	crashes int             // worker crashes ridden through while in flight
	done    chan callResult // buffered(1)
}

// Do routes one document to its shard and blocks for its reply: the
// worker's result line and that line's outcome class. span, when
// non-empty, is the front end's span ID for the document: the worker
// traces the extraction and stamps its span tree with span as parent,
// so the front end can stitch a cross-process trace. level is the
// fidelity level the worker extracts at (vs2.WithFidelity on the worker
// side), so one front-end controller degrades the whole fleet
// coherently; 0 is full fidelity.
//
// A crashed shard's outstanding work is re-sent to its restarted child
// (which replays its journal rather than re-extracting completed
// documents); a crash-looping shard's traffic fails over to the next
// live shard on the ring. Do returns an error when the caller's context
// expires, the supervisor closes, or the whole fleet is permanently
// failed.
func (s *Supervisor) Do(ctx context.Context, key string, doc []byte, span string, level int) ([]byte, Status, error) {
	if s.closed.Load() {
		return nil, 0, ErrClosed
	}
	target, ok := s.route(key)
	if !ok {
		return nil, 0, ErrNoShards
	}
	c := &call{key: key, doc: doc, span: span, level: level, done: make(chan callResult, 1)}
	target.enqueue(c)
	select {
	case r := <-c.done:
		return r.line, r.status, r.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-s.done:
		return nil, 0, ErrClosed
	}
}

// Shards returns the current fleet size (the routing view's shard
// count); it changes only through Scale.
func (s *Supervisor) Shards() int { return len(s.view.Load().shards) }

// RingVersion returns the current routing ring's version: 1 at boot,
// +1 per Scale.
func (s *Supervisor) RingVersion() int64 { return s.view.Load().ring.Version() }

// route picks the shard for a key: the ring owner when it is routeable,
// else the first routeable shard along the failover sequence (counted as
// a failover), else the owner anyway when the fleet is merely degraded
// (its queue drains on recovery). Only a fleet with every shard
// permanently failed returns !ok. The whole decision reads one routing
// view, so a concurrent Scale can never route into a half-flipped ring.
func (s *Supervisor) route(key string) (*shardState, bool) {
	f := s.view.Load()
	seq := f.ring.Sequence(key)
	for dist, id := range seq {
		if f.shards[id].routeable() {
			if dist > 0 {
				s.m.Counter("shard.failovers").Inc()
				s.m.Histogram("shard.reroute.distance", RerouteBuckets).Observe(float64(dist))
			}
			return f.shards[id], true
		}
	}
	for _, id := range seq {
		if !f.shards[id].permanentlyFailed() {
			s.m.Counter("shard.route.blind").Inc()
			return f.shards[id], true
		}
	}
	return nil, false
}

// Close stops the fleet: children's stdins close so they drain in-flight
// work and exit; stragglers are killed after DrainGrace. Close returns
// nil once every runner — including retired generations and any child
// that was mid-restart when Close fired — has finished, or ctx's error
// if that takes too long (runners keep winding down in the background).
// Pending Do calls fail with ErrClosed.
func (s *Supervisor) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.done)
	})
	// Snapshot after the closed fence: a concurrent Scale either
	// registered its new shards before this lock (they are in the
	// snapshot) or observes closed and never starts them.
	s.mu.Lock()
	all := append([]*shardState(nil), s.all...)
	s.mu.Unlock()
	finished := make(chan struct{})
	go func() {
		for _, st := range all {
			<-st.gone
		}
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shard: close: %w", ctx.Err())
	}
}

// Metrics returns the supervisor's registry (possibly nil).
func (s *Supervisor) Metrics() *obs.Registry { return s.m }

// ShardHealth is one shard's live supervision state, as reported by
// Health for the /healthz and /readyz endpoints.
type ShardHealth struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Up reports whether a child process is currently alive.
	Up bool `json:"up"`
	// PID is the live child's process ID; 0 when down.
	PID int `json:"pid,omitempty"`
	// Breaker is the shard's routing breaker state: closed shards take
	// new traffic, open ones fail over to their ring successors.
	Breaker string `json:"breaker"`
	// Backlog counts calls accepted but not yet answered: queued (not
	// written to a live child) plus in flight (awaiting a response).
	Backlog int `json:"backlog"`
	// InFlight counts calls written to the current child and awaiting
	// answers.
	InFlight int `json:"in_flight"`
	// Restarts is the shard's lifetime restart count.
	Restarts int64 `json:"restarts"`
	// Epoch is the current child incarnation (1 = first start).
	Epoch int64 `json:"epoch"`
	// Failed marks a shard abandoned after MaxRestarts consecutive
	// unproven starts; its keyspace has failed over for good.
	Failed bool `json:"failed"`
}

// Reconfig describes an in-progress fleet transition, surfaced through
// Health and the /slo endpoint so operators can watch a handoff live.
type Reconfig struct {
	// Kind is "scale_out", "scale_in" or "roll".
	Kind string `json:"kind"`
	// From and To are the fleet sizes on either side of the transition
	// (equal for rolls).
	From int `json:"from"`
	To   int `json:"to"`
	// Epoch is the reconfiguration epoch: a counter incremented at the
	// start of every transition, stamped on the shard.reconfig.* metric
	// series the transition emits.
	Epoch int64 `json:"epoch"`
	// Phase is the transition's current step: starting | proving |
	// draining | handoff | adopting | rolling.
	Phase string `json:"phase"`
	// Shard is the shard currently in transition.
	Shard int `json:"shard"`
}

// FleetHealth is the whole fleet's health summary. Degraded means the
// fleet still serves but not at full strength (a shard down, breaker
// open, or permanently failed); Failed means no shard can take work at
// all.
type FleetHealth struct {
	Shards   []ShardHealth `json:"shards"`
	Live     int           `json:"live"`     // shards with a running child
	Routable int           `json:"routable"` // shards accepting new traffic
	Degraded bool          `json:"degraded"`
	Failed   bool          `json:"failed"`
	Closed   bool          `json:"closed"`
	// RingVersion is the routing ring's version (1 at boot, +1 per
	// Scale); Reconfig reports an in-progress transition, nil when the
	// topology is stable.
	RingVersion int64     `json:"ring_version"`
	Reconfig    *Reconfig `json:"reconfig,omitempty"`
}

// Health snapshots the fleet's supervision state — the current routing
// view only; retired shard generations drop out of the report the
// moment routing flips away from them. Safe for concurrent use; the
// snapshot is internally consistent per shard (each shard's fields are
// read under its own lock).
func (s *Supervisor) Health() FleetHealth {
	f := s.view.Load()
	fh := FleetHealth{Closed: s.closed.Load(), RingVersion: f.ring.Version()}
	if t := s.transition.Load(); t != nil {
		c := *t
		fh.Reconfig = &c
	}
	for _, st := range f.shards {
		st.mu.Lock()
		sh := ShardHealth{
			Shard:    st.id,
			Up:       st.up,
			PID:      st.pid,
			Backlog:  len(st.queue),
			Restarts: st.total,
			Epoch:    st.epoch,
			Failed:   st.failed,
		}
		for _, cs := range st.sent {
			sh.InFlight += len(cs)
		}
		sh.Backlog += sh.InFlight
		st.mu.Unlock()
		sh.Breaker = st.breaker.State().String()
		fh.Shards = append(fh.Shards, sh)
		if sh.Up {
			fh.Live++
		}
		if !sh.Failed && sh.Breaker == serve.Closed.String() {
			fh.Routable++
		}
		if !sh.Up || sh.Failed || sh.Breaker != serve.Closed.String() {
			fh.Degraded = true
		}
	}
	alive := 0
	for _, st := range f.shards {
		if !st.permanentlyFailed() {
			alive++
		}
	}
	fh.Failed = alive == 0
	return fh
}

// exitKind classifies why serveChild returned.
type exitKind int

const (
	exitCrashed  exitKind = iota // child died unplanned (or failed to drain)
	exitShutdown                 // supervisor Close
	exitRetired                  // planned retirement drain completed
	exitRolled                   // planned rolling-restart drain completed
)

// shardState is one shard's supervision state: its dispatch queue, the
// calls in flight on the current child, and the crash accounting that
// drives restarts and failover.
type shardState struct {
	sup     *Supervisor
	id      int
	breaker *serve.Breaker
	backoff *serve.Backoff

	// retireCh is closed (once) to request retirement; rollCh carries
	// planned-restart requests; gone closes when the runner exits for
	// good. lifeCtx cancels with retirement so a backoff sleep aborts
	// promptly.
	retireOnce sync.Once
	retireCh   chan struct{}
	rollCh     chan struct{}
	gone       chan struct{}
	lifeCtx    context.Context
	lifeStop   context.CancelFunc

	mu          sync.Mutex
	queue       []*call            // accepted, not yet written to a live child
	sent        map[string][]*call // written, awaiting responses (FIFO per key)
	failed      bool               // permanent: MaxRestarts consecutive unproven starts
	retired     bool               // terminal: planned retirement completed
	paused      bool               // flush suspended during a planned drain
	restarts    int                // consecutive unproven (re)starts
	total       int64              // restarts over the shard's lifetime (never resets)
	epoch       int64              // child incarnation: 1 on first start, +1 per restart
	provenEpoch int64              // latest epoch that answered (pong or response)
	up          bool               // a child is currently alive
	pid         int                // current child's PID; 0 when down
	kick        chan struct{}
}

// routeable reports whether new traffic should land on this shard: not
// terminal (permanently failed or retired) and not crash-looping
// (breaker closed).
func (st *shardState) routeable() bool {
	st.mu.Lock()
	terminal := st.failed || st.retired
	st.mu.Unlock()
	return !terminal && !st.retireRequested() && st.breaker.State() == serve.Closed
}

func (st *shardState) permanentlyFailed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failed
}

// requestRetire asks the runner to drain and exit for good; idempotent.
func (st *shardState) requestRetire() {
	st.retireOnce.Do(func() {
		close(st.retireCh)
		st.lifeStop()
	})
}

func (st *shardState) retireRequested() bool {
	select {
	case <-st.retireCh:
		return true
	default:
		return false
	}
}

// requestRoll asks the runner to drain the current child and start a
// fresh one without crash accounting; coalesces while one is pending.
func (st *shardState) requestRoll() {
	select {
	case st.rollCh <- struct{}{}:
	default:
	}
}

func (st *shardState) setPaused(v bool) {
	st.mu.Lock()
	st.paused = v
	st.mu.Unlock()
	if !v {
		st.wake()
	}
}

func (st *shardState) sentLen() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, cs := range st.sent {
		n += len(cs)
	}
	return n
}

func (st *shardState) enqueue(c *call) {
	st.mu.Lock()
	if st.failed || st.retired {
		// The shard became terminal between routing and enqueue; bounce
		// the call along its failover sequence rather than stranding it
		// on a runner that has already exited. Recursion terminates:
		// terminal shards are never returned as targets.
		st.mu.Unlock()
		switch {
		case c.pinned:
			c.done <- callResult{err: fmt.Errorf("shard %d: pinned call %q: %w", st.id, c.key, ErrNoShards)}
		case st.failoverEnqueue(c):
		default:
			c.done <- callResult{err: ErrNoShards}
		}
		return
	}
	st.queue = append(st.queue, c)
	st.mu.Unlock()
	st.wake()
}

// failoverEnqueue places the call on a live shard other than this one,
// preferring the key's ring sequence; reports false when the rest of the
// fleet is permanently failed too.
func (st *shardState) failoverEnqueue(c *call) bool {
	if to := st.failoverTarget(c.key); to != nil {
		st.sup.m.Counter("shard.rerouted").Inc()
		to.enqueue(c)
		return true
	}
	if to := st.anyOtherAlive(); to != nil {
		st.sup.m.Counter("shard.rerouted").Inc()
		to.enqueue(c)
		return true
	}
	return false
}

func (st *shardState) wake() {
	select {
	case st.kick <- struct{}{}:
	default:
	}
}

// run is the shard's supervision loop: start a child, serve it until it
// dies, account the crash, back off, repeat — until shutdown, planned
// retirement, or the shard is abandoned as permanently failed.
func (st *shardState) run() {
	defer close(st.gone)
	defer st.lifeStop()
	for {
		select {
		case <-st.sup.done:
			return
		default:
		}
		if st.retireRequested() {
			st.finishRetire()
			return
		}
		st.mu.Lock()
		attempt := st.restarts
		st.mu.Unlock()
		if attempt > 0 {
			st.sup.m.Counter("shard.restarts").Inc()
			st.sup.m.Counter(obs.Name("shard.restarts", st.label())).Inc()
			st.mu.Lock()
			st.total++
			st.mu.Unlock()
			if err := st.backoff.Sleep(st.lifeCtx, st.sup.done, attempt-1); err != nil {
				if st.retireRequested() {
					st.finishRetire()
				}
				return
			}
		}
		if st.sup.closed.Load() {
			// Close fired while we were between children (e.g. during the
			// backoff sleep's final tick): starting a child now would
			// orphan it past Close's reaping snapshot.
			return
		}
		p, err := st.startChild()
		if err != nil {
			fmt.Fprintf(st.sup.cfg.Stderr, "vs2d: shard %d: start: %v\n", st.id, err)
			if st.crashed() {
				return
			}
			continue
		}
		switch st.serveChild(p) {
		case exitShutdown:
			return
		case exitRetired:
			st.finishRetire()
			return
		case exitRolled:
			st.setPaused(false)
			st.sup.m.Counter(obs.Name("shard.reconfig.rolled", st.label())).Inc()
			continue
		case exitCrashed:
			st.setPaused(false)
			fmt.Fprintf(st.sup.cfg.Stderr, "vs2d: shard %d: child exited unexpectedly; restarting\n", st.id)
			abandoned := st.crashed()
			if st.retireRequested() {
				st.finishRetire()
				return
			}
			if abandoned {
				return
			}
		}
	}
}

// finishRetire marks the shard terminally retired and pushes any
// straggling queued calls (enqueued in the race window while routing
// flipped) to the surviving fleet.
func (st *shardState) finishRetire() {
	st.mu.Lock()
	st.retired = true
	st.mu.Unlock()
	st.reroute()
	st.sup.m.Counter("shard.reconfig.retired").Inc()
	fmt.Fprintf(st.sup.cfg.Stderr, "vs2d: shard %d: retired\n", st.id)
}

// crashed accounts one unproven child (failed start, or an exit before
// shutdown): the crash trips toward the breaker and, at MaxRestarts
// consecutive, abandons the shard. Outstanding work is requeued —
// except documents that have now crashed PoisonAfter workers, which
// are quarantined with ErrPoisoned — and, when the shard is no longer
// routeable, rerouted to live shards. Reports whether the runner
// should stop (shard permanently failed).
func (st *shardState) crashed() bool {
	st.breaker.Failure()
	st.mu.Lock()
	st.restarts++
	poisoned := st.requeueSentLocked()
	abandoned := st.restarts > st.sup.cfg.MaxRestarts
	if abandoned {
		st.failed = true
	}
	st.mu.Unlock()
	for _, c := range poisoned {
		st.sup.m.Counter("shard.poisoned").Inc()
		st.sup.m.Counter(obs.Name("shard.poisoned", st.label())).Inc()
		fmt.Fprintf(st.sup.cfg.Stderr, "vs2d: shard %d: quarantined poison document %q after %d worker crashes\n",
			st.id, c.key, c.crashes)
		if cb := st.sup.cfg.OnPoison; cb != nil {
			cb(st.id, c.key, c.crashes)
		}
		c.done <- callResult{err: fmt.Errorf("%w: key %q crashed its worker %d times", ErrPoisoned, c.key, c.crashes)}
	}
	st.sup.m.Counter("shard.crashes").Inc()
	if abandoned {
		st.sup.m.Counter("shard.abandoned").Inc()
		fmt.Fprintf(st.sup.cfg.Stderr, "vs2d: shard %d: abandoned after %d consecutive failed starts; failing its keyspace over\n",
			st.id, st.sup.cfg.MaxRestarts)
	}
	if !st.routeable() {
		st.reroute()
	}
	return abandoned
}

// requeueSentLocked moves every unanswered in-flight call back to the
// front of the queue, preserving send order, so the next child (which
// resumes its journal) sees them again: completed-but-unacknowledged
// documents replay their cached lines, the rest re-extract. Each call
// accounts the crash it just rode through; calls at the PoisonAfter
// threshold are returned for quarantine instead of requeued — the
// caller delivers their failures outside the lock. Pinned calls
// (adoptions) are exempt from quarantine: they must ride every restart
// of their shard.
func (st *shardState) requeueSentLocked() (poisoned []*call) {
	if len(st.sent) == 0 {
		return nil
	}
	limit := st.sup.cfg.PoisonAfter
	requeued := make([]*call, 0, len(st.sent))
	for _, cs := range st.sent {
		for _, c := range cs {
			c.crashes++
			if limit > 0 && c.crashes >= limit && !c.pinned {
				poisoned = append(poisoned, c)
				continue
			}
			requeued = append(requeued, c)
		}
	}
	// Send order is not recoverable from the map, but order across keys
	// is immaterial: responses are keyed and the front end merges by
	// global input order.
	st.queue = append(requeued, st.queue...)
	st.sent = map[string][]*call{}
	return poisoned
}

// reroute drains this shard's queue onto live shards along each key's
// failover sequence. Calls with nowhere to go stay queued here (the
// fleet is merely degraded), unless this shard is terminal — permanently
// failed or retired — and no shard can ever take them — those fail with
// ErrNoShards. Pinned calls never reroute: they wait for this shard's
// restart, or fail when the shard is terminal.
func (st *shardState) reroute() {
	st.mu.Lock()
	work := st.queue
	st.queue = nil
	terminal := st.failed || st.retired
	st.mu.Unlock()
	var kept []*call
	for _, c := range work {
		switch {
		case c.pinned && !terminal:
			kept = append(kept, c)
		case c.pinned:
			c.done <- callResult{err: fmt.Errorf("shard %d: pinned call %q: %w", st.id, c.key, ErrNoShards)}
		case !terminal:
			if to := st.failoverTarget(c.key); to != nil {
				st.sup.m.Counter("shard.rerouted").Inc()
				to.enqueue(c)
			} else {
				kept = append(kept, c)
			}
		case st.failoverEnqueue(c):
		default:
			c.done <- callResult{err: ErrNoShards}
		}
	}
	if len(kept) > 0 {
		st.mu.Lock()
		st.queue = append(st.queue, kept...)
		st.mu.Unlock()
		st.wake()
	}
}

// failoverTarget finds the first routeable shard other than this one
// along the key's ring sequence in the current view; nil when none is
// routeable.
func (st *shardState) failoverTarget(key string) *shardState {
	f := st.sup.view.Load()
	for dist, id := range f.ring.Sequence(key) {
		other := f.shards[id]
		if other == st {
			continue
		}
		if other.routeable() {
			st.sup.m.Histogram("shard.reroute.distance", RerouteBuckets).Observe(float64(dist))
			return other
		}
	}
	return nil
}

// anyOtherAlive finds any non-terminal shard other than this one in the
// current view; nil when the rest of the fleet is gone too.
func (st *shardState) anyOtherAlive() *shardState {
	f := st.sup.view.Load()
	for _, other := range f.shards {
		if other == st {
			continue
		}
		other.mu.Lock()
		terminal := other.failed || other.retired
		other.mu.Unlock()
		if !terminal {
			return other
		}
	}
	return nil
}

// markLive records proof of life from the current child — a pong or a
// response — resetting the consecutive-restart streak, advancing the
// proven epoch (what Scale and Roll wait on before flipping routing or
// moving to the next shard), and walking the breaker back toward closed
// (half-open probe then success) once its cooldown has elapsed.
func (st *shardState) markLive(epoch int64) {
	st.mu.Lock()
	st.restarts = 0
	if epoch > st.provenEpoch {
		st.provenEpoch = epoch
	}
	st.mu.Unlock()
	if st.breaker.State() == serve.Closed {
		st.breaker.Success()
	} else if st.breaker.Allow() {
		st.breaker.Success()
	}
}

// waitProven blocks until a child with epoch > after proves liveness
// (pong or response) — the gate both Scale (routing flips only once the
// new shard answers) and Roll (next shard only once the restarted one
// answers) stand behind.
func (st *shardState) waitProven(ctx context.Context, after int64, done <-chan struct{}) error {
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		st.mu.Lock()
		proven := st.provenEpoch
		failed := st.failed
		st.mu.Unlock()
		if proven > after {
			return nil
		}
		if failed {
			return fmt.Errorf("shard %d permanently failed", st.id)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-done:
			return ErrClosed
		case <-t.C:
		}
	}
}

// proc is one live child process and its pipes. The supervisor wires
// plain os.Pipes rather than exec's managed StdinPipe/StdoutPipe so that
// cmd.Wait never races the reader goroutine for the pipe handles.
type proc struct {
	cmd    *exec.Cmd
	stdin  *os.File
	stdout *os.File

	wmu      sync.Mutex
	wbuf     []byte // frame encoding scratch, guarded by wmu
	exited   chan struct{}
	waitErr  error
	killOnce sync.Once
	draining atomic.Bool  // planned drain in progress: the prober stands down
	lastSeen atomic.Int64 // unix nanos of the latest pong or response
}

// write sends one frame to the child in a single write, so frames from
// the flush loop and the prober never interleave.
func (p *proc) write(f Frame) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.wbuf = AppendFrame(p.wbuf[:0], f)
	_, err := p.stdin.Write(p.wbuf)
	if cap(p.wbuf) > 1<<20 {
		p.wbuf = nil // do not pin one outsized document for the child's life
	}
	return err
}

func (p *proc) kill() {
	p.killOnce.Do(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill() //nolint:errcheck
		}
	})
}

// startChild spawns one incarnation of the shard's worker.
func (st *shardState) startChild() (*proc, error) {
	cmd, err := st.sup.cfg.Start(st.id)
	if err != nil {
		return nil, err
	}
	if cmd.Stdin != nil || cmd.Stdout != nil {
		return nil, errors.New("shard: Start must leave cmd.Stdin and cmd.Stdout unset")
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd.Stdin = inR
	cmd.Stdout = outW
	if cmd.Stderr == nil {
		cmd.Stderr = st.sup.cfg.Stderr
	}
	if err := cmd.Start(); err != nil {
		inR.Close()
		inW.Close()
		outR.Close()
		outW.Close()
		return nil, err
	}
	// The child owns its ends now; the parent keeps the other two.
	inR.Close()
	outW.Close()
	p := &proc{cmd: cmd, stdin: inW, stdout: outR, exited: make(chan struct{})}
	p.lastSeen.Store(time.Now().UnixNano())
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	st.mu.Lock()
	st.epoch++
	st.up = true
	st.pid = cmd.Process.Pid
	st.mu.Unlock()
	st.sup.m.Counter("shard.starts").Inc()
	st.sup.m.Gauge(obs.Name("shard.up", st.label())).Set(1)
	st.sup.m.Gauge("shard.up").Add(1)
	if st.sup.cfg.OnStart != nil {
		st.sup.cfg.OnStart(st.id, cmd.Process.Pid)
	}
	return p, nil
}

// label is the shard's metric label.
func (st *shardState) label() obs.Label {
	return obs.L("shard", strconv.Itoa(st.id))
}

// serveChild pumps one child for its whole life: a reader goroutine
// dispatches keyed responses, a prober enforces the liveness deadline,
// and the loop body writes queued requests. It returns once the child
// has exited and its output is fully drained, classified by why the
// child went down (crash, Close, retirement, roll).
func (st *shardState) serveChild(p *proc) exitKind {
	st.mu.Lock()
	epoch := st.epoch
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.up = false
		st.pid = 0
		st.mu.Unlock()
		st.sup.m.Gauge(obs.Name("shard.up", st.label())).Set(0)
		st.sup.m.Gauge("shard.up").Add(-1)
	}()
	readerDone := make(chan struct{})
	go st.readResponses(p, epoch, readerDone)
	proberDone := make(chan struct{})
	go st.probe(p, proberDone)
	// A planned drain (roll) may have paused flushing on the previous
	// child; this incarnation starts fresh. Work requeued from the
	// previous incarnation (and anything enqueued while the shard was
	// down) must flush even if the kick was already consumed.
	st.setPaused(false)
	st.wake()
	// graceful closes stdin so the child finishes in-flight work,
	// journals it and exits; a straggler is killed after the grace
	// period. The prober stands down first — its pings would hit the
	// closed pipe and kill a child that is draining legitimately.
	graceful := func() {
		p.draining.Store(true)
		p.stdin.Close() //nolint:errcheck
		grace := time.NewTimer(st.sup.cfg.DrainGrace)
		defer grace.Stop()
		select {
		case <-p.exited:
		case <-grace.C:
			p.kill()
		}
	}
	// join waits out the child and both pumps; responses written before
	// the child exited are all delivered once join returns.
	join := func() {
		p.stdin.Close() //nolint:errcheck
		<-p.exited
		<-readerDone
		<-proberDone
	}
	for {
		select {
		case <-p.exited:
			join()
			return exitCrashed
		case <-st.sup.done:
			graceful()
			join()
			return exitShutdown
		case <-st.retireCh:
			// Retirement: routing has already flipped away from this
			// shard. Push queued-but-unsent work to the survivors, then
			// drain the in-flight tail through the exiting child.
			st.setPaused(true)
			st.reroute()
			before := st.sentLen()
			graceful()
			join()
			if drained := before - st.sentLen(); drained > 0 {
				st.sup.m.Counter("shard.reconfig.drained").Add(int64(drained))
			}
			if st.sentLen() > 0 {
				// The child died (or hung past grace) with answers owed:
				// fall back to the crash path so the survivors re-serve
				// the leftovers exactly once.
				return exitCrashed
			}
			return exitRetired
		case <-st.rollCh:
			st.setPaused(true)
			graceful()
			join()
			if st.sentLen() > 0 {
				return exitCrashed
			}
			return exitRolled
		case <-st.kick:
			if !st.flush(p) {
				// A write failed: the child is dying. Kill it and let the
				// exit path account the crash and requeue.
				p.kill()
			}
		}
	}
}

// flush writes every queued request to the child, moving each call to
// the sent map before its bytes hit the pipe so a response can never
// arrive for an untracked key. A paused shard (draining for a planned
// transition) holds its queue. Reports false on the first write error.
func (st *shardState) flush(p *proc) bool {
	for {
		st.mu.Lock()
		if st.paused || len(st.queue) == 0 {
			st.mu.Unlock()
			return true
		}
		c := st.queue[0]
		st.queue = st.queue[1:]
		st.sent[c.key] = append(st.sent[c.key], c)
		st.mu.Unlock()
		f := Frame{Kind: KindDoc, Key: c.key, Span: c.span, Level: c.level, Body: c.doc}
		if c.adopt != "" {
			f = Frame{Kind: KindAdopt, Key: c.key, Body: []byte(c.adopt)}
		}
		if err := p.write(f); err != nil {
			return false
		}
	}
}

// replyLimit bounds one frame from a worker. It sits far above any reply
// a worker renders and only keeps a corrupt size field from allocating
// without bound.
const replyLimit = 1 << 28

// readResponses drains the child's stdout until EOF, delivering each
// keyed reply to the oldest waiting call for that key and forwarding
// telemetry shipments and reply span trees, stamped with the shard index
// and this child's epoch, to the telemetry observer. A frame it cannot
// read kills the child: the exit path then requeues whatever it owed.
func (st *shardState) readResponses(p *proc, epoch int64, done chan<- struct{}) {
	defer close(done)
	defer p.stdout.Close() //nolint:errcheck
	fr := NewReader(p.stdout, replyLimit)
	for {
		f, err := fr.Next()
		if err != nil {
			if err != io.EOF {
				p.kill() // a torn frame from a dying child, or a broken protocol
			}
			return
		}
		p.lastSeen.Store(time.Now().UnixNano())
		st.markLive(epoch)
		switch f.Kind {
		case KindTelemetry:
			st.sup.m.Counter(obs.Name("shard.telemetry.shipments", st.label())).Inc()
			var t Telemetry
			if err := json.Unmarshal(f.Body, &t); err == nil {
				st.observe(t, epoch)
			}
		case KindReply:
			if len(f.Trace) > 0 {
				// The tree goes to the stitcher before the line goes to its
				// caller, so an emitted document's tree is always on file.
				var sp obs.SpanSnapshot
				if err := json.Unmarshal(f.Trace, &sp); err == nil {
					st.observe(Telemetry{Spans: []obs.SpanSnapshot{sp}}, epoch)
				}
			}
			st.deliver(f.Key, callResult{line: append([]byte(nil), f.Body...), status: f.Status})
		case KindAdopted:
			st.deliver(f.Key, callResult{})
		case KindError:
			st.deliver(f.Key, callResult{err: fmt.Errorf("shard %d: %s", st.id, f.Body)})
		}
	}
}

// observe stamps a shipment with this shard's index and the child's
// epoch and hands it to the telemetry observer, if any.
func (st *shardState) observe(t Telemetry, epoch int64) {
	if cb := st.sup.cfg.OnTelemetry; cb != nil {
		t.Shard = st.id
		t.Epoch = epoch
		cb(t)
	}
}

// deliver completes the oldest call waiting on key. Replies with no
// waiting call (a key answered twice, or a reply drained from a child
// whose work was already requeued) are dropped and counted — the dedup
// half of exactly-once emission.
func (st *shardState) deliver(key string, r callResult) {
	st.mu.Lock()
	cs := st.sent[key]
	var c *call
	if len(cs) > 0 {
		c = cs[0]
		if len(cs) == 1 {
			delete(st.sent, key)
		} else {
			st.sent[key] = cs[1:]
		}
	}
	st.mu.Unlock()
	if c == nil {
		st.sup.m.Counter("shard.response.orphans").Inc()
		return
	}
	c.done <- r
}

// probe enforces the liveness deadline: a ping every ProbeInterval, and
// a kill when the child has neither ponged nor responded within
// ProbeTimeout. A negative interval disables active probing; a planned
// drain stands the prober down (the drain grace period polices hangs).
func (st *shardState) probe(p *proc, done chan<- struct{}) {
	defer close(done)
	if st.sup.cfg.ProbeInterval < 0 {
		return
	}
	t := time.NewTicker(st.sup.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.exited:
			return
		case <-st.sup.done:
			return
		case <-t.C:
			if p.draining.Load() {
				return
			}
			if time.Since(time.Unix(0, p.lastSeen.Load())) > st.sup.cfg.ProbeTimeout {
				st.sup.m.Counter("shard.probe.timeouts").Inc()
				fmt.Fprintf(st.sup.cfg.Stderr, "vs2d: shard %d: liveness probe deadline exceeded; killing child\n", st.id)
				p.kill()
				return
			}
			if err := p.write(Frame{Kind: KindPing}); err != nil {
				p.kill()
				return
			}
		}
	}
}
