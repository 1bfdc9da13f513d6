// Command vs2d is the fault-tolerant sharded front end of the vs2
// serving stack: it consistent-hash-routes documents by ID across N
// supervised worker shards, each a child process running the familiar
// vs2serve-style loop — bounded worker pool, retries, breakers — with
// its own write-ahead journal. The supervisor probes every shard for
// liveness, restarts crashed shards with exponential backoff (the
// restarted child resumes its own journal, replaying completed
// documents instead of re-extracting them), and fails a crash-looping
// shard's keyspace over to its ring successors.
//
// Two front-end modes share the scatter/merge engine:
//
//   - Batch (default): a JSONL corpus streams in from -in or stdin and
//     one result line per document is emitted on stdout in input order —
//     merged across shards, deduplicated, and byte-identical across any
//     combination of shard crashes and front-end restarts (-resume).
//   - Serve (-listen addr): a TCP listener; each connection is its own
//     JSONL stream with the same per-connection ordering contract.
//
// Durability: -state names a directory holding one journal per shard
// (shard-K.wal and its pidfile; a scale-in handoff also leaves a
// shard-K.wal.ckpt checkpoint). A run without -resume starts fresh;
// with -resume every shard replays its own journal — and only its own:
// journals are owner-stamped, so a misrouted state directory fails
// loudly instead of replaying another shard's results.
//
// Usage:
//
//	vs2gen -n 500 -out - | vs2d -task events -shards 4 -state run/
//	vs2d -in corpus.jsonl -task tax -shards 4 -state run/ -resume
//	vs2d -listen :7333 -task events -shards 8
//
// The -worker flag (first argument) selects the internal shard-worker
// mode the supervisor spawns; it is not meant for direct use.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vs2"
	"vs2/internal/admin"
	"vs2/internal/obs"
	"vs2/internal/serve"
	"vs2/internal/shard"
	"vs2/internal/triage"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-worker" {
		os.Exit(runWorker(args[1:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(args, os.Stdin, os.Stdout, os.Stderr))
}

// options carries the parsed and validated front-end configuration.
type options struct {
	shards  int
	task    string
	state   string
	resume  bool
	listen  string
	in      string
	workers int
	queue   int
	retries int
	maxLine int
	jsync   string
	timeout time.Duration
	metrics bool

	admin       string
	trace       string
	telInterval time.Duration

	probeInterval  time.Duration
	probeTimeout   time.Duration
	restartBackoff time.Duration
	restartMax     time.Duration
	maxRestarts    int
	drainGrace     time.Duration
	poisonAfter    int

	maxConns        int
	idleTimeout     time.Duration
	reconfigTimeout time.Duration

	fidelity     string
	fidelityLvls int
	fidelityPin  int

	tplCap     int
	tplQuantum float64
}

// run is the testable front-end entry point; it returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	// The front end's own messages, the supervisor's log lines and every
	// child's stderr share this sink across goroutines; one lock for all.
	stderr = shard.SyncWriter(stderr)
	fs := flag.NewFlagSet("vs2d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.shards, "shards", 2, "number of worker shards (child processes)")
	fs.StringVar(&o.task, "task", "events", "extraction task: "+strings.Join(taskNames(), " | "))
	fs.StringVar(&o.state, "state", "", "state directory: one write-ahead journal per shard; empty disables durability")
	fs.BoolVar(&o.resume, "resume", false, "resume from -state: each shard replays its own journal, completed documents re-emit byte for byte")
	fs.StringVar(&o.listen, "listen", "", "serve mode: accept JSONL document streams on this TCP address instead of running one batch")
	fs.StringVar(&o.in, "in", "", "batch mode input (JSONL, one document per line); default stdin")
	fs.IntVar(&o.workers, "workers", 0, "worker-pool size inside each shard (0 = min(GOMAXPROCS, 8))")
	fs.IntVar(&o.queue, "queue", 0, "admission-queue depth inside each shard (0 = 4x workers)")
	fs.IntVar(&o.retries, "retries", 0, "attempts per document inside a shard, first try included (0 = 3)")
	fs.IntVar(&o.maxLine, "max-line", 16<<20, "largest input line accepted, in bytes")
	fs.StringVar(&o.jsync, "journal-sync", "always", "shard journal fsync policy: always | interval | never")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Minute, "overall batch deadline (0 = none)")
	fs.BoolVar(&o.metrics, "metrics", false, "print the supervisor metrics snapshot to stderr after the run")
	fs.StringVar(&o.admin, "admin", "", "admin HTTP listener address (/metrics, /healthz, /readyz, /slo, /debug/pprof); empty disables")
	fs.StringVar(&o.trace, "trace", "", "write one stitched cross-process span tree per document (JSONL) to this file")
	fs.DurationVar(&o.telInterval, "telemetry-interval", 250*time.Millisecond, "how often each shard ships metric deltas to the front end (0 disables)")
	fs.DurationVar(&o.probeInterval, "probe-interval", time.Second, "shard liveness-probe cadence (negative disables)")
	fs.DurationVar(&o.probeTimeout, "probe-timeout", 5*time.Second, "kill a shard that answers no probe within this deadline")
	fs.DurationVar(&o.restartBackoff, "restart-backoff", 100*time.Millisecond, "base backoff before restarting a crashed shard")
	fs.DurationVar(&o.restartMax, "restart-backoff-max", 5*time.Second, "backoff cap for crash-looping shards")
	fs.IntVar(&o.maxRestarts, "max-restarts", 8, "consecutive failed starts before a shard is abandoned and failed over")
	fs.DurationVar(&o.drainGrace, "drain-grace", 10*time.Second, "how long shutdown waits for a shard to drain before killing it")
	fs.IntVar(&o.poisonAfter, "poison-after", 0, "quarantine a document after it crashes its worker this many times (0 disables); quarantined keys land in state/poisoned.jsonl")
	fs.IntVar(&o.maxConns, "max-conns", 256, "serve mode: concurrent client connection cap; excess connections are shed with one JSON error line")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "serve mode: close a connection idle (no readable byte) for this long; 0 disables")
	fs.DurationVar(&o.reconfigTimeout, "reconfig-timeout", 2*time.Minute, "deadline for one live reconfiguration (/admin/scale, /admin/roll, SIGHUP roll)")
	fs.StringVar(&o.fidelity, "fidelity", "off", "fleet fidelity ladder mode: off | pinned | adaptive; the front end stamps its level on every request so all shards degrade coherently")
	fs.IntVar(&o.fidelityLvls, "fidelity-levels", 3, "deepest fidelity degradation level")
	fs.IntVar(&o.fidelityPin, "fidelity-pin", 0, "level a pinned-mode ladder holds")
	fs.IntVar(&o.tplCap, "template-cache", 0, "per-shard layout-template cache capacity in entries (0 disables)")
	fs.Float64Var(&o.tplQuantum, "template-quantum", 0, "template fingerprint quantization step in layout units (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validate(&o); err != nil {
		fmt.Fprintln(stderr, "vs2d:", err)
		return 2
	}

	var stitch *stitcher
	if o.trace != "" {
		stitch = newStitcher()
	}
	sup, m, err := startSupervisor(&o, stitch, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "vs2d:", err)
		return 2
	}
	// The end-to-end latency window behind /slo: admission to answer,
	// per document, over the last minute.
	win := obs.NewWindow(nil, time.Minute, 6)
	level := startFleetFidelity(&o, sup, m)
	defer level.stop()
	// Live reconfiguration entry points: /admin/scale and /admin/roll
	// block until the transition completes (bounded by -reconfig-timeout),
	// and SIGHUP triggers a rolling restart — the operator's zero-downtime
	// "pick up fresh children" signal.
	scaleTo := func(n int) error {
		ctx, cancel := context.WithTimeout(context.Background(), o.reconfigTimeout)
		defer cancel()
		return sup.Scale(ctx, n)
	}
	rollFleet := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), o.reconfigTimeout)
		defer cancel()
		return sup.Roll(ctx)
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			fmt.Fprintln(stderr, "vs2d: SIGHUP: rolling restart")
			if err := rollFleet(); err != nil {
				fmt.Fprintln(stderr, "vs2d: roll:", err)
			}
		}
	}()
	if o.admin != "" {
		adminSrv, err := admin.Start(o.admin, admin.Config{
			Metrics: func() obs.Snapshot { return m.Snapshot() },
			Health:  func() admin.HealthStatus { return fleetHealth(sup, m) },
			SLO:     func() admin.SLOStatus { return fleetSLO(sup, m, win) },
			Scale:   scaleTo,
			Roll:    rollFleet,
		})
		if err != nil {
			fmt.Fprintln(stderr, "vs2d:", err)
			return 2
		}
		defer adminSrv.Close()
		fmt.Fprintf(stderr, "vs2d: admin listening on %s\n", adminSrv.Addr())
		if o.state != "" {
			// The bound address lands beside the journals so tooling (and the
			// chaos harness) can scrape a front end started with -admin :0.
			path := filepath.Join(o.state, "admin.addr")
			if err := os.WriteFile(path, []byte(adminSrv.Addr()+"\n"), 0o644); err != nil {
				fmt.Fprintf(stderr, "vs2d: admin.addr: %v\n", err)
			}
		}
	}
	code := 0
	if o.listen != "" {
		code = runListen(&o, sup, win, stitch, level.current, stderr)
	} else {
		code = runBatch(&o, sup, win, stitch, level.current, stdin, stdout, stderr)
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), o.drainGrace+5*time.Second)
	defer cancel()
	if err := sup.Close(closeCtx); err != nil {
		fmt.Fprintln(stderr, "vs2d:", err)
		code = 1
	}
	if stitch != nil {
		// Written only now: the fleet has drained, so every worker's final
		// telemetry flush (and its span trees) has been folded in.
		if err := stitch.writeFile(o.trace); err != nil {
			fmt.Fprintln(stderr, "vs2d: trace:", err)
			code = 1
		}
		if n := stitch.unstitched(); n > 0 {
			fmt.Fprintf(stderr, "vs2d: trace: %d worker span trees matched no front-end span\n", n)
		}
	}
	if o.metrics {
		fmt.Fprintln(stderr, "vs2d: metrics:")
		writeMetrics(stderr, m)
	}
	return code
}

// fleetFidelity is the front end's side of the adaptive fidelity
// ladder: one controller watches the whole fleet's saturation and its
// level rides every request frame (shard.Frame.Level), so all
// shards degrade — and recover — coherently under the same verdict.
type fleetFidelity struct {
	ctrl  *triage.Controller
	pin   int
	armed bool
}

// current is the level stamped on the next request; 0 with the ladder
// off.
func (f fleetFidelity) current() int {
	if f.ctrl != nil {
		return f.ctrl.Level()
	}
	return f.pin
}

func (f fleetFidelity) stop() {
	if f.ctrl != nil {
		f.ctrl.Stop()
	}
}

// startFleetFidelity wires the front-end fidelity ladder per -fidelity.
// The adaptive controller samples fleet backlog against the in-flight
// window plus shard breaker states. Note the batch caveat: a batch run
// keeps the window full by design, so adaptive mode is most meaningful
// in serve mode (-listen) where backlog tracks offered load.
func startFleetFidelity(o *options, sup *shard.Supervisor, m *vs2.Metrics) fleetFidelity {
	switch o.fidelity {
	case vs2.FidelityAdaptive:
		f := fleetFidelity{armed: true}
		f.ctrl = triage.NewController(triage.ControllerConfig{
			Levels: o.fidelityLvls,
			Signals: func() triage.Signals {
				h := sup.Health()
				backlog, open := 0, false
				for _, sh := range h.Shards {
					backlog += sh.Backlog
					if sh.Breaker != serve.Closed.String() {
						open = true
					}
				}
				load := 0.0
				if w := o.window(); w > 0 {
					load = float64(backlog) / float64(w)
				}
				return triage.Signals{Load: load, BreakerOpen: open}
			},
			OnShift: func(from, to int) {
				dir := "up"
				if to < from {
					dir = "down"
				}
				m.Counter(obs.Name("frontend.fidelity.shifts", obs.L("direction", dir))).Inc()
				m.Gauge("frontend.fidelity.level").Set(float64(to))
			},
		})
		m.Gauge("frontend.fidelity.level").Set(0)
		f.ctrl.Start()
		return f
	case vs2.FidelityPinned:
		pin := o.fidelityPin
		if pin < 0 {
			pin = 0
		}
		if pin > o.fidelityLvls {
			pin = o.fidelityLvls
		}
		m.Gauge("frontend.fidelity.level").Set(float64(pin))
		return fleetFidelity{pin: pin, armed: true}
	default:
		return fleetFidelity{}
	}
}

// fleetHealth maps the supervisor's fleet snapshot onto the admin
// verdict: degraded keeps serving (liveness stays green) — that
// includes a fidelity ladder above level 0, which is reduced quality,
// not failure; failed means no shard can take work.
func fleetHealth(sup *shard.Supervisor, m *vs2.Metrics) admin.HealthStatus {
	h := sup.Health()
	level := int64(m.Gauge("frontend.fidelity.level").Value())
	status := "ok"
	if h.Degraded || level > 0 {
		status = "degraded"
	}
	if h.Failed {
		status = "failed"
	}
	return admin.HealthStatus{Status: status, Detail: map[string]any{
		"fleet":          h,
		"fidelity_level": level,
	}}
}

// fleetSLO summarizes the front end's end-to-end latency window and
// cumulative outcome counters for /slo, including the fleet fidelity
// state: the controller's level and transitions, per-class triage
// counts summed across the shards' telemetry, per-reason sheds, and
// the reconfiguration state (ring version, latest epoch, in-progress
// transition).
func fleetSLO(sup *shard.Supervisor, m *vs2.Metrics, win *obs.Window) admin.SLOStatus {
	count, _ := win.Totals()
	snap := m.Snapshot()
	completed := snap.Counters["frontend.completed"]
	failed := snap.Counters["frontend.failed"]
	degraded := snap.Counters["frontend.degraded"]
	shed := snap.Counters["frontend.shed"]
	shedReasons := map[string]int64{}
	shifts := map[string]int64{}
	triageDocs := map[string]int64{}
	var tplHits, tplMisses, tplEvictions int64
	for name, v := range snap.Counters {
		base, labels := obs.SplitName(name)
		// Shard caches ship template.* as shard-labeled series; summing
		// by base name yields the fleet-wide hit accounting.
		switch base {
		case "template.hits":
			tplHits += v
		case "template.misses":
			tplMisses += v
		case "template.evictions":
			tplEvictions += v
		}
		for _, l := range labels {
			switch {
			case base == "serve.shed" && l.Key == "reason":
				shedReasons[l.Value] += v
			case base == "frontend.fidelity.shifts" && l.Key == "direction":
				shifts[l.Value] += v
			case base == "serve.triage.docs" && l.Key == "class":
				triageDocs[l.Value] += v
			}
		}
	}
	slo := admin.SLOStatus{
		WindowSeconds: 60,
		Count:         count,
		P50MS:         win.Quantile(0.50),
		P95MS:         win.Quantile(0.95),
		P99MS:         win.Quantile(0.99),
		Completed:     completed,
		Failed:        failed,
		Shed:          shed,
		Degraded:      degraded,
		FidelityLevel: int64(snap.Gauges["frontend.fidelity.level"]),

		TemplateHits:      tplHits,
		TemplateMisses:    tplMisses,
		TemplateEvictions: tplEvictions,

		RingVersion:   sup.RingVersion(),
		ReconfigEpoch: int64(snap.Gauges["shard.reconfig.epoch"]),
	}
	if t := sup.Transition(); t != nil {
		slo.Reconfig = t
	}
	if probes := tplHits + tplMisses; probes > 0 {
		slo.TemplateHitRate = float64(tplHits) / float64(probes)
	}
	if total := completed + failed; total > 0 {
		slo.ShedRate = float64(shed) / float64(total)
		slo.DegradedRate = float64(degraded) / float64(total)
	}
	if len(shedReasons) > 0 {
		slo.ShedReasons = shedReasons
	}
	if len(shifts) > 0 {
		slo.FidelityShifts = shifts
	}
	if len(triageDocs) > 0 {
		slo.TriageDocs = triageDocs
	}
	return slo
}

// validate applies the front end's flag invariants; its cases are pinned
// by table-driven tests.
func validate(o *options) error {
	if o.shards < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", o.shards)
	}
	if _, err := taskByName(o.task); err != nil {
		return err
	}
	if o.resume && o.state == "" {
		return fmt.Errorf("-resume requires -state")
	}
	if o.listen != "" && o.in != "" {
		return fmt.Errorf("-listen and -in are mutually exclusive")
	}
	if o.maxLine <= 0 {
		return fmt.Errorf("-max-line must be positive")
	}
	if o.maxConns < 1 {
		return fmt.Errorf("-max-conns must be >= 1 (got %d)", o.maxConns)
	}
	if o.idleTimeout < 0 {
		return fmt.Errorf("-idle-timeout must be >= 0")
	}
	if o.reconfigTimeout <= 0 {
		return fmt.Errorf("-reconfig-timeout must be positive")
	}
	switch o.fidelity {
	case "", vs2.FidelityOff, vs2.FidelityPinned, vs2.FidelityAdaptive:
	default:
		return fmt.Errorf("unknown -fidelity mode %q (available: off, pinned, adaptive)", o.fidelity)
	}
	if o.tplCap < 0 {
		return fmt.Errorf("-template-cache must be >= 0")
	}
	if o.tplQuantum < 0 {
		return fmt.Errorf("-template-quantum must be >= 0")
	}
	if o.state != "" {
		if err := os.MkdirAll(o.state, 0o755); err != nil {
			return fmt.Errorf("-state %s: %w", o.state, err)
		}
		if err := writableDir(o.state); err != nil {
			return fmt.Errorf("-state %s: %w", o.state, err)
		}
	}
	return nil
}

// writableDir proves a directory accepts new files, failing fast with a
// usage error instead of dying mid-batch on the first journal append.
func writableDir(dir string) error {
	f, err := os.CreateTemp(dir, ".vs2d-probe-*")
	if err != nil {
		return fmt.Errorf("directory is not writable: %w", err)
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// startSupervisor wipes or keeps the state directory per -resume, then
// launches the shard fleet, each child an incarnation of this binary in
// -worker mode. Worker metric deltas fold into the returned fleet
// registry under a shard label, and the span trees that ride traced
// replies (if stitching is on) into the stitcher.
func startSupervisor(o *options, stitch *stitcher, stderr io.Writer) (*shard.Supervisor, *vs2.Metrics, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("cannot locate own binary for worker mode: %w", err)
	}
	if o.state != "" && !o.resume {
		if err := wipeState(o.state); err != nil {
			return nil, nil, err
		}
	}
	m := vs2.NewMetrics()
	onTelemetry := func(t shard.Telemetry) {
		if t.Metrics != nil {
			m.Merge(*t.Metrics, obs.L("shard", strconv.Itoa(t.Shard)))
		}
		if stitch != nil {
			stitch.onTelemetry(t)
		}
	}
	cfg := shard.Config{
		Shards:         o.shards,
		Start:          func(i int) (*exec.Cmd, error) { return exec.Command(self, workerArgs(o, i)...), nil },
		OnStart:        pidfileWriter(o.state, stderr),
		ProbeInterval:  o.probeInterval,
		ProbeTimeout:   o.probeTimeout,
		RestartBackoff: o.restartBackoff, RestartBackoffMax: o.restartMax,
		MaxRestarts: o.maxRestarts,
		DrainGrace:  o.drainGrace,
		PoisonAfter: o.poisonAfter,
		OnPoison:    poisonJournal(o.state, stderr),
		Metrics:     m,
		OnTelemetry: onTelemetry,
		Stderr:      stderr,
	}
	if o.state != "" {
		// Scale-out: a shard index coming (back) into service must not
		// inherit a stale journal — its old completions were handed off
		// when the index retired, and the resized ring redistributes the
		// keyspace anyway. Re-extraction is deterministic, so deleting is
		// always safe. Only Scale calls this, never the initial fleet, so
		// -resume semantics are untouched.
		cfg.OnProvision = func(i int) error {
			for _, p := range []string{shardJournal(o.state, i), shardJournal(o.state, i) + ".ckpt"} {
				if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
					return fmt.Errorf("provision shard %d: %w", i, err)
				}
			}
			return nil
		}
		// Scale-in: re-stamp the drained retiree's journal to the
		// successor's owner label and hand its path over for adoption.
		// A retiree that never journaled has nothing to hand off.
		cfg.OnHandoff = func(retired, successor int) (string, error) {
			path := shardJournal(o.state, retired)
			if _, err := os.Stat(path); os.IsNotExist(err) {
				return "", nil
			}
			from := fmt.Sprintf("shard-%d", retired)
			to := fmt.Sprintf("shard-%d", successor)
			if err := vs2.TransferJournal(path, from, to); err != nil {
				return "", fmt.Errorf("transfer %s (%s -> %s): %w", path, from, to, err)
			}
			return path, nil
		}
	}
	sup, err := shard.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sup, m, nil
}

// workerArgs builds the command line of one shard worker. Workers always
// open their journal in resume mode: an intra-run restart must replay,
// and a fresh front-end run has already wiped the state directory.
func workerArgs(o *options, i int) []string {
	a := []string{
		"-worker",
		"-shard", strconv.Itoa(i),
		"-task", o.task,
		"-workers", strconv.Itoa(o.workers),
		"-queue", strconv.Itoa(o.queue),
		"-retries", strconv.Itoa(o.retries),
		"-max-line", strconv.Itoa(o.maxLine),
	}
	if o.state != "" {
		a = append(a,
			"-journal", shardJournal(o.state, i),
			"-journal-sync", o.jsync,
		)
	}
	if o.telInterval > 0 {
		a = append(a, "-telemetry-interval", o.telInterval.String())
	}
	if o.trace != "" {
		a = append(a, "-trace-spans")
	}
	if o.fidelity == vs2.FidelityPinned || o.fidelity == vs2.FidelityAdaptive {
		// Workers run pinned at level 0: triage is armed at its base
		// thresholds, and the level the front end stamps on each request
		// frame (shard.Frame.Level) overrides per document — the one
		// controller lives in the front end.
		a = append(a,
			"-fidelity", vs2.FidelityPinned,
			"-fidelity-levels", strconv.Itoa(o.fidelityLvls),
			"-fidelity-pin", "0",
		)
	}
	if o.tplCap > 0 {
		// Each shard owns its cache: templates are memoized where the
		// documents land, and a restarted shard simply rewarms.
		a = append(a, "-template-cache", strconv.Itoa(o.tplCap))
		if o.tplQuantum > 0 {
			a = append(a, "-template-quantum", strconv.FormatFloat(o.tplQuantum, 'g', -1, 64))
		}
	}
	return a
}

// poisonJournal builds the supervisor's OnPoison hook: one JSON line
// per quarantined document appended to state/poisoned.jsonl, so
// operators can triage the corpus offline. A stateless run gets only
// the supervisor's stderr log line.
func poisonJournal(state string, stderr io.Writer) func(shard int, key string, crashes int) {
	if state == "" {
		return nil
	}
	var mu sync.Mutex
	path := filepath.Join(state, "poisoned.jsonl")
	return func(shard int, key string, crashes int) {
		rec, err := json.Marshal(map[string]any{"shard": shard, "key": key, "crashes": crashes})
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "vs2d: poisoned.jsonl: %v\n", err)
			return
		}
		defer f.Close()
		f.Write(append(rec, '\n')) //nolint:errcheck
	}
}

func shardJournal(state string, i int) string {
	return filepath.Join(state, fmt.Sprintf("shard-%d.wal", i))
}

// pidfileWriter records each shard child's PID at state/shard-K.pid so
// operators (and the chaos harness) can address individual shards.
func pidfileWriter(state string, stderr io.Writer) func(shard, pid int) {
	if state == "" {
		return nil
	}
	return func(shard, pid int) {
		path := filepath.Join(state, fmt.Sprintf("shard-%d.pid", shard))
		if err := os.WriteFile(path, []byte(strconv.Itoa(pid)+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "vs2d: shard %d: pidfile: %v\n", shard, err)
		}
	}
}

// wipeState clears a previous run's shard state (journals, checkpoints,
// pidfiles) for a fresh start. Only vs2d's own file patterns are
// touched.
func wipeState(dir string) error {
	for _, pat := range []string{"shard-*.wal", "shard-*.wal.ckpt", "shard-*.pid"} {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		for _, f := range matches {
			if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("reset state %s: %w", f, err)
			}
		}
	}
	return nil
}

// runBatch scatters one corpus and merges the result stream to stdout.
func runBatch(o *options, sup *shard.Supervisor, win *obs.Window, stitch *stitcher, level func() int, stdin io.Reader, stdout, stderr io.Writer) int {
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	in := stdin
	name := "stdin"
	if o.in != "" && o.in != "-" {
		f, err := os.Open(o.in)
		if err != nil {
			fmt.Fprintln(stderr, "vs2d:", err)
			return 2
		}
		defer f.Close()
		in = f
		name = o.in
	}
	st := scatter(ctx, sup, scatterConfig{
		name:    name,
		maxLine: o.maxLine,
		window:  o.window(),
		metrics: sup.Metrics(),
		latency: win,
		stitch:  stitch,
		level:   level,
	}, in, stdout, stderr)
	if st.writeErr != nil {
		fmt.Fprintln(stderr, "vs2d: writing results:", st.writeErr)
		st.runErr = true
	}
	fmt.Fprintf(stderr, "vs2d: %d documents across %d shards: %d completed (%d degraded), %d failed\n",
		st.docs, o.shards, st.completed, st.degraded, st.failed)
	if st.docs == 0 && !st.runErr {
		fmt.Fprintln(stderr, "vs2d: no documents in input")
		return 1
	}
	if st.failed > 0 || st.runErr {
		return 1
	}
	return 0
}

// window bounds the documents in flight across the whole fleet: enough
// to saturate every shard's pool and queue.
func (o *options) window() int {
	per := vs2.ServerConfig{Workers: o.workers, Queue: o.queue}.Window()
	return per * o.shards
}

// runListen accepts JSONL connections and serves each as its own
// scatter/merge stream until the listener dies. SIGINT/SIGTERM stop the
// accept loop and abort in-flight streams so the exit path still drains
// the fleet — the final telemetry flushes and the stitched trace only
// exist on an orderly shutdown. The handler is registered before the
// listener is announced, so no signal sent after the announcement can
// take the default action and kill the process.
func runListen(o *options, sup *shard.Supervisor, win *obs.Window, stitch *stitcher, level func() int, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		fmt.Fprintln(stderr, "vs2d:", err)
		return 2
	}
	defer l.Close()
	fmt.Fprintf(stderr, "vs2d: listening on %s\n", l.Addr())
	if err := serveListener(ctx, l, sup, sup.Metrics(), o, win, stitch, level, stderr); err != nil {
		fmt.Fprintln(stderr, "vs2d:", err)
		return 1
	}
	return 0
}

// writeMetrics dumps one indented metrics snapshot.
func writeMetrics(w io.Writer, m *vs2.Metrics) {
	data, err := m.MarshalJSON()
	if err != nil {
		fmt.Fprintln(w, "vs2d: metrics snapshot failed:", err)
		return
	}
	w.Write(data)           //nolint:errcheck
	io.WriteString(w, "\n") //nolint:errcheck
}

// tasks maps every task name to its constructor, mirroring cmd/vs2serve.
var tasks = map[string]func() vs2.Task{
	"events":     vs2.EventPosterTask,
	"realestate": vs2.RealEstateTask,
	"tax":        vs2.NISTTaxTask,
}

func taskNames() []string {
	names := make([]string, 0, len(tasks))
	for n := range tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func taskByName(name string) (vs2.Task, error) {
	if mk, ok := tasks[name]; ok {
		return mk(), nil
	}
	return vs2.Task{}, fmt.Errorf("unknown task %q (available: %s)", name, strings.Join(taskNames(), ", "))
}
