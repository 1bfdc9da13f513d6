// Command vs2serve runs a document stream through the resilient serving
// layer: a bounded worker pool with admission control, per-document
// retries and per-phase circuit breakers over the hardened extraction
// pipeline, with optional write-ahead journaling so a run killed at any
// instant resumes without losing, duplicating or reordering a result.
// It is the corpus-scale counterpart of the one-shot `vs2` command.
//
// Input is a JSONL document stream — one bare or labelled document per
// line — from -in or stdin, read incrementally: corpora far larger than
// memory stream through, with -max-line bounding a single document.
// Every document produces exactly one JSON line on stdout, emitted in
// input order as results become available:
//
//	{"id":"poster-17","entities":[...],"degraded":["segment degraded to linear-segmentation: phase budget exceeded"]}
//
// Each "degraded" note reads "<phase> degraded to <fallback>: <cause>";
// the key is absent when nothing degraded. Documents the server sheds
// or that fail every retry keep their line, with the structured error
// in an "error" field; the exit code is then non-zero. A summary (completed / degraded / replayed / failed / shed)
// lands on stderr, -metrics dumps the full telemetry snapshot, and
// -trace writes one compact span tree per document as JSONL — the
// stream format vs2trace validates.
//
// Durability: -journal names a CRC-framed write-ahead journal that holds
// one record per document, its completion with the exact output line,
// written (and by default fsynced) before the line is emitted; -resume
// replays that journal, re-emits completed documents' lines byte for
// byte without re-running them, and continues with the rest — `kill -9`
// at any instant then -resume reproduces the output of an uninterrupted
// run. Nothing rewrites the journal while serving, so each document
// costs the same one append however long the run.
//
// Usage:
//
//	vs2gen -n 100 -out - | vs2serve -task events
//	vs2serve -in corpus.jsonl -task tax -workers 8 -queue 32 -retries 3
//	vs2serve -in corpus.jsonl -journal run.wal
//	vs2serve -in corpus.jsonl -journal run.wal -resume   # after a crash
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vs2"
	"vs2/internal/admin"
	"vs2/internal/jsonl"
	"vs2/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vs2serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "JSONL document stream (one document per line); default stdin")
		task      = fs.String("task", "events", "extraction task: "+strings.Join(taskNames(), " | "))
		workers   = fs.Int("workers", 0, "worker-pool size (0 = min(GOMAXPROCS, 8))")
		queue     = fs.Int("queue", 0, "admission-queue depth (0 = 4x workers)")
		queueWait = fs.Duration("queue-wait", 0, "queue-wait budget before shedding (0 = the -timeout deadline: a batch run does not shed its own tail)")
		retries   = fs.Int("retries", 0, "attempts per document, first try included (0 = 3)")
		timeout   = fs.Duration("timeout", 5*time.Minute, "overall batch deadline (0 = none)")
		maxLine   = fs.Int("max-line", 16<<20, "largest input line accepted, in bytes")
		metrics   = fs.Bool("metrics", false, "print the metrics snapshot to stderr after the run")
		traceOut  = fs.String("trace", "", "write one compact span tree per document (JSONL) to this file")
		adminAddr = fs.String("admin", "", "admin HTTP listener address (/metrics, /healthz, /readyz, /slo, /debug/pprof); empty disables")

		fidelity     = fs.String("fidelity", "off", "fidelity ladder mode: off | pinned | adaptive")
		fidelityLvls = fs.Int("fidelity-levels", 3, "deepest fidelity degradation level")
		fidelityPin  = fs.Int("fidelity-pin", 0, "level a pinned-mode ladder holds")

		templateCache   = fs.Int("template-cache", 0, "layout-template cache capacity in entries (0 disables)")
		templateQuantum = fs.Float64("template-quantum", 0, "template fingerprint quantization step in layout units (0 = default)")

		journalPath = fs.String("journal", "", "write-ahead journal path; completions are journaled before they are emitted")
		resume      = fs.Bool("resume", false, "replay the journal: skip completed documents, re-emit their cached lines, continue the tail")
		jsync       = fs.String("journal-sync", "always", "journal fsync policy: always | interval | never")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := validateServeFlags(serveFlags{
		task:       *task,
		maxLine:    *maxLine,
		journal:    *journalPath,
		resume:     *resume,
		fidelity:   *fidelity,
		tplCap:     *templateCache,
		tplQuantum: *templateQuantum,
	}); err != nil {
		fmt.Fprintln(stderr, "vs2serve:", err)
		return 2
	}
	taskCfg, err := taskByName(*task)
	if err != nil {
		fmt.Fprintln(stderr, "vs2serve:", err)
		return 2
	}

	m := vs2.NewMetrics()
	var jrn *vs2.Journal
	if *journalPath != "" {
		jrn, err = vs2.OpenJournal(*journalPath, vs2.JournalOptions{
			Resume:  *resume,
			Sync:    *jsync,
			Metrics: m,
		})
		if err != nil {
			fmt.Fprintln(stderr, "vs2serve:", err)
			return 2
		}
		if comp := jrn.Replayed(); *resume && comp > 0 {
			fmt.Fprintf(stderr, "vs2serve: journal %s: recovered %d completed documents\n", *journalPath, comp)
		}
	}

	// The server's 1s default queue-wait suits an online service; a batch
	// CLI run over a finite corpus must not shed its own tail, so the
	// budget defaults to the whole batch deadline.
	if *queueWait == 0 {
		*queueWait = *timeout
		if *queueWait == 0 {
			*queueWait = 24 * time.Hour
		}
	}

	p := vs2.NewPipeline(vs2.Config{Task: taskCfg, Metrics: m})
	s := vs2.NewServer(p, vs2.ServerConfig{
		Workers:   *workers,
		Queue:     *queue,
		QueueWait: *queueWait,
		Retry:     vs2.RetryPolicy{MaxAttempts: *retries},
		Metrics:   m,
		Fidelity: vs2.FidelityPolicy{
			Mode:   *fidelity,
			Levels: *fidelityLvls,
			Pin:    *fidelityPin,
		},
		Template: vs2.TemplatePolicy{
			Capacity: *templateCache,
			Quantum:  *templateQuantum,
		},
	})

	// The end-to-end latency window behind /slo: submission to answer,
	// per document, over the last minute.
	win := obs.NewWindow(nil, time.Minute, 6)
	if *adminAddr != "" {
		adminSrv, aerr := admin.Start(*adminAddr, admin.Config{
			Metrics: func() obs.Snapshot { return m.Snapshot() },
			Health:  func() admin.HealthStatus { return serveHealth(m) },
			SLO:     func() admin.SLOStatus { return serveSLO(m, win) },
		})
		if aerr != nil {
			fmt.Fprintln(stderr, "vs2serve:", aerr)
			return 2
		}
		defer adminSrv.Close()
		fmt.Fprintf(stderr, "vs2serve: admin listening on %s\n", adminSrv.Addr())
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var traceW *json.Encoder
	if *traceOut != "" {
		traceFile, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "vs2serve:", err)
			return 1
		}
		defer traceFile.Close()
		traceW = json.NewEncoder(traceFile)
	}

	st := streamExtract(ctx, s, jrn, streamConfig{
		in:      *in,
		stdin:   stdin,
		maxLine: *maxLine,
		window:  vs2.ServerConfig{Workers: *workers, Queue: *queue}.Window(),
		stdout:  stdout,
		stderr:  stderr,
		traceW:  traceW,
		latency: win,
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "vs2serve:", err)
	}
	if err := jrn.Close(); err != nil {
		fmt.Fprintln(stderr, "vs2serve:", err)
		st.runErr = true
	}

	fmt.Fprintf(stderr, "vs2serve: %d documents: %d completed (%d degraded, %d replayed), %d failed (%d shed)\n",
		st.docs, st.completed, st.degraded, st.replayed, st.failed, st.shed)
	if *metrics {
		fmt.Fprintln(stderr, "vs2serve: metrics:")
		menc := json.NewEncoder(stderr)
		menc.SetIndent("", "  ")
		if err := menc.Encode(m.Snapshot()); err != nil {
			fmt.Fprintln(stderr, "vs2serve: metrics snapshot failed:", err)
		}
	}
	switch {
	case st.docs == 0 && !st.runErr:
		fmt.Fprintln(stderr, "vs2serve: no documents in input")
		return 1
	case st.failed > 0 || st.runErr:
		return 1
	}
	return 0
}

// serveHealth derives the admin verdict from the registry: the process
// is alive and serving, and an open phase breaker — or a fidelity
// ladder that has degraded above level 0 — marks it degraded, not
// failed: it still answers, with degraded-mode fallbacks, cheaper
// triage paths, or structured errors.
func serveHealth(m *vs2.Metrics) admin.HealthStatus {
	snap := m.Snapshot()
	open := []string{}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "serve.breaker.") && strings.HasSuffix(name, ".state") && v != 0 {
			open = append(open, strings.TrimSuffix(strings.TrimPrefix(name, "serve.breaker."), ".state"))
		}
	}
	sort.Strings(open)
	level := int64(snap.Gauges["serve.fidelity.level"])
	status := "ok"
	if len(open) > 0 || level > 0 {
		status = "degraded"
	}
	return admin.HealthStatus{Status: status, Detail: map[string]any{
		"open_breakers":  open,
		"fidelity_level": level,
	}}
}

// serveSLO summarizes the latency window and the server's cumulative
// outcome counters for /slo.
func serveSLO(m *vs2.Metrics, win *obs.Window) admin.SLOStatus {
	count, _ := win.Totals()
	snap := m.Snapshot()
	completed := snap.Counters["serve.completed"]
	failed := snap.Counters["serve.failed"]
	shed := snap.Counters["serve.shed"]
	var degraded, tplHits, tplMisses, tplEvictions int64
	shedReasons := map[string]int64{}
	shifts := map[string]int64{}
	triageDocs := map[string]int64{}
	for name, v := range snap.Counters {
		// One counter per degradation fallback (degraded.<fallback>).
		if strings.HasPrefix(name, "degraded.") {
			degraded += v
		}
		base, labels := obs.SplitName(name)
		// Template counters match by base name so shard-labeled series
		// (vs2d's merged registries) sum the same way plain ones do.
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
			case base == "serve.fidelity.shifts" && l.Key == "direction":
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
		FidelityLevel: int64(snap.Gauges["serve.fidelity.level"]),

		TemplateHits:      tplHits,
		TemplateMisses:    tplMisses,
		TemplateEvictions: tplEvictions,
	}
	if probes := tplHits + tplMisses; probes > 0 {
		slo.TemplateHitRate = float64(tplHits) / float64(probes)
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
	if total := completed + failed; total > 0 {
		slo.ShedRate = float64(shed) / float64(total)
		slo.DegradedRate = float64(degraded) / float64(total)
	}
	return slo
}

// serveFlags carries the flag values the CLI invariants constrain.
type serveFlags struct {
	task       string
	maxLine    int
	journal    string
	resume     bool
	fidelity   string
	tplCap     int
	tplQuantum float64
}

// validateServeFlags applies the CLI invariants before any state is
// touched, so misconfiguration fails fast with a usage error instead of
// dying mid-batch; its cases are pinned by table-driven tests.
func validateServeFlags(f serveFlags) error {
	if _, err := taskByName(f.task); err != nil {
		return err
	}
	if f.resume && f.journal == "" {
		return errors.New("-resume requires -journal")
	}
	if f.maxLine <= 0 {
		return errors.New("-max-line must be positive")
	}
	switch f.fidelity {
	case "", vs2.FidelityOff, vs2.FidelityPinned, vs2.FidelityAdaptive:
	default:
		return fmt.Errorf("unknown -fidelity mode %q (available: off, pinned, adaptive)", f.fidelity)
	}
	if f.tplCap < 0 {
		return errors.New("-template-cache must be >= 0")
	}
	if f.tplQuantum < 0 {
		return errors.New("-template-quantum must be >= 0")
	}
	if f.journal != "" {
		if err := writableParent(f.journal); err != nil {
			return fmt.Errorf("-journal %s: %w", f.journal, err)
		}
	}
	return nil
}

// writableParent proves the path's directory exists and accepts new
// files, so the journal can be created there.
func writableParent(path string) error {
	dir := filepath.Dir(path)
	probe, err := os.CreateTemp(dir, ".vs2serve-probe-*")
	if err != nil {
		return fmt.Errorf("directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}

// streamConfig carries the plumbing of one streaming run.
type streamConfig struct {
	in      string
	stdin   io.Reader
	maxLine int
	window  int
	stdout  io.Writer
	stderr  io.Writer
	traceW  *json.Encoder
	latency *obs.Window // end-to-end latency for /slo (nil disables)
}

// streamStats aggregates the run for the summary line and exit code.
type streamStats struct {
	docs, completed, degraded, replayed, failed, shed int
	runErr                                            bool
}

// streamExtract reads the corpus incrementally, runs each document
// through the server (skipping journal-completed ones), and emits one
// line per document on stdout in input order, each as soon as it and
// every earlier line are ready. Memory stays bounded by the in-flight
// window plus the reorder buffer it implies.
func streamExtract(ctx context.Context, s *vs2.Server, jrn *vs2.Journal, cfg streamConfig) streamStats {
	var st streamStats

	replies := jsonl.NewWriter(cfg.stdout, cfg.window)
	sem := make(chan struct{}, cfg.window)
	var wg sync.WaitGroup
	var traceMu sync.Mutex
	index := 0
	scanErr := scanDocuments(cfg.in, cfg.stdin, cfg.maxLine, func(d *vs2.Document) {
		i := index
		index++
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			br := extractOne(ctx, s, jrn, i, d, cfg.traceW, &traceMu)
			cfg.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
			count := statsFor(br)
			replies.Put(i, br.Line, func() { count(&st) }) // counters applied in emission order
		}()
	})
	wg.Wait()
	writeErr := replies.Close()

	st.docs = index
	if scanErr != nil {
		fmt.Fprintln(cfg.stderr, "vs2serve:", scanErr)
		st.runErr = true
	}
	if writeErr != nil {
		fmt.Fprintln(cfg.stderr, "vs2serve: writing results:", writeErr)
		st.runErr = true
	}
	return st
}

// extractOne runs (or replays) one document, tracing it when asked.
// Replayed documents never re-run, so they produce no trace line.
func extractOne(ctx context.Context, s *vs2.Server, jrn *vs2.Journal, i int, d *vs2.Document, traceW *json.Encoder, traceMu *sync.Mutex) vs2.BatchResult {
	if traceW == nil {
		return s.ExtractRecorded(ctx, i, d, jrn)
	}
	if _, done := jrn.Completed(d.ID); done {
		return s.ExtractRecorded(ctx, i, d, jrn) // replay fast path
	}
	tr := vs2.NewTrace("vs2 " + d.ID)
	br := s.ExtractRecorded(vs2.WithTrace(ctx, tr), i, d, jrn)
	tr.Finish()
	traceMu.Lock()
	defer traceMu.Unlock()
	traceW.Encode(tr.Snapshot()) //nolint:errcheck
	return br
}

// statsFor classifies one outcome for the summary counters. Replayed
// lines are re-parsed: a cached permanent failure must count (and exit)
// exactly as it did in the run that recorded it.
func statsFor(br vs2.BatchResult) func(*streamStats) {
	replayed := br.Replayed
	var failed, shed, degraded bool
	switch {
	case br.Replayed:
		var l vs2.DocLine
		if err := json.Unmarshal(br.Line, &l); err == nil {
			failed = l.Error != ""
			degraded = len(l.Degraded) > 0
		}
	case br.Err != nil:
		failed = true
		shed = errors.Is(br.Err, vs2.ErrOverloaded)
	default:
		degraded = br.Result.IsDegraded()
	}
	return func(st *streamStats) {
		switch {
		case failed:
			st.failed++
			if shed {
				st.shed++
			}
		default:
			st.completed++
			if degraded {
				st.degraded++
			}
		}
		if replayed {
			st.replayed++
		}
	}
}

// scanDocuments streams the JSONL corpus line by line, invoking fn for
// each document as it is parsed — nothing is buffered beyond one line.
// Errors carry the input name and 1-based line number. A line longer
// than maxLine aborts the scan rather than silently truncating.
func scanDocuments(path string, stdin io.Reader, maxLine int, fn func(*vs2.Document)) error {
	r := stdin
	name := "stdin"
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
		name = path
	}
	return jsonl.ScanLines(r, name, maxLine, func(raw []byte) error {
		d, err := jsonl.DecodeDocument(raw)
		if err != nil {
			return err
		}
		fn(d)
		return nil
	})
}

// tasks maps every task name to its constructor; taskNames and
// taskByName both derive from it so the error message can never drift
// out of sync with the real set.
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
