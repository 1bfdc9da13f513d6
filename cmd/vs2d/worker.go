package main

// The shard-worker mode: the loop the supervisor runs in each child
// process. One worker owns one slice of the keyspace and one journal;
// it reads shard.Request lines from stdin, answers pings immediately,
// extracts documents through a vs2.Server with the front-end-assigned
// journal key, and writes keyed shard.Response lines on stdout. The
// journal always opens in resume mode — an intra-run restart must
// replay its completions (that is the whole point of restarting), and a
// fresh front-end run has already wiped the state directory — and is
// owner-stamped so shard K can never resume shard J's state.
//
// Stdin EOF is the shutdown signal: the parent closed the pipe (orderly
// drain or front-end death); the worker finishes its in-flight
// documents, journals them and exits. Stdout write failures are
// deliberately ignored — a dead front end cannot read responses, and
// the matching EOF is already on its way.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"vs2"
	"vs2/internal/jsonl"
	"vs2/internal/shard"
)

// runWorker is the -worker entry point; it returns the exit code.
func runWorker(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vs2d -worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shardID := fs.Int("shard", 0, "this worker's shard index")
	task := fs.String("task", "events", "extraction task")
	workers := fs.Int("workers", 0, "worker-pool size (0 = min(GOMAXPROCS, 8))")
	queue := fs.Int("queue", 0, "admission-queue depth (0 = 4x workers)")
	retries := fs.Int("retries", 0, "attempts per document (0 = 3)")
	maxLine := fs.Int("max-line", 16<<20, "largest document line accepted, in bytes")
	jpath := fs.String("journal", "", "write-ahead journal path (empty disables durability)")
	jsync := fs.String("journal-sync", "always", "journal fsync policy: always | interval | never")
	telInterval := fs.Duration("telemetry-interval", 0, "ship metric deltas and completed spans up the response pipe this often (0 disables)")
	traceSpans := fs.Bool("trace-spans", false, "trace each extracted document and ship its span tree with the telemetry")
	fidelity := fs.String("fidelity", "off", "fidelity ladder mode: off | pinned | adaptive (the front end passes pinned 0: envelope levels decide per document)")
	fidelityLvls := fs.Int("fidelity-levels", 3, "deepest fidelity degradation level")
	fidelityPin := fs.Int("fidelity-pin", 0, "level a pinned-mode ladder holds")
	templateCache := fs.Int("template-cache", 0, "layout-template cache capacity in entries (0 disables)")
	templateQuantum := fs.Float64("template-quantum", 0, "template fingerprint quantization step in layout units (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "vs2d worker %d: %s\n", *shardID, fmt.Sprintf(format, a...))
	}

	taskCfg, err := taskByName(*task)
	if err != nil {
		logf("%v", err)
		return 2
	}
	// The worker keeps its own registry: the pipeline and server write
	// into it locally, and the telemetry shipper sends deltas upstream so
	// the front end can aggregate the fleet without shared memory.
	wm := vs2.NewMetrics()
	p := vs2.NewPipeline(vs2.Config{Task: taskCfg, Metrics: wm})
	s := vs2.NewServer(p, vs2.ServerConfig{
		Workers: *workers,
		Queue:   *queue,
		// The front end already bounds what it sends to this shard's
		// window; shedding here would turn backpressure into visible
		// (and run-dependent) error lines, breaking byte identity.
		QueueWait: 24 * time.Hour,
		Retry:     vs2.RetryPolicy{MaxAttempts: *retries},
		Metrics:   wm,
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

	var jrn *vs2.Journal
	if *jpath != "" {
		jrn, err = vs2.OpenJournal(*jpath, vs2.JournalOptions{
			Resume: true,
			Sync:   *jsync,
			Owner:  fmt.Sprintf("shard-%d", *shardID),
		})
		if err != nil {
			logf("%v", err)
			return 2
		}
		if comp := jrn.Replayed(); comp > 0 {
			logf("resumed journal: %d completions replayed", comp)
		}
	}

	// Responses interleave from many goroutines; each line is marshalled
	// whole and written under one mutex so frames never tear.
	var wmu sync.Mutex
	respond := func(resp shard.Response) {
		data, err := json.Marshal(resp)
		if err != nil {
			logf("marshal response: %v", err)
			return
		}
		wmu.Lock()
		stdout.Write(append(data, '\n')) //nolint:errcheck
		wmu.Unlock()
	}

	// The telemetry shipper: metric deltas since the last shipment plus
	// the span trees completed since then, riding the response pipe as
	// keyless Telemetry lines. The supervisor stamps shard and epoch on
	// receipt, so the worker sends neither.
	var telMu sync.Mutex
	var pendingSpans []vs2.SpanSnapshot
	var lastShipped vs2.MetricsSnapshot
	ship := func(final bool) {
		telMu.Lock()
		spans := pendingSpans
		pendingSpans = nil
		cur := wm.Snapshot()
		delta := cur.DeltaSince(lastShipped)
		lastShipped = cur
		telMu.Unlock()
		respond(shard.Response{Telemetry: &shard.Telemetry{Metrics: &delta, Spans: spans, Final: final}})
	}
	stopShip := make(chan struct{})
	shipDone := make(chan struct{})
	if *telInterval > 0 {
		go func() {
			defer close(shipDone)
			t := time.NewTicker(*telInterval)
			defer t.Stop()
			for {
				select {
				case <-stopShip:
					return
				case <-t.C:
					ship(false)
				}
			}
		}()
	} else {
		close(shipDone)
	}

	// extract runs one document, tracing it when asked. Journal-replayed
	// documents never re-run, so they get a stub tree marked replayed —
	// the front end's stitched trace still shows where the cached answer
	// came from, and vs2trace knows not to demand pipeline phases of it.
	extract := func(ctx context.Context, i int, req shard.Request, d *vs2.Document) vs2.BatchResult {
		if !*traceSpans {
			return s.ExtractRecordedKey(ctx, i, req.Key, d, jrn)
		}
		tr := vs2.NewTrace("worker " + req.Key)
		root := tr.Root()
		root.SetAttr("key", req.Key)
		if req.Span != "" {
			root.SetAttr("parent_span", req.Span)
		}
		var br vs2.BatchResult
		if _, done := jrn.Completed(req.Key); done {
			br = s.ExtractRecordedKey(ctx, i, req.Key, d, jrn) // replay fast path
			root.SetAttr("replayed", true)
		} else {
			br = s.ExtractRecordedKey(vs2.WithTrace(ctx, tr), i, req.Key, d, jrn)
			if br.Replayed {
				root.SetAttr("replayed", true)
			}
		}
		tr.Finish()
		telMu.Lock()
		pendingSpans = append(pendingSpans, tr.Snapshot())
		telMu.Unlock()
		return br
	}

	window := vs2.ServerConfig{Workers: *workers, Queue: *queue}.Window()
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	var done, replayed atomic.Int64
	ctx := context.Background()
	index := 0
	// Requests wrap the document line in a small key envelope; allow the
	// envelope beyond the front end's own -max-line.
	scanErr := jsonl.ScanLines(stdin, fmt.Sprintf("shard-%d stdin", *shardID), *maxLine+4096, func(raw []byte) error {
		var req shard.Request
		if err := json.Unmarshal(raw, &req); err != nil {
			logf("bad request skipped: %v", err)
			return nil
		}
		if req.Ping {
			respond(shard.Response{Pong: true})
			return nil
		}
		if req.Adopt != "" {
			// Scale-in handoff: merge the retired shard's journal (already
			// transferred to this worker's owner label) into our own. The
			// ack rides the per-key FIFO like a document; Adopt is
			// idempotent, so a crash between merge and ack just re-merges
			// an already-removed source on the retried request.
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, aerr := jrn.Adopt(req.Adopt)
				if aerr != nil {
					logf("adopt %s: %v", req.Adopt, aerr)
					respond(shard.Response{Key: req.Key, Err: aerr.Error()})
					return
				}
				logf("adopted %d entries from %s", n, req.Adopt)
				respond(shard.Response{Key: req.Key, Adopted: n})
			}()
			return nil
		}
		i := index
		index++
		d, derr := jsonl.DecodeDocument(req.Doc)
		if derr != nil {
			respond(shard.Response{Key: req.Key, Line: vs2.RenderLine(vs2.BatchResult{
				Err: &vs2.Error{Phase: vs2.PhaseShard, Stage: "decode", Err: derr},
			})})
			return nil
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// The front end's fidelity level rides the envelope; carry it
			// on the context so this document triages at the fleet's level.
			rctx := ctx
			if req.Level > 0 {
				rctx = vs2.WithFidelity(ctx, req.Level)
			}
			br := extract(rctx, i, req, d)
			if br.Replayed {
				replayed.Add(1)
			}
			done.Add(1)
			respond(shard.Response{Key: req.Key, Line: br.Line})
		}()
		return nil
	})
	wg.Wait()

	code := 0
	if scanErr != nil {
		logf("%v", scanErr)
		code = 1
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		logf("shutdown: %v", err)
		code = 1
	}
	close(stopShip)
	<-shipDone
	if *telInterval > 0 || *traceSpans {
		ship(true) // shutdown flush: whatever the last tick missed
	}
	if err := jrn.Close(); err != nil {
		logf("journal close: %v", err)
		code = 1
	}
	logf("%d documents (%d replayed)", done.Load(), replayed.Load())
	return code
}
