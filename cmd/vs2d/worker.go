package main

// The shard-worker mode: the loop the supervisor runs in each child
// process. One worker owns one slice of the keyspace and one journal;
// it reads shard frames from stdin, answers pings immediately, extracts
// documents through a vs2.Server with the front-end-assigned journal
// key, and writes keyed reply frames on stdout: the result line
// verbatim, its outcome class from the BatchResult (a replayed line is
// parsed for it, nothing else is), and — when the front end traces —
// the document's span tree, all in one write. The journal always opens
// in resume mode — an intra-run restart must replay its completions
// (that is the whole point of restarting), and a fresh front-end run
// has already wiped the state directory — and is owner-stamped so shard
// K can never resume shard J's state.
//
// Stdin EOF is the shutdown signal: the parent closed the pipe (orderly
// drain or front-end death); the worker finishes its in-flight
// documents, journals them and exits. Stdout write failures are
// deliberately ignored — a dead front end cannot read responses, and
// the matching EOF is already on its way.

import (
	"context"
	"encoding/json"
	"errors"
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
	telInterval := fs.Duration("telemetry-interval", 0, "ship metric deltas up the response pipe this often (0 disables)")
	traceSpans := fs.Bool("trace-spans", false, "trace each extracted document and send its span tree with its reply")
	fidelity := fs.String("fidelity", "off", "fidelity ladder mode: off | pinned | adaptive (the front end passes pinned 0: request-frame levels decide per document)")
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

	// Frames interleave from many goroutines; each is encoded whole and
	// written under one mutex, in one write, so frames never tear.
	var wmu sync.Mutex
	var wbuf []byte
	send := func(f shard.Frame) {
		wmu.Lock()
		wbuf = shard.AppendFrame(wbuf[:0], f)
		stdout.Write(wbuf) //nolint:errcheck
		wmu.Unlock()
	}

	// The telemetry shipper: metric deltas since the last shipment, riding
	// the response pipe as keyless telemetry frames. The supervisor stamps
	// shard and epoch on receipt, so the worker sends neither.
	var telMu sync.Mutex
	var lastShipped vs2.MetricsSnapshot
	ship := func(final bool) {
		telMu.Lock()
		cur := wm.Snapshot()
		delta := cur.DeltaSince(lastShipped)
		lastShipped = cur
		telMu.Unlock()
		data, err := json.Marshal(shard.Telemetry{Metrics: &delta, Final: final})
		if err != nil {
			logf("marshal telemetry: %v", err)
			return
		}
		send(shard.Frame{Kind: shard.KindTelemetry, Body: data})
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

	// extract runs one document, tracing it when asked, and returns the
	// span tree (JSON) its reply carries. Journal-replayed documents never
	// re-run, so they get a stub tree marked replayed — the front end's
	// stitched trace still shows where the cached answer came from, and
	// vs2trace knows not to demand pipeline phases of it.
	extract := func(ctx context.Context, i int, key, span string, d *vs2.Document) (vs2.BatchResult, []byte) {
		if !*traceSpans {
			return s.ExtractRecordedKey(ctx, i, key, d, jrn), nil
		}
		tr := vs2.NewTrace("worker " + key)
		root := tr.Root()
		root.SetAttr("key", key)
		if span != "" {
			root.SetAttr("parent_span", span)
		}
		var br vs2.BatchResult
		if _, done := jrn.Completed(key); done {
			br = s.ExtractRecordedKey(ctx, i, key, d, jrn) // replay fast path
			root.SetAttr("replayed", true)
		} else {
			br = s.ExtractRecordedKey(vs2.WithTrace(ctx, tr), i, key, d, jrn)
			if br.Replayed {
				root.SetAttr("replayed", true)
			}
		}
		tr.Finish()
		tree, err := json.Marshal(tr.Snapshot())
		if err != nil {
			logf("marshal span tree of %q: %v", key, err)
		}
		return br, tree
	}

	window := vs2.ServerConfig{Workers: *workers, Queue: *queue}.Window()
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	var done, replayed atomic.Int64
	ctx := context.Background()
	index := 0
	// A document frame holds the document line plus its key (at most
	// another line's worth: the key is the document's ID) and a span ID.
	frames := shard.NewReader(stdin, 2*(*maxLine)+4096)
	var readErr error
	for {
		f, err := frames.Next()
		if errors.Is(err, shard.ErrMalformed) {
			logf("bad request skipped: %v", err)
			continue
		}
		if err != nil {
			if err != io.EOF {
				readErr = fmt.Errorf("shard-%d stdin: %w", *shardID, err)
			}
			break
		}
		switch f.Kind {
		case shard.KindPing:
			send(shard.Frame{Kind: shard.KindPong})
			continue
		case shard.KindAdopt:
			// Scale-in handoff: merge the retired shard's journal (already
			// transferred to this worker's owner label) into our own. The
			// ack rides the per-key FIFO like a document; Adopt is
			// idempotent, so a crash between merge and ack just re-merges
			// an already-removed source on the retried request.
			key, path := f.Key, string(f.Body)
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, aerr := jrn.Adopt(path)
				if aerr != nil {
					logf("adopt %s: %v", path, aerr)
					send(shard.Frame{Kind: shard.KindError, Key: key, Body: []byte(aerr.Error())})
					return
				}
				logf("adopted %d entries from %s", n, path)
				send(shard.Frame{Kind: shard.KindAdopted, Key: key})
			}()
			continue
		case shard.KindDoc:
		default:
			logf("bad request skipped: unexpected frame kind %q", rune(f.Kind))
			continue
		}
		i := index
		index++
		key, span, level := f.Key, f.Span, f.Level
		// Decoded before the next read: the frame's body is the reader's
		// buffer.
		d, derr := jsonl.DecodeDocument(f.Body)
		if derr != nil {
			send(shard.Frame{Kind: shard.KindReply, Key: key, Status: shard.StatusFailed, Body: vs2.RenderLine(vs2.BatchResult{
				Err: &vs2.Error{Phase: vs2.PhaseShard, Stage: "decode", Err: derr},
			})})
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// The front end's fidelity level rides the frame; carry it on
			// the context so this document triages at the fleet's level.
			rctx := ctx
			if level > 0 {
				rctx = vs2.WithFidelity(ctx, level)
			}
			br, tree := extract(rctx, i, key, span, d)
			if br.Replayed {
				replayed.Add(1)
			}
			done.Add(1)
			send(shard.Frame{Kind: shard.KindReply, Key: key, Status: frameStatus[br.Status], Trace: tree, Body: br.Line})
		}()
	}
	wg.Wait()

	code := 0
	if readErr != nil {
		logf("%v", readErr)
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
	if *telInterval > 0 {
		ship(true) // shutdown flush: whatever the last tick missed
	}
	if err := jrn.Close(); err != nil {
		logf("journal close: %v", err)
		code = 1
	}
	logf("%d documents (%d replayed)", done.Load(), replayed.Load())
	return code
}

// frameStatus carries a result line's outcome class into its reply
// frame.
var frameStatus = [...]shard.Status{
	vs2.StatusOK:       shard.StatusOK,
	vs2.StatusDegraded: shard.StatusDegraded,
	vs2.StatusFailed:   shard.StatusFailed,
}
