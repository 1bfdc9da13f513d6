package main

// The scatter/merge engine: documents stream in line by line, each is
// routed to its shard through the supervisor, and exactly one result
// line per document is emitted downstream in input order, as soon as it
// and every earlier line are ready. The reorder buffer is bounded by the
// in-flight window, each index is emitted at most once (the supervisor
// deduplicates keyed responses, the jsonl.Writer deduplicates indexes),
// and the raw input bytes travel to the worker verbatim, inside a shard
// frame, so no re-encoding can perturb a resumed run's byte identity.
// Each document is decoded here once, for its ID and so a malformed line
// ends the stream; the reply's outcome class arrives in its frame, so
// the reply line itself is never parsed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vs2"
	"vs2/internal/jsonl"
	"vs2/internal/obs"
	"vs2/internal/shard"
)

// router is what the scatter engine needs from the shard supervisor:
// keyed dispatch with span and fidelity level, answered with the result
// line and its outcome class. Narrowed to an interface so the serve-path
// plumbing (connection caps, idle deadlines) unit tests against a fake
// without a child-process fleet.
type router interface {
	Do(ctx context.Context, key string, doc []byte, span string, level int) ([]byte, shard.Status, error)
}

// scatterConfig tunes one scatter/merge stream.
type scatterConfig struct {
	name    string // input name for line-numbered errors
	maxLine int
	window  int

	metrics *vs2.Metrics // frontend.* outcome counters (nil disables)
	latency *obs.Window  // end-to-end latency, admission to answer (nil disables)
	stitch  *stitcher    // per-document cross-process tracing (nil disables)
	level   func() int   // fleet fidelity level stamped per request (nil = 0)
}

// scatterStats aggregates one stream for the summary line and exit code.
type scatterStats struct {
	docs, completed, degraded, failed int
	runErr                            bool
	writeErr                          error // first failed reply write
}

// scatter reads JSONL documents from in, routes each through the
// supervisor, and writes one line per document to out in input order.
func scatter(ctx context.Context, sup router, cfg scatterConfig, in io.Reader, out, errw io.Writer) scatterStats {
	var st scatterStats

	replies := jsonl.NewWriter(out, cfg.window)
	sem := make(chan struct{}, cfg.window)
	var wg sync.WaitGroup
	index := 0
	scanErr := jsonl.ScanLines(in, cfg.name, cfg.maxLine, func(raw []byte) error {
		d, derr := jsonl.DecodeDocument(raw)
		if derr != nil {
			return derr
		}
		i := index
		index++
		key := routeKey(d, i)
		doc := append([]byte(nil), raw...) // the scanner reuses its buffer
		var dt *docTrace
		var span string
		if cfg.stitch != nil {
			dt = cfg.stitch.begin(key)
			span = dt.spanID
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			dt.routed()
			// The fidelity level is sampled at send time, per document, so
			// a controller shift mid-stream takes effect immediately.
			lvl := 0
			if cfg.level != nil {
				lvl = cfg.level()
			}
			line, status, err := sup.Do(ctx, key, doc, span, lvl)
			dt.answered()
			cfg.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
			if err != nil {
				line, status = vs2.RenderLine(vs2.BatchResult{Doc: d, Err: &vs2.Error{
					Phase: vs2.PhaseShard, Stage: "route", Err: err,
				}}), shard.StatusFailed
			}
			replies.Put(i, line, func() {
				tally(status, &st, cfg.metrics)
				dt.emitted() // nil-safe
			})
		}()
		return nil
	})
	wg.Wait()
	st.writeErr = replies.Close()

	st.docs = index
	if scanErr != nil {
		fmt.Fprintln(errw, "vs2d:", scanErr)
		st.runErr = true
	}
	return st
}

// tally counts one emitted reply by its outcome class, for the summary
// counters and the frontend.* registry series behind /slo (m nil-safe).
func tally(status shard.Status, st *scatterStats, m *vs2.Metrics) {
	if status == shard.StatusFailed {
		st.failed++
		m.Counter("frontend.failed").Inc()
		return
	}
	st.completed++
	m.Counter("frontend.completed").Inc()
	if status == shard.StatusDegraded {
		st.degraded++
		m.Counter("frontend.degraded").Inc()
	}
}

// routeKey is the stable journal/routing key of a document: its ID, or a
// positional key for anonymous documents. It must not change across
// resumes — the corpus order is the contract for anonymous documents.
func routeKey(d *vs2.Document, index int) string {
	if d != nil && d.ID != "" {
		return d.ID
	}
	return fmt.Sprintf("#%d", index)
}

// serveListener accepts JSONL connections and serves each with its own
// scatter stream until the listener closes or ctx expires. Two
// hardening measures protect the accept loop from misbehaving clients:
// a concurrent-connection cap (-max-conns) sheds excess connections
// with one JSON error line instead of queueing them into memory, and a
// per-read idle deadline (-idle-timeout) reclaims connections whose
// client has gone silent.
func serveListener(ctx context.Context, l net.Listener, rt router, m *vs2.Metrics, o *options, win *obs.Window, stitch *stitcher, level func() int, errw io.Writer) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			l.Close() //nolint:errcheck
		case <-done:
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, o.maxConns)
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		select {
		case sem <- struct{}{}:
		default:
			shedConn(conn, m, errw)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The slot frees before the close reaches the client, so a
			// client that sees its stream end and reconnects at once is
			// never shed by its own finished connection.
			defer conn.Close()
			defer func() { <-sem }()
			var in io.Reader = conn
			if o.idleTimeout > 0 {
				in = &idleConn{conn: conn, timeout: o.idleTimeout, m: m, errw: errw}
			}
			st := scatter(ctx, rt, scatterConfig{
				name:    conn.RemoteAddr().String(),
				maxLine: o.maxLine,
				window:  o.window(),
				metrics: m,
				latency: win,
				stitch:  stitch,
				level:   level,
			}, in, conn, errw)
			summary := fmt.Sprintf("vs2d: %s: %d documents: %d completed, %d failed",
				conn.RemoteAddr(), st.docs, st.completed, st.failed)
			if st.writeErr != nil {
				summary += fmt.Sprintf(", reply write failed: %v", st.writeErr)
			}
			fmt.Fprintln(errw, summary)
		}()
	}
}

// shedConn refuses a connection over the cap: one well-formed JSON
// error line (so a JSONL client sees a parseable refusal, not a bare
// hangup), then close. Counted under serve.shed{reason="conn_limit"},
// the same series the in-process admission queue sheds into.
func shedConn(conn net.Conn, m *vs2.Metrics, errw io.Writer) {
	m.Counter(obs.Name("serve.shed", obs.L("reason", "conn_limit"))).Inc()
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	line, _ := json.Marshal(map[string]string{"error": "connection limit reached, retry later"})
	conn.Write(append(line, '\n')) //nolint:errcheck
	conn.Close()                   //nolint:errcheck
	fmt.Fprintf(errw, "vs2d: %s: shed (connection limit)\n", conn.RemoteAddr())
}

// idleConn wraps a connection with a rolling read deadline: each Read
// re-arms the idle clock, and a deadline expiry converts to io.EOF so
// the scatter stream ends cleanly — documents already in flight still
// emit, then the connection closes.
type idleConn struct {
	conn    net.Conn
	timeout time.Duration
	m       *vs2.Metrics
	errw    io.Writer
}

func (ic *idleConn) Read(p []byte) (int, error) {
	ic.conn.SetReadDeadline(time.Now().Add(ic.timeout)) //nolint:errcheck
	n, err := ic.conn.Read(p)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		ic.m.Counter("serve.conn.idle_closed").Inc()
		fmt.Fprintf(ic.errw, "vs2d: %s: closing idle connection\n", ic.conn.RemoteAddr())
		return n, io.EOF
	}
	return n, err
}
