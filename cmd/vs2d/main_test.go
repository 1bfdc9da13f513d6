package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vs2"
	"vs2/internal/shard"
)

// TestMain lets the test binary serve as its own shard worker: the
// supervisor re-execs os.Executable() with -worker as the first
// argument, and in a test process that executable is this test binary.
// Dispatching here (before the testing framework parses flags) makes
// the full front end runnable in-process, child fleet and all.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(runWorker(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// corpusJSONL renders n generated posters as a JSONL stream.
func corpusJSONL(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range vs2.GenerateEventPosters(n, 1234) {
		data, err := json.Marshal(&l)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestValidate is the table-driven pin on the front end's flag
// invariants.
func TestValidate(t *testing.T) {
	writable := t.TempDir()
	rodir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(rodir, 0o555); err != nil {
		t.Fatal(err)
	}
	base := func() options {
		return options{shards: 2, task: "events", maxLine: 1024,
			maxConns: 256, reconfigTimeout: time.Minute}
	}
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string
	}{
		{"defaults", func(o *options) {}, ""},
		{"zero shards", func(o *options) { o.shards = 0 }, "-shards"},
		{"negative shards", func(o *options) { o.shards = -3 }, "-shards"},
		{"unknown task", func(o *options) { o.task = "nope" }, "unknown task"},
		{"resume without state", func(o *options) { o.resume = true }, "-resume requires -state"},
		{"resume with state", func(o *options) { o.resume = true; o.state = writable }, ""},
		{"listen and in", func(o *options) { o.listen = ":0"; o.in = "x.jsonl" }, "mutually exclusive"},
		{"zero max-line", func(o *options) { o.maxLine = 0 }, "-max-line"},
		{"unknown fidelity", func(o *options) { o.fidelity = "bogus" }, "-fidelity"},
		{"zero max-conns", func(o *options) { o.maxConns = 0 }, "-max-conns"},
		{"negative idle timeout", func(o *options) { o.idleTimeout = -time.Second }, "-idle-timeout"},
		{"zero reconfig timeout", func(o *options) { o.reconfigTimeout = 0 }, "-reconfig-timeout"},
		{"negative template cache", func(o *options) { o.tplCap = -1 }, "-template-cache"},
		{"negative template quantum", func(o *options) { o.tplQuantum = -2 }, "-template-quantum"},
		{"template cache on", func(o *options) { o.tplCap = 32; o.tplQuantum = 4 }, ""},
		{"writable state", func(o *options) { o.state = writable }, ""},
		{"state under unwritable parent", func(o *options) { o.state = filepath.Join(rodir, "sub") }, "sub"},
		{"unwritable state", func(o *options) { o.state = rodir }, "not writable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if os.Getuid() == 0 && strings.Contains(tc.name, "writable") && tc.wantErr != "" {
				t.Skip("root ignores directory permission bits")
			}
			o := base()
			tc.mutate(&o)
			err := validate(&o)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate: %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate: %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestWorkerArgsTemplateCache pins the per-shard forwarding: the front
// end's -template-cache/-template-quantum reach each worker's command
// line, and a disabled cache forwards nothing.
func TestWorkerArgsTemplateCache(t *testing.T) {
	o := options{task: "events", tplCap: 48, tplQuantum: 8}
	args := strings.Join(workerArgs(&o, 1), " ")
	if !strings.Contains(args, "-template-cache 48") || !strings.Contains(args, "-template-quantum 8") {
		t.Fatalf("workerArgs = %q, want template flags forwarded", args)
	}
	o = options{task: "events"}
	if args := strings.Join(workerArgs(&o, 1), " "); strings.Contains(args, "template") {
		t.Fatalf("workerArgs = %q, want no template flags when the cache is off", args)
	}
}

// TestWorkerPingPongAndEcho drives the -worker loop in-process: pings
// pong, documents come back keyed with rendered result lines and their
// outcome class. One document's ID holds a newline, which a frame must
// carry like any other key byte.
func TestWorkerPingPongAndEcho(t *testing.T) {
	corpus := bytes.Split(bytes.TrimSpace(corpusJSONL(t, 2)), []byte("\n"))
	const nlKey = "d2\n00001"
	corpus[1] = bytes.ReplaceAll(corpus[1], []byte(`"d2-00001"`), []byte(`"d2\n00001"`))
	var stdin []byte
	for _, f := range []shard.Frame{
		{Kind: shard.KindPing},
		{Kind: shard.KindDoc, Key: "doc-a", Body: corpus[0]},
		{Kind: shard.KindDoc, Key: nlKey, Body: corpus[1]},
		{Kind: shard.KindPing},
	} {
		stdin = shard.AppendFrame(stdin, f)
	}

	var stdout, stderr bytes.Buffer
	code := runWorker([]string{"-shard", "3", "-task", "events"}, bytes.NewReader(stdin), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("runWorker exit %d\nstderr: %s", code, stderr.String())
	}

	pongs, replies := 0, map[string]shard.Frame{}
	fr := shard.NewReader(&stdout, 1<<20)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bad response frame: %v", err)
		}
		switch f.Kind {
		case shard.KindPong:
			pongs++
		case shard.KindReply:
			f.Body = append([]byte(nil), f.Body...)
			replies[f.Key] = f
		default:
			t.Errorf("unexpected frame kind %q", rune(f.Kind))
		}
	}
	if pongs != 2 {
		t.Errorf("pongs = %d, want 2", pongs)
	}
	if len(replies) != 2 {
		t.Fatalf("document replies = %d, want 2 (%v)", len(replies), replies)
	}
	for key, wantID := range map[string]string{"doc-a": "d2-00000", nlKey: nlKey} {
		r, ok := replies[key]
		if !ok {
			t.Fatalf("no reply keyed %q", key)
		}
		var dl vs2.DocLine
		if err := json.Unmarshal(r.Body, &dl); err != nil {
			t.Fatalf("%q: line is not a DocLine: %v", key, err)
		}
		if dl.Error != "" || r.Status == shard.StatusFailed {
			t.Errorf("%q: unexpected failure (status %d): %s", key, r.Status, dl.Error)
		}
		if dl.ID != wantID {
			t.Errorf("%q: line id %q, want %q", key, dl.ID, wantID)
		}
		if want := len(dl.Degraded) > 0; (r.Status == shard.StatusDegraded) != want {
			t.Errorf("%q: status %d disagrees with the line's %d degradations", key, r.Status, len(dl.Degraded))
		}
	}
}

// TestWorkerSkipsMalformedRequests: garbage on the request stream is
// logged and skipped, not fatal: a frame whose header does not parse,
// an empty frame, and a frame of a kind only workers send.
func TestWorkerSkipsMalformedRequests(t *testing.T) {
	stdin := shard.AppendFrame(nil, shard.Frame{Kind: shard.KindPing})
	stdin = append(stdin, 3, 'x', 'y', 'z') // size 3, unknown kind 'x'
	stdin = append(stdin, 0)                // size 0: no header at all
	stdin = shard.AppendFrame(stdin, shard.Frame{Kind: shard.KindPong})
	stdin = shard.AppendFrame(stdin, shard.Frame{Kind: shard.KindPing})
	var stdout, stderr bytes.Buffer
	if code := runWorker([]string{"-task", "events"}, bytes.NewReader(stdin), &stdout, &stderr); code != 0 {
		t.Fatalf("runWorker exit %d\nstderr: %s", code, stderr.String())
	}
	pong := shard.AppendFrame(nil, shard.Frame{Kind: shard.KindPong})
	if want := bytes.Repeat(pong, 2); !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout = %q, want two pongs %q", stdout.Bytes(), want)
	}
	if got := strings.Count(stderr.String(), "bad request skipped"); got != 3 {
		t.Errorf("stderr mentions %d skipped requests, want 3: %s", got, stderr.String())
	}
}

// TestWorkerRejectsUnknownTask: a bad -task is a usage error.
func TestWorkerRejectsUnknownTask(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runWorker([]string{"-task", "bogus"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Fatalf("runWorker exit %d, want 2", code)
	}
}

// TestBatchEndToEnd runs the whole front end in-process — supervisor,
// child fleet (this test binary in -worker mode), scatter/merge — and
// pins the output contract: one line per document, input order, and
// byte identity between a fresh run and a -resume over its state.
func TestBatchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real child-process fleet; skipped in -short")
	}
	corpus := corpusJSONL(t, 30)
	state := t.TempDir()
	args := []string{
		"-task", "events", "-shards", "3", "-state", state,
		"-probe-interval", "100ms", "-restart-backoff", "20ms",
	}

	var out1, err1 bytes.Buffer
	if code := run(args, bytes.NewReader(corpus), &out1, &err1); code != 0 {
		t.Fatalf("fresh run exit %d\nstderr: %s", code, err1.String())
	}
	lines := bytes.Split(bytes.TrimSuffix(out1.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 30 {
		t.Fatalf("output lines = %d, want 30", len(lines))
	}
	for i, line := range lines {
		var dl vs2.DocLine
		if err := json.Unmarshal(line, &dl); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if want := fmt.Sprintf("d2-%05d", i); dl.ID != want {
			t.Fatalf("line %d: id %q, want %q — merge broke input order", i, dl.ID, want)
		}
	}

	var out2, err2 bytes.Buffer
	if code := run(append(append([]string(nil), args...), "-resume"), bytes.NewReader(corpus), &out2, &err2); code != 0 {
		t.Fatalf("resume run exit %d\nstderr: %s", code, err2.String())
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("resume output differs from fresh run\n-- fresh --\n%s\n-- resume --\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(err2.String(), "replayed") {
		t.Errorf("resume run stderr never mentions replay: %s", err2.String())
	}
}

// TestBatchTraceStitching runs the fleet with telemetry and tracing on
// and pins the stitched-trace contract: one tree per document, each
// front-end route span carrying a grafted worker tree whose parent_span
// matches the route span's span_id, stamped with shard and epoch.
func TestBatchTraceStitching(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real child-process fleet; skipped in -short")
	}
	corpus := corpusJSONL(t, 10)
	state := t.TempDir()
	tracePath := filepath.Join(state, "trace.jsonl")
	args := []string{
		"-task", "events", "-shards", "2", "-state", state,
		"-trace", tracePath, "-telemetry-interval", "50ms",
		"-admin", "127.0.0.1:0",
		"-probe-interval", "100ms", "-restart-backoff", "20ms",
	}
	var out, errw bytes.Buffer
	if code := run(args, bytes.NewReader(corpus), &out, &errw); code != 0 {
		t.Fatalf("run exit %d\nstderr: %s", code, errw.String())
	}
	if _, err := os.Stat(filepath.Join(state, "admin.addr")); err != nil {
		t.Errorf("admin.addr not written: %v", err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 10 {
		t.Fatalf("trace lines = %d, want 10 (orphans would add lines)\n%s", len(lines), data)
	}
	for i, line := range lines {
		var root vs2.SpanSnapshot
		if err := json.Unmarshal(line, &root); err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		if !strings.HasPrefix(root.Name, "vs2d ") {
			t.Fatalf("trace line %d: top-level span %q, want a front-end doc trace", i, root.Name)
		}
		if _, orphaned := root.Attrs["parent_span"]; orphaned {
			t.Fatalf("trace line %d: top-level span carries parent_span — an orphan leaked", i)
		}
		var route *vs2.SpanSnapshot
		for ci := range root.Children {
			if root.Children[ci].Name == "route" {
				route = &root.Children[ci]
			}
		}
		if route == nil {
			t.Fatalf("trace line %d: no route span in %s", i, line)
		}
		id, _ := route.Attrs["span_id"].(string)
		if id == "" {
			t.Fatalf("trace line %d: route span has no span_id", i)
		}
		var worker *vs2.SpanSnapshot
		for ci := range route.Children {
			if strings.HasPrefix(route.Children[ci].Name, "worker ") {
				worker = &route.Children[ci]
			}
		}
		if worker == nil {
			t.Fatalf("trace line %d: no worker tree grafted under route:\n%s", i, line)
		}
		if got, _ := worker.Attrs["parent_span"].(string); got != id {
			t.Errorf("trace line %d: worker parent_span %q != route span_id %q", i, got, id)
		}
		if _, ok := worker.Attrs["shard"]; !ok {
			t.Errorf("trace line %d: worker root missing the supervisor's shard stamp", i)
		}
		if _, ok := worker.Attrs["epoch"]; !ok {
			t.Errorf("trace line %d: worker root missing the supervisor's epoch stamp", i)
		}
		if len(worker.Children) == 0 {
			t.Errorf("trace line %d: worker tree has no pipeline phases", i)
		}
	}
}

// TestBatchFreshRunWipesState: without -resume an existing state
// directory is cleared, not silently replayed.
func TestBatchFreshRunWipesState(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real child-process fleet; skipped in -short")
	}
	corpus := corpusJSONL(t, 6)
	state := t.TempDir()
	stale := filepath.Join(state, "shard-0.wal")
	if err := os.WriteFile(stale, []byte("garbage that would poison a resume\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	args := []string{"-task", "events", "-shards", "2", "-state", state}
	if code := run(args, bytes.NewReader(corpus), &out, &errw); code != 0 {
		t.Fatalf("run exit %d\nstderr: %s", code, errw.String())
	}
	if got := bytes.Count(out.Bytes(), []byte("\n")); got != 6 {
		t.Fatalf("output lines = %d, want 6", got)
	}
}

// TestListenMode serves one TCP connection through the scatter engine.
func TestListenMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real child-process fleet; skipped in -short")
	}
	o := &options{
		shards: 2, task: "events", maxLine: 16 << 20,
		probeInterval: 100 * time.Millisecond, probeTimeout: 5 * time.Second,
		restartBackoff: 20 * time.Millisecond, restartMax: time.Second,
		maxRestarts: 3, drainGrace: 5 * time.Second,
		maxConns: 8, reconfigTimeout: time.Minute,
	}
	sup, _, err := startSupervisor(o, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sup.Close(ctx) //nolint:errcheck
	}()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveListener(ctx, l, sup, sup.Metrics(), o, nil, nil, nil, io.Discard) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	corpus := corpusJSONL(t, 8)
	if _, err := conn.Write(corpus); err != nil {
		t.Fatal(err)
	}
	if cw, ok := conn.(*net.TCPConn); ok {
		cw.CloseWrite() //nolint:errcheck
	}
	reply, err := io.ReadAll(conn)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(reply, []byte("\n")), []byte("\n"))
	if len(lines) != 8 {
		t.Fatalf("reply lines = %d, want 8\n%s", len(lines), reply)
	}
	for i, line := range lines {
		var dl vs2.DocLine
		if err := json.Unmarshal(line, &dl); err != nil {
			t.Fatalf("reply line %d: %v", i, err)
		}
		if want := fmt.Sprintf("d2-%05d", i); dl.ID != want {
			t.Fatalf("reply line %d: id %q, want %q", i, dl.ID, want)
		}
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serveListener: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveListener did not stop on context cancel")
	}
}

// TestRouteKeyStable: named documents route by ID, anonymous ones by
// global position.
func TestRouteKeyStable(t *testing.T) {
	if got := routeKey(&vs2.Document{ID: "inv-7"}, 3); got != "inv-7" {
		t.Errorf("routeKey named = %q, want inv-7", got)
	}
	if got := routeKey(&vs2.Document{}, 3); got != "#3" {
		t.Errorf("routeKey anonymous = %q, want #3", got)
	}
	if got := routeKey(nil, 0); got != "#0" {
		t.Errorf("routeKey nil = %q, want #0", got)
	}
}
