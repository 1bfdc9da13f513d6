package main

// End-to-end tests of the vs2serve CLI over in-process generated
// corpora: clean streams, streams with invalid documents, trace output,
// flag validation, streaming-input guards, and journal/resume cycles.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"vs2"
)

// posterStream encodes n generated event posters as a JSONL stream —
// one compact line per labelled document.
func posterStream(t *testing.T, n int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range vs2.GenerateEventPosters(n, 7) {
		data, err := json.Marshal(&l)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return &buf
}

func parseLines(t *testing.T, stdout string) []vs2.DocLine {
	t.Helper()
	var out []vs2.DocLine
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var d vs2.DocLine
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad output line %q: %v", line, err)
		}
		out = append(out, d)
	}
	return out
}

// TestServeAdminEndpoints runs a stream with -admin bound to an
// ephemeral port and scrapes /metrics, /healthz and /slo while the
// batch runs (the scrape happens before stdin unblocks, so the server
// is mid-run when probed).
func TestServeAdminEndpoints(t *testing.T) {
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	stderrR, stderrW := io.Pipe()
	go func() {
		// The admin address is announced on stderr before input is read.
		sc := bufio.NewScanner(stderrR)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "vs2serve: admin listening on ") {
				addrCh <- strings.TrimPrefix(sc.Text(), "vs2serve: admin listening on ")
				break
			}
		}
		io.Copy(io.Discard, stderrR) //nolint:errcheck
	}()

	var stdout bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-task", "events", "-admin", "127.0.0.1:0", "-queue-wait", "10m"}, pr, &stdout, stderrW)
	}()
	addr := <-addrCh

	// First half of the corpus, then scrape mid-run, then the rest.
	stream := posterStream(t, 6).Bytes()
	half := bytes.Index(stream, []byte("\n")) + 1
	if _, err := pw.Write(stream[:half]); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %s", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "# TYPE serve_workers gauge") {
		t.Errorf("/metrics = %d\n%.400s", code, body)
	}
	if code, body := get("/slo"); code != 200 || !strings.Contains(body, "p99_ms") {
		t.Errorf("/slo = %d %s", code, body)
	}
	if _, err := pw.Write(stream[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-done; code != 0 {
		t.Fatalf("exit %d", code)
	}
	stderrW.Close()
	if got := bytes.Count(bytes.TrimSuffix(stdout.Bytes(), []byte("\n")), []byte("\n")) + 1; got != 6 {
		t.Errorf("output lines = %d, want 6", got)
	}
}

func TestServeCleanStream(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m"},
		posterStream(t, 8), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := parseLines(t, stdout.String())
	if len(lines) != 8 {
		t.Fatalf("%d output lines, want 8", len(lines))
	}
	for _, l := range lines {
		if l.Error != "" {
			t.Fatalf("doc %s failed: %s", l.ID, l.Error)
		}
		if len(l.Entities) == 0 {
			t.Fatalf("doc %s extracted no entities", l.ID)
		}
	}
	if !strings.Contains(stderr.String(), "8 documents: 8 completed") {
		t.Fatalf("summary missing:\n%s", stderr.String())
	}
}

// TestServeOutputOrderMatchesInput: results are emitted in input order
// even though extraction completes out of order across the pool.
func TestServeOutputOrderMatchesInput(t *testing.T) {
	stream := posterStream(t, 12)
	var wantIDs []string
	for _, line := range strings.Split(strings.TrimSpace(stream.String()), "\n") {
		var l vs2.Labeled
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatal(err)
		}
		wantIDs = append(wantIDs, l.Doc.ID)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-task", "events", "-workers", "4", "-queue-wait", "10m"},
		stream, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := parseLines(t, stdout.String())
	for i, l := range lines {
		if l.ID != wantIDs[i] {
			t.Fatalf("output line %d is %s, want %s (input order must be preserved)", i, l.ID, wantIDs[i])
		}
	}
}

// TestServeRepliesBeforeInputEnds: a result line reaches stdout as soon
// as it is ready, while stdin is still open.
func TestServeRepliesBeforeInputEnds(t *testing.T) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		code := run([]string{"-task", "events", "-queue-wait", "10m"}, inR, outW, &stderr)
		outW.Close()
		done <- code
	}()
	lines := make(chan string, 2)
	go func() {
		defer close(lines)
		br := bufio.NewReader(outR)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			lines <- line
		}
	}()

	stream := posterStream(t, 2).String()
	docs := strings.SplitAfter(stream, "\n")
	if _, err := io.WriteString(inW, docs[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case line := <-lines:
		var l vs2.Labeled
		if err := json.Unmarshal([]byte(docs[0]), &l); err != nil {
			t.Fatal(err)
		}
		if got := parseLines(t, line); got[0].ID != l.Doc.ID || got[0].Error != "" {
			t.Fatalf("first reply = %q, want a result for %s", line, l.Doc.ID)
		}
	case <-time.After(time.Minute):
		t.Fatal("no result line while stdin is open")
	}
	if _, err := io.WriteString(inW, docs[1]); err != nil {
		t.Fatal(err)
	}
	inW.Close()
	if line, ok := <-lines; !ok || parseLines(t, line)[0].Error != "" {
		t.Fatalf("second reply = %q", line)
	}
	if code := <-done; code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
}

// fullDisk accepts limit bytes, then fails every write the way a full
// file system does.
type fullDisk struct {
	limit int
}

func (f *fullDisk) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, syscall.ENOSPC
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestServeStdoutWriteErrorFails: when stdout stops accepting results,
// the run reports the write error and exits 1 instead of exiting 0 with
// truncated output.
func TestServeStdoutWriteErrorFails(t *testing.T) {
	var stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m"},
		posterStream(t, 3), &fullDisk{limit: 100}, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "vs2serve: writing results: no space left on device") {
		t.Fatalf("stderr lacks the write error:\n%s", stderr.String())
	}
}

func TestServeInvalidDocumentKeepsStreamAlive(t *testing.T) {
	stream := posterStream(t, 2)
	bad, err := json.Marshal(&vs2.Document{ID: "empty-doc", Width: 100, Height: 100})
	if err != nil {
		t.Fatal(err)
	}
	stream.Write(bad)
	stream.WriteByte('\n')

	var stdout, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m"},
		stream, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (one document failed); stderr: %s", code, stderr.String())
	}
	lines := parseLines(t, stdout.String())
	if len(lines) != 3 {
		t.Fatalf("%d output lines, want 3 (failed documents keep their line)", len(lines))
	}
	var failed, ok int
	for _, l := range lines {
		if l.ID == "empty-doc" {
			if !strings.Contains(l.Error, "invalid document") {
				t.Fatalf("empty doc error = %q, want a structured invalid-document error", l.Error)
			}
			failed++
			continue
		}
		if l.Error != "" {
			t.Fatalf("doc %s failed: %s", l.ID, l.Error)
		}
		ok++
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("failed=%d ok=%d, want 1/2", failed, ok)
	}
	if !strings.Contains(stderr.String(), "2 completed") || !strings.Contains(stderr.String(), "1 failed") {
		t.Fatalf("summary missing:\n%s", stderr.String())
	}
}

// TestServeMalformedLineIsLineNumbered: a broken line aborts the scan
// with its 1-based line number, while already-submitted documents still
// drain and keep their output lines.
func TestServeMalformedLineIsLineNumbered(t *testing.T) {
	stream := posterStream(t, 2)
	stream.WriteString("{not json at all\n")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m"},
		stream, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stdin:3:") {
		t.Fatalf("stderr lacks the line-numbered diagnostic:\n%s", stderr.String())
	}
	if lines := parseLines(t, stdout.String()); len(lines) != 2 {
		t.Fatalf("%d output lines, want the 2 documents before the bad line", len(lines))
	}
}

// TestServeMaxLineGuard: an input line over -max-line aborts with a
// line-numbered error instead of buffering it into memory.
func TestServeMaxLineGuard(t *testing.T) {
	var stream bytes.Buffer
	stream.WriteString(`{"id":"huge","padding":"` + strings.Repeat("x", 8192) + `"}` + "\n")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m", "-max-line", "4096"},
		&stream, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stdin:1: line exceeds -max-line 4096") {
		t.Fatalf("stderr lacks the max-line diagnostic:\n%s", stderr.String())
	}
}

func TestServeTraceStream(t *testing.T) {
	tracePath := t.TempDir() + "/traces.jsonl"
	var stdout, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m", "-trace", tracePath},
		posterStream(t, 3), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	traceLines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(traceLines) != 3 {
		t.Fatalf("%d trace lines, want 3", len(traceLines))
	}
	for i, line := range traceLines {
		var span vs2.SpanSnapshot
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("trace line %d: %v", i+1, err)
		}
		if !strings.HasPrefix(span.Name, "vs2 ") || span.DurationNS <= 0 {
			t.Fatalf("trace line %d: implausible root span %+v", i+1, span)
		}
	}
}

func TestServeMetricsSnapshot(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m", "-metrics"},
		posterStream(t, 2), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, key := range []string{"serve.completed", "serve.enqueued", "serve.queue.wait.ms"} {
		if !strings.Contains(stderr.String(), key) {
			t.Fatalf("metrics snapshot missing %s:\n%s", key, stderr.String())
		}
	}
}

// TestServeUnknownTaskListsAvailable: the error must enumerate the valid
// task names, not just echo the bad one.
func TestServeUnknownTaskListsAvailable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-task", "nope"}, &bytes.Buffer{}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, name := range []string{"events", "realestate", "tax"} {
		if !strings.Contains(stderr.String(), name) {
			t.Fatalf("unknown-task error does not list %q:\n%s", name, stderr.String())
		}
	}
}

func TestServeEmptyInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-task", "events"}, &bytes.Buffer{}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no documents") {
		t.Fatalf("stderr = %s, want no-documents diagnostic", stderr.String())
	}
}

func TestServeResumeRequiresJournal(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-task", "events", "-resume"}, &bytes.Buffer{}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-resume requires -journal") {
		t.Fatalf("stderr = %s", stderr.String())
	}
}

// TestServeJournalResumeByteIdentical is the in-process half of the
// crash-recovery contract (the subprocess kill -9 half lives in the root
// crash_chaos_test.go): a journaled run, resumed over the same corpus,
// replays every completion without re-extracting and reproduces the
// uninterrupted output byte for byte.
func TestServeJournalResumeByteIdentical(t *testing.T) {
	corpus := posterStream(t, 6).Bytes()
	jdir := t.TempDir()

	var golden, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m",
		"-journal", filepath.Join(jdir, "run.wal")},
		bytes.NewReader(corpus), &golden, &stderr)
	if code != 0 {
		t.Fatalf("journaled run exit %d, stderr: %s", code, stderr.String())
	}

	// Resume over the completed journal: everything replays, nothing
	// re-runs, output is identical.
	var resumed, rerr bytes.Buffer
	code = run([]string{"-task", "events", "-workers", "2", "-queue-wait", "10m",
		"-journal", filepath.Join(jdir, "run.wal"), "-resume"},
		bytes.NewReader(corpus), &resumed, &rerr)
	if code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, rerr.String())
	}
	if !bytes.Equal(golden.Bytes(), resumed.Bytes()) {
		t.Fatalf("resumed output differs from the original run:\n-- run --\n%s\n-- resume --\n%s",
			golden.String(), resumed.String())
	}
	if !strings.Contains(rerr.String(), "6 replayed") {
		t.Fatalf("resume summary does not report replays:\n%s", rerr.String())
	}
	if !strings.Contains(rerr.String(), "recovered 6 completed documents") {
		t.Fatalf("resume did not announce recovery:\n%s", rerr.String())
	}
}

// TestServeJournalFreshRunDiscardsState: without -resume an existing
// journal is reset, so documents re-extract instead of replaying.
func TestServeJournalFreshRunDiscardsState(t *testing.T) {
	corpus := posterStream(t, 2).Bytes()
	jpath := filepath.Join(t.TempDir(), "run.wal")
	args := []string{"-task", "events", "-workers", "2", "-queue-wait", "10m", "-journal", jpath}

	var out1, err1 bytes.Buffer
	if code := run(args, bytes.NewReader(corpus), &out1, &err1); code != 0 {
		t.Fatalf("first run exit %d: %s", code, err1.String())
	}
	var out2, err2 bytes.Buffer
	if code := run(args, bytes.NewReader(corpus), &out2, &err2); code != 0 {
		t.Fatalf("second run exit %d: %s", code, err2.String())
	}
	if strings.Contains(err2.String(), "replayed") && !strings.Contains(err2.String(), "0 replayed") {
		t.Fatalf("fresh (non-resume) run replayed journal state:\n%s", err2.String())
	}
}

// TestServeFlagValidation is the table-driven pin on validateServeFlags:
// every invariant fails fast as a usage error before any state is
// touched.
func TestServeFlagValidation(t *testing.T) {
	writable := t.TempDir()
	rodir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(rodir, 0o555); err != nil {
		t.Fatal(err)
	}
	base := func() serveFlags {
		return serveFlags{task: "events", maxLine: 1024}
	}
	cases := []struct {
		name    string
		mutate  func(*serveFlags)
		wantErr string
	}{
		{"defaults", func(f *serveFlags) {}, ""},
		{"unknown task", func(f *serveFlags) { f.task = "nope" }, "unknown task"},
		{"resume without journal", func(f *serveFlags) { f.resume = true }, "-resume requires -journal"},
		{"resume with journal", func(f *serveFlags) { f.resume = true; f.journal = filepath.Join(writable, "r.wal") }, ""},
		{"zero max-line", func(f *serveFlags) { f.maxLine = 0 }, "-max-line"},
		{"negative max-line", func(f *serveFlags) { f.maxLine = -5 }, "-max-line"},
		{"unknown fidelity", func(f *serveFlags) { f.fidelity = "bogus" }, "-fidelity"},
		{"negative template cache", func(f *serveFlags) { f.tplCap = -1 }, "-template-cache"},
		{"negative template quantum", func(f *serveFlags) { f.tplQuantum = -0.5 }, "-template-quantum"},
		{"template cache on", func(f *serveFlags) { f.tplCap = 64; f.tplQuantum = 8 }, ""},
		{"journal in writable dir", func(f *serveFlags) { f.journal = filepath.Join(writable, "run.wal") }, ""},
		{"journal in missing dir", func(f *serveFlags) { f.journal = filepath.Join(writable, "no-such", "run.wal") }, "not writable"},
		{"journal in unwritable dir", func(f *serveFlags) { f.journal = filepath.Join(rodir, "run.wal") }, "not writable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if os.Getuid() == 0 && tc.name == "journal in unwritable dir" {
				t.Skip("root ignores directory permission bits")
			}
			f := base()
			tc.mutate(&f)
			err := validateServeFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateServeFlags: %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateServeFlags: %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestServeUnknownFidelityExitsUsage: a flag invariant reaches the CLI
// surface with exit code 2.
func TestServeUnknownFidelityExitsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-task", "events", "-fidelity", "bogus"}, &bytes.Buffer{}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-fidelity") {
		t.Fatalf("stderr = %s, want -fidelity diagnostic", stderr.String())
	}
}

// TestServeUnwritableJournalDirExitsUsage: a journal pointed at a
// missing directory dies before reading any input.
func TestServeUnwritableJournalDirExitsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	jpath := filepath.Join(t.TempDir(), "missing", "run.wal")
	code := run([]string{"-task", "events", "-journal", jpath}, posterStream(t, 1), &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "not writable") {
		t.Fatalf("stderr = %s, want not-writable diagnostic", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout = %q, want empty — validation must precede extraction", stdout.String())
	}
}
