package vs2

// Shard-kill chaos harness for the sharded serving layer: a real vs2d
// front end runs a batch across a fleet of worker shard child
// processes, and the harness SIGKILLs a random shard — and, separately,
// the front end itself — at randomized journal offsets. The merged
// stdout must stay byte-identical to an uninterrupted run: the
// supervisor requeues the dead shard's in-flight work to its restarted
// child (which replays its own journal), and a killed front end resumes
// with -resume, every shard replaying only its own state.
//
// Generalizes the PR 5 single-process crash harness (crash_chaos_test.go)
// to the multi-process topology. Subprocess-heavy: runs only in the full
// suite (`make shard-chaos`); -short skips it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

const chaosShards = 3

// buildVS2DBinary compiles cmd/vs2d once per test.
func buildVS2DBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vs2d")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vs2d")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/vs2d: %v\n%s", err, out)
	}
	return bin
}

// vs2dArgs is the fixed command line of every front end in the harness:
// fast probes and restarts so a killed shard recovers in test time.
func vs2dArgs(state string, extra ...string) []string {
	args := []string{
		"-task", "events", "-shards", strconv.Itoa(chaosShards), "-state", state,
		"-probe-interval", "100ms", "-probe-timeout", "2s",
		"-restart-backoff", "10ms", "-restart-backoff-max", "100ms",
	}
	return append(args, extra...)
}

// runVS2D runs the front end to completion and returns its stdout.
func runVS2D(t *testing.T, bin string, stdin []byte, state string, extra ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, vs2dArgs(state, extra...)...)
	cmd.Stdin = bytes.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("vs2d %v: %v\nstderr:\n%s", extra, err, stderr.String())
	}
	return stdout.Bytes()
}

// shardPid reads the shard's pidfile; -1 when it is not written yet.
func shardPid(state string, shard int) int {
	data, err := os.ReadFile(filepath.Join(state, fmt.Sprintf("shard-%d.pid", shard)))
	if err != nil {
		return -1
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return -1
	}
	return pid
}

// probeShardJournalWindow runs one throwaway batch and reports the
// largest size any shard journal reached, so kill offsets spread across
// the real write window instead of clustering at zero.
func probeShardJournalWindow(t *testing.T, bin string, corpus []byte, extra ...string) int64 {
	t.Helper()
	state := t.TempDir()
	cmd := exec.Command(bin, vs2dArgs(state, extra...)...)
	cmd.Stdin = bytes.NewReader(corpus)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }() //nolint:errcheck
	var maxSize int64
probe:
	for {
		select {
		case <-done:
			break probe
		default:
			for s := 0; s < chaosShards; s++ {
				if st, err := os.Stat(filepath.Join(state, fmt.Sprintf("shard-%d.wal", s))); err == nil && st.Size() > maxSize {
					maxSize = st.Size()
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if maxSize == 0 {
		t.Fatal("probe run never grew a shard journal")
	}
	return maxSize
}

// killShardAt runs one batch and SIGKILLs the target shard's child once
// that shard's journal reaches offset bytes. The front end must survive
// the kill and finish; its stdout and a flag for whether the kill
// landed mid-run are returned.
func killShardAt(t *testing.T, bin string, corpus []byte, state string, target int, offset int64, extra ...string) ([]byte, bool) {
	t.Helper()
	cmd := exec.Command(bin, vs2dArgs(state, extra...)...)
	cmd.Stdin = bytes.NewReader(corpus)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	jpath := filepath.Join(state, fmt.Sprintf("shard-%d.wal", target))
	killed := false
	deadline := time.Now().Add(2 * time.Minute)
	for !killed {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("front end failed before the kill landed: %v\nstderr:\n%s", err, stderr.String())
			}
			return stdout.Bytes(), false
		default:
		}
		if st, err := os.Stat(jpath); err == nil && st.Size() >= offset {
			if pid := shardPid(state, target); pid > 0 {
				syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck // the child may have just exited on its own
				killed = true
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck
			<-exited
			t.Fatalf("shard %d never reached journal offset %d", target, offset)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := <-exited; err != nil {
		t.Fatalf("front end died after shard %d was killed (must survive and fail over): %v\nstderr:\n%s",
			target, err, stderr.String())
	}
	return stdout.Bytes(), true
}

// TestShardChaosKillShard is the acceptance test of the PR: SIGKILL a
// random shard at >=20 randomized journal offsets; the front end must
// restart it, requeue its work, and still emit output byte-identical to
// an uninterrupted run.
func TestShardChaosKillShard(t *testing.T) {
	if testing.Short() {
		t.Skip("shard chaos spawns real process fleets; skipped in -short")
	}
	bin := buildVS2DBinary(t)
	corpus := chaosCorpus(t, 60)

	golden := runVS2D(t, bin, corpus, t.TempDir())

	// The sharded front end and the single-process server must agree
	// before any chaos enters the picture: sharding is a topology change,
	// not a different pipeline.
	serveBin := buildServeBinary(t)
	if single := runServe(t, serveBin, corpus); !bytes.Equal(golden, single) {
		t.Fatalf("sharded output differs from single-process output:\n-- vs2serve --\n%s\n-- vs2d --\n%s", single, golden)
	}

	window := probeShardJournalWindow(t, bin, corpus)
	rnd := rand.New(rand.NewSource(1907)) // seeded: a failure reproduces
	const iterations = 22
	landed := 0
	for i := 0; i < iterations; i++ {
		state := t.TempDir()
		target := rnd.Intn(chaosShards)
		offset := rnd.Int63n(window + 1)
		out, hit := killShardAt(t, bin, corpus, state, target, offset)
		if hit {
			landed++
		}
		if !bytes.Equal(golden, out) {
			t.Fatalf("iteration %d (SIGKILL shard %d at journal offset %d): merged output differs\n-- golden --\n%s\n-- chaos --\n%s",
				i, target, offset, golden, out)
		}
	}
	t.Logf("shard chaos: %d/%d kills landed mid-run (journal window %d bytes)", landed, iterations, window)
	if landed == 0 {
		t.Fatal("no kill ever landed before the batch finished; the harness is not exercising crashes")
	}
}

// waitShardsGone blocks until every pidfiled shard child of a killed
// front end has exited, so the resumed run never races a straggler for
// the journals.
func waitShardsGone(t *testing.T, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		alive := false
		for s := 0; s < chaosShards; s++ {
			if pid := shardPid(state, s); pid > 0 && syscall.Kill(pid, 0) == nil {
				alive = true
			}
		}
		if !alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("orphaned shard children never exited after the front-end kill")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardChaosKillFrontEnd: SIGKILL the front end itself mid-batch at
// randomized offsets; the orphaned shards drain and exit on stdin EOF,
// and a -resume rerun replays every shard's own journal to reproduce
// the uninterrupted output byte for byte.
func TestShardChaosKillFrontEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("shard chaos spawns real process fleets; skipped in -short")
	}
	bin := buildVS2DBinary(t)
	corpus := chaosCorpus(t, 60)

	golden := runVS2D(t, bin, corpus, t.TempDir())
	window := probeShardJournalWindow(t, bin, corpus)

	rnd := rand.New(rand.NewSource(4117))
	const iterations = 8
	landed := 0
	for i := 0; i < iterations; i++ {
		state := t.TempDir()
		offset := rnd.Int63n(window + 1)

		cmd := exec.Command(bin, vs2dArgs(state)...)
		cmd.Stdin = bytes.NewReader(corpus)
		cmd.Stdout, cmd.Stderr = nil, nil // a killed run's output is garbage by design
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan struct{})
		go func() { cmd.Wait(); close(exited) }() //nolint:errcheck
		deadline := time.Now().Add(2 * time.Minute)
	watch:
		for {
			select {
			case <-exited:
				break watch // finished before the kill: offset landed past this run's window
			default:
			}
			grown := false
			for s := 0; s < chaosShards; s++ {
				if st, err := os.Stat(filepath.Join(state, fmt.Sprintf("shard-%d.wal", s))); err == nil && st.Size() >= offset {
					grown = true
					break
				}
			}
			if grown {
				cmd.Process.Kill() //nolint:errcheck
				landed++
				<-exited
				break watch
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill() //nolint:errcheck
				<-exited
				t.Fatalf("no shard journal ever reached offset %d", offset)
			}
			time.Sleep(200 * time.Microsecond)
		}
		waitShardsGone(t, state)

		resumed := runVS2D(t, bin, corpus, state, "-resume")
		if !bytes.Equal(golden, resumed) {
			t.Fatalf("iteration %d (front end SIGKILLed at offset %d): resumed output differs\n-- golden --\n%s\n-- resumed --\n%s",
				i, offset, golden, resumed)
		}
	}
	t.Logf("front-end chaos: %d/%d kills landed mid-run (journal window %d bytes)", landed, iterations, window)
	if landed == 0 {
		t.Fatal("no front-end kill ever landed mid-run")
	}
}

// templateChaosCorpus renders a template-heavy JSONL corpus: jittered
// instances of the differential suite's synthetic templates, so each
// shard's layout-template cache warms within a few documents and most
// of the batch takes the hit path.
func templateChaosCorpus(t *testing.T, templates, perTemplate int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for inst := 0; inst < perTemplate; inst++ {
		for tpl := 0; tpl < templates; tpl++ {
			data, err := json.Marshal(synthTemplateDoc(tpl, int64(inst)))
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(data)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// templateHitsSnapshot runs one full batch with -metrics and returns
// the fleet-wide template.hits total from the front end's final
// snapshot (shard caches ship their counters up as shard-labeled
// series). With VS2_CHAOS_ARTIFACTS set, the snapshot JSON lands there
// for CI upload.
func templateHitsSnapshot(t *testing.T, bin string, corpus []byte, extra ...string) int64 {
	t.Helper()
	cmd := exec.Command(bin, vs2dArgs(t.TempDir(), append(extra, "-metrics")...)...)
	cmd.Stdin = bytes.NewReader(corpus)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("vs2d -metrics: %v\nstderr:\n%s", err, stderr.String())
	}
	marker := "vs2d: metrics:"
	i := strings.Index(stderr.String(), marker)
	if i < 0 {
		t.Fatalf("no metrics snapshot on stderr:\n%s", stderr.String())
	}
	raw := stderr.String()[i+len(marker):]
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(raw)), &snap); err != nil {
		t.Fatalf("decoding metrics snapshot: %v", err)
	}
	if dir := os.Getenv("VS2_CHAOS_ARTIFACTS"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			os.WriteFile(filepath.Join(dir, "template-chaos-metrics.json"), //nolint:errcheck
				[]byte(strings.TrimSpace(raw)+"\n"), 0o644)
		}
	}
	var hits int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "template.hits") {
			hits += v
		}
	}
	return hits
}

// TestShardChaosWarmTemplateCache extends the shard-kill harness to the
// layout-template cache: per-shard caches are in-memory only, so a
// SIGKILLed worker comes back cold and must rewarm from the requeued
// work — and the merged output must still be byte-identical to an
// uninterrupted warm run, which itself must be byte-identical to a run
// with the cache off (the cache may only ever change latency).
func TestShardChaosWarmTemplateCache(t *testing.T) {
	if testing.Short() {
		t.Skip("shard chaos spawns real process fleets; skipped in -short")
	}
	bin := buildVS2DBinary(t)
	corpus := templateChaosCorpus(t, 6, 10)
	tplArgs := []string{"-task", "realestate", "-template-cache", "64"}

	golden := runVS2D(t, bin, corpus, t.TempDir(), tplArgs...)
	if off := runVS2D(t, bin, corpus, t.TempDir(), "-task", "realestate"); !bytes.Equal(golden, off) {
		t.Fatalf("template cache changed the fleet's bytes\n-- cache on --\n%s\n-- cache off --\n%s", golden, off)
	}

	// Non-vacuity: the warm fleet must actually be taking the hit path,
	// or the kills below would only ever exercise the cold one.
	hits := templateHitsSnapshot(t, bin, corpus, tplArgs...)
	if hits == 0 {
		t.Fatal("no shard ever recorded a template-cache hit; the corpus is not exercising the warm path")
	}
	t.Logf("warm fleet recorded %d template-cache hits across shards", hits)

	window := probeShardJournalWindow(t, bin, corpus, tplArgs...)
	rnd := rand.New(rand.NewSource(2026)) // seeded: a failure reproduces
	const iterations = 8
	landed := 0
	for i := 0; i < iterations; i++ {
		state := t.TempDir()
		target := rnd.Intn(chaosShards)
		offset := rnd.Int63n(window + 1)
		out, hit := killShardAt(t, bin, corpus, state, target, offset, tplArgs...)
		if hit {
			landed++
		}
		if !bytes.Equal(golden, out) {
			t.Fatalf("iteration %d (SIGKILL shard %d at offset %d, warm cache): merged output differs\n-- golden --\n%s\n-- chaos --\n%s",
				i, target, offset, golden, out)
		}
	}
	t.Logf("warm-cache shard chaos: %d/%d kills landed mid-run (journal window %d bytes)", landed, iterations, window)
	if landed == 0 {
		t.Fatal("no kill ever landed before the batch finished; the harness is not exercising crashes")
	}
}

// buildVS2TraceBinary compiles cmd/vs2trace for the observability test.
func buildVS2TraceBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vs2trace")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vs2trace")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/vs2trace: %v\n%s", err, out)
	}
	return bin
}

// waitAdminAddr polls for the admin.addr file the front end writes into
// its state directory when started with -admin :0.
func waitAdminAddr(t *testing.T, state string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(filepath.Join(state, "admin.addr")); err == nil {
			if addr := strings.TrimSpace(string(data)); addr != "" {
				return addr
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("admin.addr never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// adminGet scrapes one admin endpoint, returning status code and body.
func adminGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, ""
	}
	return resp.StatusCode, string(body)
}

// waitScrape polls an endpoint until ok(status, body) holds, failing
// after the deadline with the last scrape attached.
func waitScrape(t *testing.T, url, what string, ok func(int, string) bool) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var code int
	var body string
	for {
		code, body = adminGet(t, url)
		if ok(code, body) {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never observed at %s; last scrape (HTTP %d):\n%s", what, url, code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue extracts one sample's value from a Prometheus exposition.
func metricValue(body, sample string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, sample)), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestShardChaosAdminObservability is the acceptance test of the
// observability PR: while a fleet runs a batch, the admin plane is
// scraped through a shard SIGKILL and must report the truth at every
// phase — all shards up before the kill, the dead shard's up gauge at 0
// and readiness 503 (degraded) while it is down, the restart counter
// incremented and readiness restored once the supervisor revives it.
// The run's stitched trace must then validate end to end under
// vs2trace: no orphaned worker spans, with the killed shard's
// in-flight documents re-parented under the retry that answered them.
// When VS2_CHAOS_ARTIFACTS names a directory, the final /metrics
// snapshot and the stitched trace are saved there for CI upload, pass or
// fail.
func TestShardChaosAdminObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("shard chaos spawns real process fleets; skipped in -short")
	}
	bin := buildVS2DBinary(t)
	traceBin := buildVS2TraceBinary(t)
	corpus := chaosCorpus(t, 60)
	lines := bytes.Split(bytes.TrimSpace(corpus), []byte("\n"))
	if len(lines) != 60 {
		t.Fatalf("corpus has %d lines, want 60", len(lines))
	}

	state := t.TempDir()
	tracePath := filepath.Join(state, "trace.jsonl")
	// Registered first, so it runs last: after the front end is reaped,
	// whichever check failed.
	var finalMetrics string
	defer func() { saveChaosArtifacts(t, finalMetrics, tracePath) }()
	// The restart backoff is raised well above the harness default so
	// the down state is wide enough to observe through the scrape loop.
	cmd := exec.Command(bin, vs2dArgs(state,
		"-restart-backoff", "500ms", "-restart-backoff-max", "500ms",
		"-admin", "127.0.0.1:0",
		"-trace", tracePath,
		"-telemetry-interval", "50ms",
	)...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	// Failure cleanup only: the happy path consumes the exit itself, and
	// draining the channel twice would hang the suite on success.
	reaped := false
	defer func() {
		if reaped {
			return
		}
		stdin.Close()      //nolint:errcheck
		cmd.Process.Kill() //nolint:errcheck
		<-exited
	}()

	base := "http://" + waitAdminAddr(t, state)

	// Phase 1: the whole fleet is up and ready before any document flows.
	waitScrape(t, base+"/metrics", "all shards up", func(code int, body string) bool {
		if code != http.StatusOK {
			return false
		}
		for s := 0; s < chaosShards; s++ {
			if v, ok := metricValue(body, fmt.Sprintf(`shard_up{shard="%d"}`, s)); !ok || v != 1 {
				return false
			}
		}
		return true
	})
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("/healthz before the kill: HTTP %d, body %s", code, body)
	}
	if code, _ := adminGet(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before the kill: HTTP %d", code)
	}

	// Phase 2: half the corpus goes in, and shard 0 is SIGKILLed while
	// its slice of those documents is in flight.
	half := append(bytes.Join(lines[:30], []byte("\n")), '\n')
	if _, err := stdin.Write(half); err != nil {
		t.Fatal(err)
	}
	pid := shardPid(state, 0)
	if pid <= 0 {
		t.Fatal("no pidfile for shard 0")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	// The scrape must see the death: up gauge at 0, readiness draining.
	waitScrape(t, base+"/metrics", `shard_up{shard="0"} at 0`, func(code int, body string) bool {
		v, ok := metricValue(body, `shard_up{shard="0"}`)
		return code == http.StatusOK && ok && v == 0
	})
	waitScrape(t, base+"/readyz", "readiness 503 while shard 0 is down", func(code int, body string) bool {
		return code == http.StatusServiceUnavailable && strings.Contains(body, `"degraded"`)
	})
	// Liveness tolerates a degraded fleet: restarting vs2d would only
	// make things worse.
	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"degraded"`) {
		t.Fatalf("/healthz while degraded: HTTP %d, body %s", code, body)
	}

	// Phase 3: the supervisor revives the shard; the gauges and restart
	// counter must agree with it.
	finalMetrics = waitScrape(t, base+"/metrics", "shard 0 back up with a restart counted", func(code int, body string) bool {
		up, upOK := metricValue(body, `shard_up{shard="0"}`)
		restarts, rOK := metricValue(body, `shard_restarts{shard="0"}`)
		return code == http.StatusOK && upOK && up == 1 && rOK && restarts >= 1
	})
	waitScrape(t, base+"/readyz", "readiness restored after the restart", func(code int, body string) bool {
		return code == http.StatusOK
	})

	// Phase 4: the rest of the corpus flows through the healed fleet and
	// the batch completes.
	rest := append(bytes.Join(lines[30:], []byte("\n")), '\n')
	if _, err := stdin.Write(rest); err != nil {
		t.Fatal(err)
	}
	if err := stdin.Close(); err != nil {
		t.Fatal(err)
	}
	err = <-exited
	reaped = true
	if err != nil {
		t.Fatalf("front end failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := len(bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))); got != 60 {
		t.Fatalf("front end emitted %d lines, want 60\nstderr:\n%s", got, stderr.String())
	}

	// Phase 5: the stitched trace — including the documents whose shard
	// died mid-flight — validates with no orphaned spans.
	vcmd := exec.Command(traceBin, "-in", tracePath, "-depth", "0")
	var vout, verr bytes.Buffer
	vcmd.Stdout, vcmd.Stderr = &vout, &verr
	if err := vcmd.Run(); err != nil {
		t.Fatalf("vs2trace rejected the stitched chaos trace: %v\nstdout:\n%s\nstderr:\n%s", err, vout.String(), verr.String())
	}
	if !strings.Contains(vout.String(), "60 traces checked, 0 bad") {
		t.Fatalf("vs2trace output: %s", vout.String())
	}
}

// saveChaosArtifacts copies what a chaos run left — the last /metrics
// scrape and the stitched trace, each if it exists — into the directory
// VS2_CHAOS_ARTIFACTS names, where the CI workflow uploads it from.
func saveChaosArtifacts(t *testing.T, metrics, tracePath string) {
	dir := os.Getenv("VS2_CHAOS_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Errorf("artifacts dir: %v", err)
		return
	}
	if metrics != "" {
		if err := os.WriteFile(filepath.Join(dir, "metrics.prom"), []byte(metrics), 0o644); err != nil {
			t.Errorf("artifacts metrics: %v", err)
		}
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Logf("artifacts: no stitched trace to save: %v", err)
		return
	}
	if err := os.WriteFile(filepath.Join(dir, "stitched-trace.jsonl"), trace, 0o644); err != nil {
		t.Errorf("artifacts trace: %v", err)
	}
}
