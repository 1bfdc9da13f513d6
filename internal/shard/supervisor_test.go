package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"vs2/internal/obs"
)

// TestMain doubles as the shard worker for the supervision tests: when
// the test binary is re-executed with SHARD_TEST_WORKER set it becomes
// a scriptable echo worker instead of running the test suite — the
// standard helper-process pattern, giving the supervisor a real child
// process to probe, kill and restart.
func TestMain(m *testing.M) {
	if os.Getenv("SHARD_TEST_WORKER") != "" {
		os.Exit(echoWorker())
	}
	os.Exit(m.Run())
}

// echoWorker answers pings with pongs and documents with a
// deterministic echo line, speaking the same frames as the vs2d worker. Environment variables script its failure
// modes:
//
//	SHARD_CRASH_AFTER=n    exit(3) after answering n documents
//	SHARD_CRASH_ONCE=path  first incarnation (path absent) reads one
//	                       request and exits WITHOUT answering; later
//	                       incarnations behave normally
//	SHARD_HANG_ONCE=path   first incarnation answers nothing at all
//	                       (probe deadline must kill it)
//	SHARD_FAIL_START=1     exit(9) immediately, before reading stdin
//	SHARD_TELEMETRY=1      trace each answered document — its reply carries
//	                       one span stamped with the request's Span as
//	                       parent_span — and then ship a telemetry frame
//	                       with the worker registry's delta
//	SHARD_POISON_KEY=k     exit(3) on receiving key k, every incarnation —
//	                       a deterministic poison document
//	SHARD_SLOW=ms          sleep that long before answering each document
//	                       (pings stay instant) — drain-window widener
//	SHARD_ADOPT_FAIL=1     answer Adopt requests with an error instead of
//	                       merging
//
// Adopt requests are simulated against the filesystem: the worker
// removes the file at the adopt path and acknowledges — also when the
// file is already gone, mirroring the idempotent re-adoption of a real
// journal merge. A document's reply is degraded when it was sent at a
// fidelity level above 0, so tests see the status ride the frame.
func echoWorker() int {
	if os.Getenv("SHARD_FAIL_START") != "" {
		return 9
	}
	if marker := os.Getenv("SHARD_HANG_ONCE"); marker != "" {
		if _, err := os.Stat(marker); os.IsNotExist(err) {
			os.WriteFile(marker, []byte("hung\n"), 0o644) //nolint:errcheck
			// Consume stdin without ever answering; the prober kills us.
			io.Copy(io.Discard, os.Stdin) //nolint:errcheck
			return 0
		}
	}
	crashOnce := os.Getenv("SHARD_CRASH_ONCE")
	crashAfter := -1
	if v := os.Getenv("SHARD_CRASH_AFTER"); v != "" {
		crashAfter, _ = strconv.Atoi(v)
	}
	telemetry := os.Getenv("SHARD_TELEMETRY") != ""
	wm := obs.NewRegistry()
	var prev obs.Snapshot
	answered := 0
	fr := NewReader(os.Stdin, 1<<20)
	for {
		req, err := fr.Next()
		if errors.Is(err, ErrMalformed) {
			continue
		}
		if err != nil {
			break
		}
		switch req.Kind {
		case KindPing:
			writeFrame(Frame{Kind: KindPong})
			continue
		case KindAdopt:
			if os.Getenv("SHARD_ADOPT_FAIL") != "" {
				writeFrame(Frame{Kind: KindError, Key: req.Key, Body: []byte("adopt refused by test worker")})
				continue
			}
			path := string(req.Body)
			if _, err := os.Stat(path); err == nil {
				os.Remove(path) //nolint:errcheck
			}
			writeFrame(Frame{Kind: KindAdopted, Key: req.Key})
			continue
		case KindDoc:
		default:
			continue
		}
		if ms, _ := strconv.Atoi(os.Getenv("SHARD_SLOW")); ms > 0 {
			time.Sleep(time.Duration(ms) * time.Millisecond)
		}
		if crashOnce != "" {
			if _, err := os.Stat(crashOnce); os.IsNotExist(err) {
				os.WriteFile(crashOnce, []byte("crashed\n"), 0o644) //nolint:errcheck
				return 3                                            // die holding the request: the supervisor must requeue it
			}
		}
		if pk := os.Getenv("SHARD_POISON_KEY"); pk != "" && req.Key == pk {
			return 3 // the document itself kills the worker, deterministically
		}
		line, _ := json.Marshal(map[string]any{"id": req.Key, "pid": os.Getpid(), "level": req.Level})
		reply := Frame{Kind: KindReply, Key: req.Key, Body: line}
		if req.Level > 0 {
			reply.Status = StatusDegraded
		}
		if telemetry {
			tr := obs.New("worker " + req.Key)
			tr.Root().SetAttr("key", req.Key)
			if req.Span != "" {
				tr.Root().SetAttr("parent_span", req.Span)
			}
			tr.Finish()
			reply.Trace, _ = json.Marshal(tr.Snapshot())
		}
		writeFrame(reply)
		answered++
		if telemetry {
			wm.Counter("worker.docs").Inc()
			cur := wm.Snapshot()
			delta := cur.DeltaSince(prev)
			prev = cur
			writeTelemetry(Telemetry{Metrics: &delta})
		}
		if crashAfter >= 0 && answered >= crashAfter {
			return 3
		}
	}
	if telemetry {
		cur := wm.Snapshot()
		delta := cur.DeltaSince(prev)
		writeTelemetry(Telemetry{Metrics: &delta, Final: true})
	}
	return 0
}

// writeFrame sends one frame up the response pipe in a single write.
func writeFrame(f Frame) {
	os.Stdout.Write(AppendFrame(nil, f)) //nolint:errcheck
}

func writeTelemetry(t Telemetry) {
	data, _ := json.Marshal(t)
	writeFrame(Frame{Kind: KindTelemetry, Body: data})
}

// startFunc builds a Config.Start that re-execs this test binary as an
// echo worker, with extra per-shard environment from env(shard).
func startFunc(t *testing.T, env func(shard int) []string) func(int) (*exec.Cmd, error) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) (*exec.Cmd, error) {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), "SHARD_TEST_WORKER=1")
		if env != nil {
			cmd.Env = append(cmd.Env, env(i)...)
		}
		return cmd, nil
	}
}

// fastCfg is a supervision config tuned for test latencies.
func fastCfg(t *testing.T, shards int, env func(int) []string) Config {
	t.Helper()
	return Config{
		Shards:            shards,
		Start:             startFunc(t, env),
		ProbeInterval:     50 * time.Millisecond,
		ProbeTimeout:      400 * time.Millisecond,
		RestartBackoff:    10 * time.Millisecond,
		RestartBackoffMax: 50 * time.Millisecond,
		MaxRestarts:       3,
		BreakerCooldown:   50 * time.Millisecond,
		DrainGrace:        2 * time.Second,
		Seed:              42,
		Metrics:           obs.NewRegistry(),
		Stderr:            io.Discard,
	}
}

func closeSup(t *testing.T, s *Supervisor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestSupervisorConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0, Start: startFunc(t, nil)}); err == nil {
		t.Error("New with Shards=0 succeeded, want error")
	}
	if _, err := New(Config{Shards: 2}); err == nil {
		t.Error("New with nil Start succeeded, want error")
	}
}

// TestSupervisorEcho: keyed work fans out across a healthy fleet and
// every call gets its own answer back.
func TestSupervisorEcho(t *testing.T) {
	s, err := New(fastCfg(t, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("doc-%03d", i)
			line, _, err := s.Do(ctx, key, []byte(`{"n":`+strconv.Itoa(i)+`}`), "", 0)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", key, err)
				return
			}
			var got map[string]any
			if err := json.Unmarshal(line, &got); err != nil || got["id"] != key {
				errs <- fmt.Errorf("%s: bad echo line %q (%v)", key, line, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := s.Metrics()
	if got := m.Counter("shard.starts").Value(); got != 2 {
		t.Errorf("shard.starts = %d, want 2", got)
	}
	if got := m.Gauge("shard.up").Value(); got != 2 {
		t.Errorf("shard.up gauge = %v, want 2", got)
	}
}

// TestSupervisorCrashRequeueRestart: a child that dies holding an
// unanswered request is restarted and the request is re-sent — the
// caller just sees its answer, late.
func TestSupervisorCrashRequeueRestart(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "crashed-once")
	s, err := New(fastCfg(t, 1, func(int) []string {
		return []string{"SHARD_CRASH_ONCE=" + marker}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	line, _, err := s.Do(ctx, "victim", []byte(`{}`), "", 0)
	if err != nil {
		t.Fatalf("Do across crash: %v", err)
	}
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil || got["id"] != "victim" {
		t.Fatalf("bad line after restart: %q", line)
	}
	m := s.Metrics()
	if got := m.Counter("shard.crashes").Value(); got < 1 {
		t.Errorf("shard.crashes = %d, want >= 1", got)
	}
	if got := m.Counter("shard.restarts").Value(); got < 1 {
		t.Errorf("shard.restarts = %d, want >= 1", got)
	}
	if got := m.Counter("shard.starts").Value(); got < 2 {
		t.Errorf("shard.starts = %d, want >= 2", got)
	}
}

// TestSupervisorPermanentFailureFailsOver: a shard whose child can
// never start is abandoned after MaxRestarts and its keyspace lands on
// the surviving shard — no call is lost.
func TestSupervisorPermanentFailureFailsOver(t *testing.T) {
	s, err := New(fastCfg(t, 2, func(i int) []string {
		if i == 1 {
			return []string{"SHARD_FAIL_START=1"}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	// Find keys the ring places on the doomed shard 1.
	ring := NewRing(2, 0)
	var victims []string
	for i := 0; len(victims) < 10; i++ {
		k := fmt.Sprintf("doc-%04d", i)
		if ring.Owner(k) == 1 {
			victims = append(victims, k)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, k := range victims {
		line, _, err := s.Do(ctx, k, []byte(`{}`), "", 0)
		if err != nil {
			t.Fatalf("Do(%s) owned by dead shard: %v", k, err)
		}
		var got map[string]any
		if err := json.Unmarshal(line, &got); err != nil || got["id"] != k {
			t.Fatalf("bad failover line for %s: %q", k, line)
		}
	}

	m := s.Metrics()
	waitFor(t, 10*time.Second, func() bool {
		return m.Counter("shard.abandoned").Value() == 1
	}, "shard.abandoned to reach 1")
	if fo := m.Counter("shard.failovers").Value() + m.Counter("shard.rerouted").Value() + m.Counter("shard.route.blind").Value(); fo < int64(len(victims)) {
		t.Errorf("failovers+rerouted+blind = %d, want >= %d", fo, len(victims))
	}
	if got := m.Histogram("shard.reroute.distance", RerouteBuckets).Count(); got < 1 {
		t.Errorf("shard.reroute.distance count = %d, want >= 1", got)
	}
}

// TestSupervisorFleetDead: with every shard permanently failed, Do
// reports ErrNoShards instead of hanging.
func TestSupervisorFleetDead(t *testing.T) {
	s, err := New(fastCfg(t, 2, func(int) []string {
		return []string{"SHARD_FAIL_START=1"}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	m := s.Metrics()
	waitFor(t, 15*time.Second, func() bool {
		return m.Counter("shard.abandoned").Value() == 2
	}, "both shards abandoned")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := s.Do(ctx, "anything", []byte(`{}`), "", 0); err != ErrNoShards {
		t.Fatalf("Do on dead fleet: err = %v, want ErrNoShards", err)
	}
}

// TestSupervisorProbeTimeoutKillsHungChild: a child that stays alive
// but answers nothing is killed by the liveness deadline and its
// replacement serves the work.
func TestSupervisorProbeTimeoutKillsHungChild(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "hung-once")
	s, err := New(fastCfg(t, 1, func(int) []string {
		return []string{"SHARD_HANG_ONCE=" + marker}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	line, _, err := s.Do(ctx, "stuck", []byte(`{}`), "", 0)
	if err != nil {
		t.Fatalf("Do across hung child: %v", err)
	}
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil || got["id"] != "stuck" {
		t.Fatalf("bad line after hang recovery: %q", line)
	}
	if got := s.Metrics().Counter("shard.probe.timeouts").Value(); got < 1 {
		t.Errorf("shard.probe.timeouts = %d, want >= 1", got)
	}
}

// TestSupervisorClosed: Do after Close fails fast with ErrClosed.
func TestSupervisorClosed(t *testing.T) {
	s, err := New(fastCfg(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	closeSup(t, s)
	if _, _, err := s.Do(context.Background(), "late", []byte(`{}`), "", 0); err != ErrClosed {
		t.Fatalf("Do after Close: err = %v, want ErrClosed", err)
	}
}

// TestSupervisorCrashLoopKeepsServing: a shard that crashes after every
// few answers still eventually serves its whole backlog — restarts and
// requeues compose.
func TestSupervisorCrashLoopKeepsServing(t *testing.T) {
	cfg := fastCfg(t, 1, func(int) []string {
		return []string{"SHARD_CRASH_AFTER=5"}
	})
	cfg.MaxRestarts = 100 // every incarnation answers, so the streak resets anyway
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("loop-%02d", i)
			if _, _, err := s.Do(ctx, key, []byte(`{}`), "", 0); err != nil {
				errs <- fmt.Errorf("%s: %w", key, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics().Counter("shard.crashes").Value(); got < 2 {
		t.Errorf("shard.crashes = %d, want >= 2 for a crash-looping child", got)
	}
}

// TestSupervisorPoisonQuarantine: a document that deterministically
// kills its worker is quarantined after PoisonAfter crashes — the call
// fails with ErrPoisoned, the event is counted and observed, and the
// shard goes on serving everything else.
func TestSupervisorPoisonQuarantine(t *testing.T) {
	cfg := fastCfg(t, 1, func(int) []string {
		return []string{"SHARD_POISON_KEY=bad"}
	})
	cfg.PoisonAfter = 2
	cfg.MaxRestarts = 100
	type poisonEvent struct {
		shard, crashes int
		key            string
	}
	events := make(chan poisonEvent, 4)
	cfg.OnPoison = func(shard int, key string, crashes int) {
		events <- poisonEvent{shard: shard, crashes: crashes, key: key}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, derr := s.Do(ctx, "bad", []byte(`{}`), "", 0)
	if !errors.Is(derr, ErrPoisoned) {
		t.Fatalf("Do(bad) = %v, want ErrPoisoned", derr)
	}
	select {
	case ev := <-events:
		if ev.key != "bad" || ev.shard != 0 || ev.crashes != 2 {
			t.Errorf("OnPoison(%+v), want shard 0 key \"bad\" crashes 2", ev)
		}
	default:
		t.Error("OnPoison was not called")
	}
	if got := s.Metrics().Counter("shard.poisoned").Value(); got != 1 {
		t.Errorf("shard.poisoned = %d, want 1", got)
	}

	// The shard survives its poison: later documents are served normally.
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("good-%d", i)
		line, _, err := s.Do(ctx, key, []byte(`{}`), "", 0)
		if err != nil {
			t.Fatalf("Do(%s) after quarantine: %v", key, err)
		}
		var got map[string]any
		if err := json.Unmarshal(line, &got); err != nil || got["id"] != key {
			t.Fatalf("bad line for %s after quarantine: %q", key, line)
		}
	}
	if got := s.Metrics().Counter("shard.abandoned").Value(); got != 0 {
		t.Errorf("shard.abandoned = %d after quarantine, want 0", got)
	}
}

// TestSupervisorLevelPropagation: the fidelity level rides the request
// frame to the worker, and the reply's status rides back in its frame —
// the echo worker marks a reply degraded when it was sent at a level
// above 0.
func TestSupervisorLevelPropagation(t *testing.T) {
	s, err := New(fastCfg(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, tc := range []struct {
		key    string
		level  int
		status Status
	}{{"full", 0, StatusOK}, {"degraded", 2, StatusDegraded}} {
		line, status, err := s.Do(ctx, tc.key, []byte(`{}`), "", tc.level)
		if err != nil {
			t.Fatalf("Do(%s): %v", tc.key, err)
		}
		var got map[string]any
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("bad line for %s: %q", tc.key, line)
		}
		if lvl, _ := got["level"].(float64); int(lvl) != tc.level {
			t.Errorf("worker saw level %v for %s, want %d", got["level"], tc.key, tc.level)
		}
		if status != tc.status {
			t.Errorf("status for %s = %d, want %d", tc.key, status, tc.status)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
