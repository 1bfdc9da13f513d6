package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestSupervisorScaleOut: growing the fleet starts the new shards,
// proves them live before routing flips, and keys that migrate land on
// the added shards while traffic never stalls.
func TestSupervisorScaleOut(t *testing.T) {
	cfg := fastCfg(t, 2, nil)
	var provisioned []int
	var pmu sync.Mutex
	cfg.OnProvision = func(shard int) error {
		pmu.Lock()
		provisioned = append(provisioned, shard)
		pmu.Unlock()
		return nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Traffic before, during and after the scale: nothing may fail.
	stop := make(chan struct{})
	var trafficErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("bg-%04d", i)
			if _, _, err := s.Do(ctx, key, []byte(`{}`), "", 0); err != nil {
				trafficErr.Store(fmt.Errorf("%s: %w", key, err))
				return
			}
		}
	}()

	if err := s.Scale(ctx, 4); err != nil {
		t.Fatalf("Scale(4): %v", err)
	}
	close(stop)
	wg.Wait()
	if err, _ := trafficErr.Load().(error); err != nil {
		t.Fatalf("background traffic failed during scale-out: %v", err)
	}

	if got := s.Shards(); got != 4 {
		t.Errorf("Shards() = %d after Scale(4), want 4", got)
	}
	if got := s.RingVersion(); got != 2 {
		t.Errorf("RingVersion() = %d after one Scale, want 2", got)
	}
	pmu.Lock()
	if len(provisioned) != 2 || provisioned[0] != 2 || provisioned[1] != 3 {
		t.Errorf("OnProvision saw %v, want [2 3]", provisioned)
	}
	pmu.Unlock()

	// A key owned by a new shard is actually served there.
	ring := NewRing(4, 0)
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%04d", i)
		if ring.Owner(k) >= 2 {
			key = k
			break
		}
	}
	line, _, err := s.Do(ctx, key, []byte(`{}`), "", 0)
	if err != nil {
		t.Fatalf("Do(%s) on new shard: %v", key, err)
	}
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil || got["id"] != key {
		t.Fatalf("bad line from new shard: %q", line)
	}

	h := s.Health()
	if h.RingVersion != 2 || len(h.Shards) != 4 || h.Reconfig != nil {
		t.Errorf("Health after scale-out: ring v%d, %d shards, reconfig %+v; want v2, 4, nil",
			h.RingVersion, len(h.Shards), h.Reconfig)
	}
	m := s.Metrics()
	if got := m.Gauge("shard.reconfig.epoch").Value(); got != 1 {
		t.Errorf("shard.reconfig.epoch = %v, want 1", got)
	}
	if got := m.Gauge("shard.reconfig.active").Value(); got != 0 {
		t.Errorf("shard.reconfig.active = %v after completion, want 0", got)
	}
	if got := m.Counter(`shard.reconfig.transitions{epoch="1",kind="scale_out"}`).Value(); got != 1 {
		t.Errorf(`shard.reconfig.transitions{epoch="1",kind="scale_out"} = %d, want 1`, got)
	}
}

// TestSupervisorScaleInHandoff: shrinking retires the departing shards
// — drain, journal handoff to a live successor, successor adoption —
// and routing flips away before the drain so no new document lands on a
// retiree.
func TestSupervisorScaleInHandoff(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(t, 3, nil)
	type handoff struct{ retired, successor int }
	var handoffs []handoff
	var hmu sync.Mutex
	cfg.OnHandoff = func(retired, successor int) (string, error) {
		hmu.Lock()
		handoffs = append(handoffs, handoff{retired, successor})
		hmu.Unlock()
		// Simulate a transferred journal: a file the successor worker
		// "merges" (counts lines, removes).
		path := filepath.Join(dir, fmt.Sprintf("retired-%d.wal", retired))
		if err := os.WriteFile(path, []byte("a\nb\nc\n"), 0o644); err != nil {
			return "", err
		}
		return path, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Seed some traffic so every shard has lived.
	for i := 0; i < 12; i++ {
		if _, _, err := s.Do(ctx, fmt.Sprintf("seed-%02d", i), []byte(`{}`), "", 0); err != nil {
			t.Fatalf("seed Do: %v", err)
		}
	}

	if err := s.Scale(ctx, 1); err != nil {
		t.Fatalf("Scale(1): %v", err)
	}
	if got := s.Shards(); got != 1 {
		t.Errorf("Shards() = %d after Scale(1), want 1", got)
	}
	hmu.Lock()
	// Retirees 1 and 2 both hand off to the only survivor, shard 0.
	want := []handoff{{1, 0}, {2, 0}}
	if len(handoffs) != 2 || handoffs[0] != want[0] || handoffs[1] != want[1] {
		t.Errorf("handoffs = %v, want %v", handoffs, want)
	}
	hmu.Unlock()
	// The worker removed the transferred journals after adoption.
	for _, rid := range []int{1, 2} {
		path := filepath.Join(dir, fmt.Sprintf("retired-%d.wal", rid))
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("transferred journal %s still present after adoption", path)
		}
	}

	// The shrunken fleet serves everything.
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("after-%02d", i)
		if _, _, err := s.Do(ctx, key, []byte(`{}`), "", 0); err != nil {
			t.Fatalf("Do(%s) after scale-in: %v", key, err)
		}
	}

	m := s.Metrics()
	if got := m.Counter("shard.reconfig.retired").Value(); got != 2 {
		t.Errorf("shard.reconfig.retired = %d, want 2", got)
	}
	if got := m.Counter(`shard.reconfig.handoffs{epoch="1"}`).Value(); got != 2 {
		t.Errorf(`shard.reconfig.handoffs{epoch="1"} = %d, want 2`, got)
	}
	h := s.Health()
	if len(h.Shards) != 1 || h.Degraded {
		t.Errorf("Health after scale-in: %d shards, degraded=%v; want 1 healthy shard", len(h.Shards), h.Degraded)
	}
}

// TestSupervisorScaleInDrainsInFlight: documents in flight on a
// departing shard when Scale fires are answered, not lost — the drain
// waits out the in-flight tail through the exiting child.
func TestSupervisorScaleInDrainsInFlight(t *testing.T) {
	cfg := fastCfg(t, 2, func(int) []string {
		return []string{"SHARD_SLOW=150"}
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Park slow documents on shard 1 (the retiree), then shrink while
	// they are mid-extraction.
	ring := NewRing(2, 0)
	var keys []string
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("slow-%04d", i)
		if ring.Owner(k) == 1 {
			keys = append(keys, k)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(keys))
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if _, _, err := s.Do(ctx, k, []byte(`{}`), "", 0); err != nil {
				errs <- fmt.Errorf("%s: %w", k, err)
			}
		}(k)
	}
	time.Sleep(50 * time.Millisecond) // let the calls reach the worker
	if err := s.Scale(ctx, 1); err != nil {
		t.Fatalf("Scale(1) with in-flight work: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics().Counter("shard.response.orphans").Value(); got != 0 {
		t.Errorf("shard.response.orphans = %d during planned drain, want 0", got)
	}
}

// TestSupervisorScaleHandoffError: a failing handoff aborts Scale with
// the error, but the fleet keeps serving at the already-flipped size.
func TestSupervisorScaleHandoffError(t *testing.T) {
	cfg := fastCfg(t, 2, func(int) []string {
		return []string{"SHARD_ADOPT_FAIL=1"}
	})
	dir := t.TempDir()
	cfg.OnHandoff = func(retired, successor int) (string, error) {
		path := filepath.Join(dir, "x.wal")
		os.WriteFile(path, []byte("a\n"), 0o644) //nolint:errcheck
		return path, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = s.Scale(ctx, 1)
	if err == nil || !strings.Contains(err.Error(), "adopt refused") {
		t.Fatalf("Scale with failing adoption: err = %v, want adopt refusal", err)
	}
	if got := s.Shards(); got != 1 {
		t.Errorf("Shards() = %d after aborted handoff, want 1 (routing already flipped)", got)
	}
	if _, _, err := s.Do(ctx, "still-serving", []byte(`{}`), "", 0); err != nil {
		t.Errorf("Do after failed handoff: %v", err)
	}
}

// TestSupervisorRoll: a rolling restart replaces every child with a
// fresh incarnation, one at a time, with no crash accounting and no
// failed traffic.
func TestSupervisorRoll(t *testing.T) {
	cfg := fastCfg(t, 3, nil)
	var pmu sync.Mutex
	pids := map[int][]int{}
	cfg.OnStart = func(shard, pid int) {
		pmu.Lock()
		pids[shard] = append(pids[shard], pid)
		pmu.Unlock()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var trafficErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("roll-bg-%04d", i)
			if _, _, err := s.Do(ctx, key, []byte(`{}`), "", 0); err != nil {
				trafficErr.Store(fmt.Errorf("%s: %w", key, err))
				return
			}
		}
	}()

	if err := s.Roll(ctx); err != nil {
		t.Fatalf("Roll: %v", err)
	}
	close(stop)
	wg.Wait()
	if err, _ := trafficErr.Load().(error); err != nil {
		t.Fatalf("background traffic failed during roll: %v", err)
	}

	pmu.Lock()
	for shard := 0; shard < 3; shard++ {
		if got := len(pids[shard]); got != 2 {
			t.Errorf("shard %d started %d children across one roll, want 2", shard, got)
		} else if pids[shard][0] == pids[shard][1] {
			t.Errorf("shard %d kept pid %d across the roll", shard, pids[shard][0])
		}
	}
	pmu.Unlock()

	m := s.Metrics()
	if got := m.Counter("shard.crashes").Value(); got != 0 {
		t.Errorf("shard.crashes = %d after a clean roll, want 0", got)
	}
	if got := m.Counter("shard.restarts").Value(); got != 0 {
		t.Errorf("shard.restarts = %d after a clean roll, want 0 (rolls are not restarts)", got)
	}
	rolled := int64(0)
	for shard := 0; shard < 3; shard++ {
		rolled += m.Counter(fmt.Sprintf(`shard.reconfig.rolled{shard="%d"}`, shard)).Value()
	}
	if rolled != 3 {
		t.Errorf("shard.reconfig.rolled total = %d, want 3", rolled)
	}
	if got := m.Counter(`shard.reconfig.transitions{epoch="1",kind="roll"}`).Value(); got != 1 {
		t.Errorf(`shard.reconfig.transitions{epoch="1",kind="roll"} = %d, want 1`, got)
	}
	// The fleet is healthy and serving after the roll.
	h := s.Health()
	if h.Live != 3 || h.Degraded {
		t.Errorf("Health after roll: live=%d degraded=%v, want 3 live, not degraded", h.Live, h.Degraded)
	}
}

// TestSupervisorScaleSerializes: concurrent Scale calls serialize; the
// fleet lands on a coherent final size with consistent health.
func TestSupervisorScaleSerializes(t *testing.T) {
	s, err := New(fastCfg(t, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, n := range []int{3, 4, 2} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			if err := s.Scale(ctx, n); err != nil {
				t.Errorf("Scale(%d): %v", n, err)
			}
		}(n)
	}
	wg.Wait()
	got := s.Shards()
	if got != 2 && got != 3 && got != 4 {
		t.Fatalf("Shards() = %d after concurrent scales, want one of the requested sizes", got)
	}
	h := s.Health()
	if len(h.Shards) != got {
		t.Errorf("Health reports %d shards, view says %d", len(h.Shards), got)
	}
	if _, _, err := s.Do(ctx, "post-scale", []byte(`{}`), "", 0); err != nil {
		t.Errorf("Do after concurrent scales: %v", err)
	}
}

// TestSupervisorCloseDuringRestartChurn: Close while children are
// crash-looping leaves no orphan child processes and no leaked
// goroutines — the Close-vs-restart race fix.
func TestSupervisorCloseDuringRestartChurn(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := fastCfg(t, 3, func(int) []string {
		return []string{"SHARD_CRASH_AFTER=1"}
	})
	cfg.MaxRestarts = 10000
	var pmu sync.Mutex
	var pids []int
	cfg.OnStart = func(_, pid int) {
		pmu.Lock()
		pids = append(pids, pid)
		pmu.Unlock()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Feed the churn: every answer kills the child, so restarts overlap
	// Close with high probability.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Do(ctx, fmt.Sprintf("churn-%02d", i), []byte(`{}`), "", 0) //nolint:errcheck
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	closeSup(t, s)
	cancel()
	wg.Wait()

	// Every child the supervisor ever started must be dead: no orphans
	// from a restart that raced Close.
	waitFor(t, 10*time.Second, func() bool {
		pmu.Lock()
		defer pmu.Unlock()
		for _, pid := range pids {
			if syscall.Kill(pid, 0) == nil {
				return false
			}
		}
		return true
	}, "all child processes to exit after Close")

	// And the runner/reader/prober goroutines must all have unwound.
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	}, fmt.Sprintf("goroutines to settle near baseline %d", baseline))
}

// TestSupervisorScaleAfterClose: reconfiguration on a closed supervisor
// fails fast with ErrClosed.
func TestSupervisorScaleAfterClose(t *testing.T) {
	s, err := New(fastCfg(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	closeSup(t, s)
	if err := s.Scale(context.Background(), 3); !errors.Is(err, ErrClosed) {
		t.Errorf("Scale after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Roll(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Roll after Close: err = %v, want ErrClosed", err)
	}
}
