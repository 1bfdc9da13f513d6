package shard

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vs2/internal/obs"
)

// TestSupervisorTelemetryStamped: worker telemetry shipments and the
// span trees of traced replies ride the response pipe and arrive at
// OnTelemetry stamped with the authoritative shard index and child
// epoch; metric deltas fold into a fleet registry under a shard label,
// and each tree carries the request's span ID as parent_span for
// cross-process stitching. A tree travels in its reply's frame, so it is
// on file before the document's Do returns.
func TestSupervisorTelemetryStamped(t *testing.T) {
	var mu sync.Mutex
	var shipments []Telemetry
	fleet := obs.NewRegistry()

	cfg := fastCfg(t, 1, func(int) []string {
		return []string{"SHARD_TELEMETRY=1"}
	})
	cfg.OnTelemetry = func(tl Telemetry) {
		mu.Lock()
		shipments = append(shipments, tl)
		mu.Unlock()
		if tl.Metrics != nil {
			fleet.Merge(*tl.Metrics, obs.L("shard", strconv.Itoa(tl.Shard)))
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const docs = 5
	parents := func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		seen := map[string]bool{}
		for _, tl := range shipments {
			if tl.Shard != 0 {
				t.Errorf("shipment stamped shard %d, want 0", tl.Shard)
			}
			if tl.Epoch != 1 {
				t.Errorf("shipment stamped epoch %d, want 1 (no restarts)", tl.Epoch)
			}
			for _, sp := range tl.Spans {
				if p, ok := sp.Attrs["parent_span"].(string); ok {
					seen[p] = true
				}
			}
		}
		return seen
	}
	for i := 0; i < docs; i++ {
		key := fmt.Sprintf("tele-%d", i)
		if _, _, err := s.Do(ctx, key, []byte(`{}`), "span-"+key, 0); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		if !parents()["span-"+key] {
			t.Errorf("Do(%s) returned before its span tree reached OnTelemetry", key)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		return fleet.Counter(`worker.docs{shard="0"}`).Value() == docs
	}, "metric deltas to fold into worker.docs{shard=0}")
	parents() // checks the stamps on the metric shipments too
	if got := s.Metrics().Counter(obs.Name("shard.telemetry.shipments", obs.L("shard", "0"))).Value(); got < docs {
		t.Errorf("shard.telemetry.shipments = %d, want >= %d", got, docs)
	}
}

// TestSupervisorScrapeDuringKillRestart race-checks the observability
// read path against live supervision: one goroutine scrapes the fleet
// registry's Prometheus exposition and Health snapshot continuously
// while the test SIGKILLs shard children and waits for their restarts.
// At every settle point the labelled shard.up gauges and shard.restarts
// counters must agree with the Supervisor's own Health state.
func TestSupervisorScrapeDuringKillRestart(t *testing.T) {
	cfg := fastCfg(t, 2, nil)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSup(t, s)
	m := s.Metrics()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	doOne := func(i int) {
		key := fmt.Sprintf("scrape-%d", i)
		if _, _, err := s.Do(ctx, key, []byte(`{}`), "", 0); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
	waitUp := func(shard int, minEpoch int64) {
		waitFor(t, 15*time.Second, func() bool {
			for _, sh := range s.Health().Shards {
				if sh.Shard == shard {
					return sh.Up && sh.Epoch >= minEpoch
				}
			}
			return false
		}, fmt.Sprintf("shard %d up at epoch >= %d", shard, minEpoch))
	}
	waitUp(0, 1)
	waitUp(1, 1)
	doOne(0)

	// The concurrent scraper: exactly what the /metrics and /healthz
	// handlers do, hammered in a loop so the race detector sees every
	// overlap with the supervision loops. It starts after the first
	// child registrations so the shard_up family exists on every scrape.
	stop := make(chan struct{})
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := m.Snapshot().WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if !strings.Contains(b.String(), "# TYPE shard_up gauge") {
				t.Error("scrape lost the shard_up family")
				return
			}
			s.Health()
		}
	}()
	defer func() {
		close(stop)
		scraperWG.Wait()
	}()

	// Three kill/restart cycles against shard 0.
	for cycle := 1; cycle <= 3; cycle++ {
		h := s.Health()
		pid := 0
		for _, sh := range h.Shards {
			if sh.Shard == 0 {
				pid = sh.PID
			}
		}
		if pid == 0 {
			t.Fatalf("cycle %d: shard 0 has no PID in %+v", cycle, h)
		}
		proc, err := os.FindProcess(pid)
		if err != nil {
			t.Fatal(err)
		}
		if err := proc.Kill(); err != nil {
			t.Fatalf("cycle %d: kill %d: %v", cycle, pid, err)
		}
		waitUp(0, int64(cycle)+1)
		doOne(cycle)
	}

	// Settle point: metrics and Health must tell the same story.
	h := s.Health()
	for _, sh := range h.Shards {
		label := obs.L("shard", strconv.Itoa(sh.Shard))
		up := m.Gauge(obs.Name("shard.up", label)).Value()
		wantUp := 0.0
		if sh.Up {
			wantUp = 1.0
		}
		if up != wantUp {
			t.Errorf("shard %d: shard.up gauge = %v, Health says up=%v", sh.Shard, up, sh.Up)
		}
		restarts := m.Counter(obs.Name("shard.restarts", label)).Value()
		if restarts != sh.Restarts {
			t.Errorf("shard %d: shard.restarts counter = %d, Health says %d", sh.Shard, restarts, sh.Restarts)
		}
	}
	var shard0 ShardHealth
	for _, sh := range h.Shards {
		if sh.Shard == 0 {
			shard0 = sh
		}
	}
	if shard0.Restarts < 3 {
		t.Errorf("shard 0 restarts = %d after 3 kill cycles, want >= 3", shard0.Restarts)
	}
	if shard0.Epoch < 4 {
		t.Errorf("shard 0 epoch = %d after 3 kill cycles, want >= 4", shard0.Epoch)
	}
	if h.Failed {
		t.Error("fleet reported Failed after recoverable kills")
	}

	// The exposition itself must carry the per-shard series.
	var b strings.Builder
	if err := m.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`shard_up{shard="0"} 1`,
		`shard_up{shard="1"} 1`,
		fmt.Sprintf(`shard_restarts{shard="0"} %d`, shard0.Restarts),
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestSupervisorHealthDegraded: a shard whose child can never start
// degrades the fleet (and eventually fails it over) without flipping
// the whole fleet to Failed while a live shard remains.
func TestSupervisorHealthDegraded(t *testing.T) {
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

	waitFor(t, 15*time.Second, func() bool {
		h := s.Health()
		return h.Degraded && h.Live == 1
	}, "fleet to report degraded with one live shard")
	h := s.Health()
	if h.Failed {
		t.Error("fleet reported Failed with a live shard")
	}
	var doomed ShardHealth
	for _, sh := range h.Shards {
		if sh.Shard == 1 {
			doomed = sh
		}
	}
	if doomed.Up {
		t.Error("doomed shard reported up")
	}
}
