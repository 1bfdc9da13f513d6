package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"vs2"
)

func TestTailPercentileChoice(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted: 1..n
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		value float64
		pct   float64
	}{
		{35000, 34650, 99}, // p99 has 350 beyond; the ladder stops there
		{625, 594, 95},     // p99 would leave 6 beyond
		{100, 90, 90},      // p95 would leave 5
		{45, 34, 75},       // p90 would leave 4
		{25, 13, 50},
		{12, 12, 100}, // no rung leaves 10 beyond: the maximum
	} {
		v, pct, n := tail(samples(c.n))
		if v != c.value || pct != c.pct || n != c.n {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", c.n, v, pct, c.value, c.pct)
		}
	}
}

func TestStretchTailRidesOutAMinorityOfStalls(t *testing.T) {
	// Ten stretches of 1000 samples, each 1..1000 ms: p99 is 990 ms.
	xs := make([]float64, 10*tailStretch)
	for i := range xs {
		xs[i] = float64(i%tailStretch + 1)
	}
	// A stall lifts 300 documents of two stretches by half a second.
	for _, from := range []int{2500, 7100} {
		for i := from; i < from+300; i++ {
			xs[i] += 500
		}
	}
	window, _, _ := tail(xs)
	v, pct, per, k := stretchTail(xs)
	if v != 990 || pct != 99 || per != tailStretch || k != 10 {
		t.Fatalf("stretch tail = %v at p%v over %d stretches of %d, want 990 at p99 over 10 of %d", v, pct, k, per, tailStretch)
	}
	if window <= 1000 {
		t.Fatalf("whole-window p99 = %v: the stalls should lift it past 1000", window)
	}
	// Too short for two stretches: the whole window's tail.
	short := xs[:2*tailStretch-1]
	wv, wp, wn := tail(short)
	if v, pct, per, k := stretchTail(short); v != wv || pct != wp || per != wn || k != 1 {
		t.Fatalf("short window: %v at p%v (%d samples, %d stretches), want %v at p%v (%d, 1)", v, pct, per, k, wv, wp, wn)
	}
}

func TestDueTimeLatencyCountsStalls(t *testing.T) {
	t0 := time.Unix(1000, 0)
	const gap = 40 * time.Millisecond
	due := make([]time.Time, 4)
	for i := range due {
		due[i] = t0.Add(time.Duration(i) * gap)
	}
	sent := []time.Time{due[0], due[1], due[2].Add(500 * time.Millisecond), due[2].Add(501 * time.Millisecond)}
	recv := []time.Time{
		sent[0].Add(10 * time.Millisecond),
		sent[1].Add(700 * time.Millisecond), // the reply stalls in a buffer
		sent[2].Add(10 * time.Millisecond),  // the generator stalled before sending
		{},                                  // never answered
	}
	deadline := t0.Add(5 * time.Second)
	lat, late := dueLatencies(due, sent, recv, 0, 4, deadline)
	want := []float64{10, 700, 510, ms(deadline.Sub(due[3]))}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("latency[%d] = %vms, want %vms", i, lat[i], want[i])
		}
	}
	if late[2] != 500 || late[3] != ms(due[2].Add(501*time.Millisecond).Sub(due[3])) {
		t.Errorf("lateness = %v, want the stall on documents 2 and 3", late)
	}
}

func TestKilledBy(t *testing.T) {
	sleeper := exec.Command("sleep", "10")
	if err := sleeper.Start(); err != nil {
		t.Fatal(err)
	}
	sleeper.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	if err := sleeper.Wait(); !killedBy(err, syscall.SIGTERM) || killedBy(err, syscall.SIGKILL) {
		t.Errorf("a process ended by SIGTERM: killedBy(%v) is wrong", err)
	}
	if err := exec.Command("false").Run(); err == nil || killedBy(err, syscall.SIGTERM) {
		t.Errorf("exit status 1 (%v) counts as SIGTERM", err)
	}
	if killedBy(errors.New("killed after grace"), syscall.SIGTERM) {
		t.Error("a plain error counts as SIGTERM")
	}
}

func line(id, errText string) []byte {
	b, _ := json.Marshal(map[string]any{"id": id, "entities": []any{}, "error": errText})
	return b
}

func TestErrorAccounting(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	idx := []int{0, 1, 2, 3, 4, 5}
	lines := [][]byte{
		line("a", ""),
		line("c", ""), // out of order: stands where b belongs
		line("b", ""),
		line("d", "extract: shed"), // error
		line("e", ""),
		line("e", ""), // duplicate in place of f
		line("f", ""), // extra line beyond the documents sent
	}
	v := newVerdict(len(ids))
	checkStream(v, ids, idx, lines)
	if v.attempted != 6 || v.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 6 and 5 (problems %v)", v.attempted, v.failed, v.problems)
	}
	for i, want := range []bool{true, false, false, false, true, false} {
		if v.ok[i] != want {
			t.Errorf("ok[%s] = %v, want %v", ids[i], v.ok[i], want)
		}
	}

	// Missing lines: the open-loop check leaves unanswered documents nil.
	r := &openRun{
		sentAt: []time.Time{time.Unix(1, 0), time.Unix(2, 0), time.Unix(3, 0), {}},
		lines:  [][]byte{line("p0", ""), nil, line("p2", ""), nil},
	}
	items := []item{{id: "p0"}, {id: "p1"}, {id: "p2"}, {id: "p3"}}
	v = checkOpen(items, r, 2)
	if v.attempted != 3 || v.failed != 1 || !v.ok[0] || v.ok[1] || !v.ok[2] {
		t.Fatalf("open check: attempted %d failed %d ok %v, want 3 sent, p1 missing", v.attempted, v.failed, v.ok)
	}
}

func sp(name string, start time.Time, d time.Duration, children ...span) span {
	return span{Name: name, Start: start, DurationNS: int64(d), Children: children}
}

func TestSelfTimesFromSpanTree(t *testing.T) {
	t0 := time.Unix(2000, 0)
	ms := time.Millisecond
	extract := sp("extract", t0.Add(3*ms), 100*ms,
		sp("validate", t0, 1*ms),
		sp("template", t0, 1*ms),
		sp("segment", t0, 30*ms, sp("split", t0, 20*ms), sp("merge", t0, 8*ms)),
		sp("search", t0, 50*ms),
		sp("disambiguate", t0, 12*ms),
	)
	extract.Children[1].Attrs = map[string]any{"outcome": "miss"}
	extract.Attrs = map[string]any{"candidates": 7.0}
	if got := extract.self(); got != int64(6*ms) {
		t.Fatalf("extract self = %v, want 6ms", time.Duration(got))
	}
	if got := extract.Children[2].self(); got != int64(2*ms) {
		t.Fatalf("segment self = %v, want 2ms", time.Duration(got))
	}
	if !accounted(&extract) {
		t.Fatal("phases cover 94% of the extract span: within vs2trace's 10%")
	}
	loose := sp("extract", t0, 100*ms, sp("search", t0, 80*ms))
	if accounted(&loose) {
		t.Fatal("phases cover 80% of the extract span: outside vs2trace's 10%")
	}

	// A stitched vs2d tree: admission, route -> worker -> extract, merge.
	worker := sp("worker d1", t0.Add(2*ms), 110*ms, extract)
	root := sp("vs2d d1", t0, 200*ms,
		sp("admission", t0, 1*ms),
		sp("route", t0.Add(1*ms), 115*ms, worker),
		sp("merge", t0.Add(116*ms), 4*ms),
	)
	recv := []time.Time{t0.Add(170 * ms)}
	l, err := fromSpans(map[string]*span{"d1": &root}, []item{{id: "d1"}}, []int{0}, recv)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"segment ns", float64(l.segNS), float64(30 * ms)},
		{"search self ns", float64(l.searchNS), float64(50 * ms)},
		{"select self ns", float64(l.selNS), float64(12 * ms)},
		{"candidates", l.candidates, 7},
		{"queue wait ms", l.queueWait[0], 10},
		{"route overhead ms", l.route[0], 5},
		{"window wait ms", l.windowWait[0], 1},
		{"merge wait ms", l.merge[0], 4},
		{"flush wait ms", l.flush[0], 50},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if l.segDocs != 1 || l.probes != 1 || l.hits != 0 || l.accountedRuns != 1 {
		t.Errorf("fold = %+v", l)
	}
}

// TestEveryBenchmarkMetricIsEmitted pins the result line to
// BENCHMARK.json: each run reports every metric named there, with the
// unit named there, and nothing else.
func TestEveryBenchmarkMetricIsEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	p := &pass{setups: []float64{0.01}, verdict: newVerdict(1), win: window{elapsed: time.Second}}
	compare := func(kind string, want []named, got map[string]metric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		for _, n := range want {
			m, ok := got[n.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not emitted", kind, n.Name)
			case m.Unit != n.Unit:
				t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", kind, n.Name, m.Unit, n.Unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics(p))
	compare("per_layer", spec.PerLayer, perLayerMetrics(layerDocs{}, snapshot{}, newVerdict(0), nil, inProcess{}))
}

func TestCorpusIsSeeded(t *testing.T) {
	for name, w := range workloads {
		a, err := makeCorpus(w.corpus, 3, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeCorpus(w.corpus, 3, 6, 0)
		c, _ := makeCorpus(w.corpus, 4, 6, 0)
		longer, _ := makeCorpus(w.corpus, 3, 8, 0)
		seen := map[string]bool{}
		for i := range a {
			if !bytes.Equal(a[i].line, b[i].line) || !bytes.Equal(a[i].line, longer[i].line) {
				t.Errorf("%s: document %d differs between two corpora of seed 3", name, i)
			}
			if bytes.Equal(a[i].line, c[i].line) {
				t.Errorf("%s: document %d is the same for seeds 3 and 4", name, i)
			}
			if seen[a[i].id] || seen[string(a[i].line)] {
				t.Errorf("%s: document %d repeats within a run", name, i)
			}
			seen[a[i].id], seen[string(a[i].line)] = true, true
			if a[i].doc == nil || a[i].truth == nil || len(a[i].truth.Annotations) == 0 {
				t.Errorf("%s: document %d kept no ground truth", name, i)
			}
		}
	}
}

func TestReferenceComparisonToleratesOnlyRounding(t *testing.T) {
	box := vs2.Rect{X: 40, Y: 355, W: 136.52830247774165, H: 106}
	want := []vs2.Extraction{{Entity: "BrokerPhone", Text: "614-555-5965", Box: box, BlockBox: box, Score: 1}}
	same := append([]vs2.Extraction(nil), want...)
	ulp := append([]vs2.Extraction(nil), want...)
	ulp[0].BlockBox.W = 136.52830247774168 // a template hit's remapped width
	moved := append([]vs2.Extraction(nil), want...)
	moved[0].Box.X = 41
	text := append([]vs2.Extraction(nil), want...)
	text[0].Text = "614-555-5966"
	for _, c := range []struct {
		name         string
		got          []vs2.Extraction
		exact, close bool
	}{
		{"identical", same, true, true},
		{"last-bit width", ulp, false, true},
		{"moved box", moved, false, false},
		{"other text", text, false, false},
		{"missing entity", nil, false, false},
	} {
		if exact, close := sameEntities(want, c.got); exact != c.exact || close != c.close {
			t.Errorf("%s: exact %v close %v, want %v %v", c.name, exact, close, c.exact, c.close)
		}
	}
}
