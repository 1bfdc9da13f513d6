// Command e2ebench is the repository's end-to-end benchmark: it drives the
// real vs2d binary with seeded corpora from one client process, checks
// every reply, and prints one JSON result line. See README.md in this
// directory for the workloads, the metrics and how to run it; run.sh
// builds vs2d and this program from the checkout.
//
//	e2ebench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"vs2"
)

// workload is one traffic mix against vs2d -listen: an open loop at rate
// docs/s, round-robin over the client's connections, with warmSec of
// warm-up and up to cool of cool-down.
type workload struct {
	corpus corpus
	task   string
	args   []string // flags after -task; "STATE" is replaced by the run's state directory
	shards int      // shard children vs2d must start before it is ready

	rate    float64
	warmSec float64
	cool    time.Duration

	scored int // documents scored for entity_f1: a fixed prefix, so F1 depends on the seed alone
	refs   int // documents re-extracted in process and compared entity for entity
	setups int // extra start-ups per run behind the setup_s median

	// In-process layer probes of the traced run.
	templateCap int  // template cache of the in-process pipeline (0 = none)
	journaled   bool // the run journals (-state), so journal appends are timed
	probeDocs   int  // documents through the in-process probes
}

// connections is how many TCP connections the open-loop client spreads
// its documents over.
const connections = 2

// setupPause is the idle time before a run's timed start-ups.
const setupPause = time.Second

// workloads are open loops well below the fleet's capacity. A closed
// loop's throughput and latency are the host's speed: tax-forms, D1 forms
// streamed through vs2serve, moved 20-92% between seeds as host steal
// swung between 5% and 43%, and was dropped.
var workloads = map[string]*workload{
	// Segmentation dominates a poster, and an online caller sees latency:
	// an open loop near a quarter of the fleet's capacity. Every poster
	// misses the small template cache, inserts and evicts.
	"posters-online": {
		corpus: eventPosters, task: "events", shards: 2,
		args: []string{"-listen", "127.0.0.1:0", "-shards", "2", "-template-cache", "16"},
		rate: 25, warmSec: 2, cool: 12 * time.Second,
		scored: 550, refs: 20, setups: 20, templateCap: 16, probeDocs: 40,
	},
	// Recurring layouts: after warm-up nearly every document is a template
	// hit, so the journal, the shard pipes and the front-end merge
	// dominate. An open loop at about a sixth of the fleet's capacity:
	// as a closed loop its throughput and latency moved 25% between
	// seeds with the host's speed, and at 500 docs/s its latency tail
	// moved 19-24% with the host's steal.
	"template-batch": {
		corpus: templateDocs, task: "realestate", shards: 2,
		args: []string{"-listen", "127.0.0.1:0", "-shards", "2", "-template-cache", "64", "-state", "STATE"},
		rate: 250, warmSec: 2, cool: 12 * time.Second,
		scored: 2000, refs: 50, setups: 20, templateCap: 64, journaled: true, probeDocs: 400,
	},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		bin      = fs.String("bin", "", "directory holding the vs2d binary")
		work     = fs.String("work", "", "scratch directory for journals and traces")
		name     = fs.String("workload", "", "workload: posters-online | template-batch")
		seed     = fs.Int64("seed", 1, "corpus seed")
		seconds  = fs.Float64("seconds", 10, "length of the timed window")
		traceRun = fs.Int("trace", 0, "1: the traced per-layer run instead of the end-to-end one")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need -bin, -work, -seconds > 0 and -workload (one of %v)\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	cfg := runConfig{bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}

	// A run must end within 180s: a hung system under test fails the
	// run rather than stalling it.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170s")
		killAll()
		os.Exit(1)
	})
	defer watchdog.Stop()

	steal0, total0 := stealTicks()
	var res result
	var notes map[string]any
	var err error
	if *traceRun == 1 {
		res, notes, err = tracedRun(w, cfg)
	} else {
		res, notes, err = endToEndRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		notes["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s is not finite\n", k)
			m.Value = 0
			res.Metrics[k] = m
			res.Correct = false
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"annotations": notes}); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runConfig is what every run shares.
type runConfig struct {
	bin, work string
	seed      int64
	seconds   time.Duration
}

// live tracks the running instance so the watchdog can kill it.
var live *sut

func killAll() {
	if live != nil {
		live.kill()
	}
}

// pass is one workload driven through one instance of the system under
// test: the measured window, the checked replies, and the instance's
// stderr (which carries the -metrics dump in a traced pass).
type pass struct {
	setups  []float64 // seconds, every start-up of the run
	win     window
	verdict *verdict
	f1      float64
	recvAt  []time.Time // by document index
	stderr  string
}

// drive runs the workload's load over items and checks the replies. With
// timeSetup it first starts and stops the binary w.setups times, for
// setup_s; traced adds -metrics and -trace to the measured instance.
func drive(w *workload, cfg runConfig, items []item, timeSetup bool, traced ...string) (*pass, error) {
	state := filepath.Join(cfg.work, "state")
	args := []string{"-task", w.task}
	for _, a := range w.args {
		if a == "STATE" {
			a = state
		}
		args = append(args, a)
	}
	bin := filepath.Join(cfg.bin, "vs2d")
	p := &pass{}
	// startUp execs the binary and waits until it is ready, from the same
	// empty state directory every time.
	startUp := func(args []string) (*sut, error) {
		if err := os.RemoveAll(state); err != nil {
			return nil, err
		}
		s, err := startSUT(bin, args, w.shards)
		if err != nil {
			return nil, err
		}
		live = s
		p.setups = append(p.setups, s.ready.Seconds())
		return s, nil
	}
	n := 0
	if timeSetup {
		n = w.setups
		// Right after a burst of CPU, such as generating the corpus, the
		// start-ups of a shared host ran 15-40% slower; a pause lets its
		// scheduler settle first.
		runtime.GC()
		time.Sleep(setupPause)
	}
	// The benchmark's own collector stays out of the start-ups it times.
	gc := debug.SetGCPercent(-1)
	var s *sut
	var err error
	for ; n > 0 && err == nil; n-- {
		if s, err = startUp(args); err != nil {
			break
		}
		// vs2d announces its listener just before it handles SIGTERM, so
		// a stop this soon after start-up can end it by the signal's
		// default action; any other exit error is a failure.
		if serr := s.stop(30 * time.Second); serr != nil && !killedBy(serr, syscall.SIGTERM) {
			err = fmt.Errorf("vs2d exit after a start-up: %w; stderr:\n%s", serr, tailOf(s.stderr.String()))
		}
		live = nil
	}
	if err == nil {
		s, err = startUp(append(append([]string(nil), args...), traced...))
	}
	debug.SetGCPercent(gc)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	warm := int(w.rate * w.warmSec)
	timed := int(w.rate * cfg.seconds.Seconds())
	r, err := runOpen(s, items, w.rate, connections, warm, timed, w.cool)
	if err == nil {
		p.win, p.recvAt = r.win, r.recvAt
		p.verdict = checkOpen(items, r, connections)
	}
	if serr := s.stop(60 * time.Second); err == nil && serr != nil {
		err = fmt.Errorf("vs2d exit: %w; stderr:\n%s", serr, tailOf(s.stderr.String()))
	}
	live = nil
	if err != nil {
		return nil, err
	}
	loaded := time.Since(t)
	su := sorted(p.setups)
	logf("%d start-ups, min %.2fms, median %.2fms, max %.2fms; load and drain in %.1fs",
		len(su), 1e3*su[0], 1e3*median(su), 1e3*su[len(su)-1], loaded.Seconds())
	p.stderr = s.stderr.String()
	for _, msg := range p.verdict.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check:", msg)
	}
	if p.f1, err = entityF1(items, p.verdict, w.scoredFor(cfg.seconds)); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: entity_f1:", err)
	}
	return p, nil
}

func logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", a...)
}

func tailOf(s string) string {
	if len(s) > 2000 {
		return s[len(s)-2000:]
	}
	return s
}

// scoredFor is the entity_f1 prefix: every document in it is answered
// in every run of the given length.
func (w *workload) scoredFor(seconds time.Duration) int {
	return min(w.scored, int(w.rate*(w.warmSec+seconds.Seconds())))
}

// poolSize is how many documents one run may send.
func (w *workload) poolSize(seconds time.Duration) int {
	return int(w.rate*(w.warmSec+seconds.Seconds()+w.cool.Seconds())) + 1
}

// corpusFor generates the run's documents before anything is timed.
func corpusFor(w *workload, cfg runConfig) ([]item, error) {
	keep := max(w.scored, w.refs, w.probeDocs+int(w.rate*w.warmSec))
	return makeCorpus(w.corpus, cfg.seed, w.poolSize(cfg.seconds), keep)
}

// endToEndRun is the untraced run behind the end_to_end metrics.
func endToEndRun(w *workload, cfg runConfig) (result, map[string]any, error) {
	t := time.Now()
	items, err := corpusFor(w, cfg)
	if err != nil {
		return result{}, nil, err
	}
	logf("generated %d documents in %.1fs", len(items), time.Since(t).Seconds())
	p, err := drive(w, cfg, items, true)
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Attempted: p.verdict.attempted,
		Failed:    p.verdict.failed,
		Metrics:   endToEndMetrics(p),
	}
	task, _ := taskByName(w.task)
	res.Correct = p.verdict.failed == 0
	t = time.Now()
	rounded, err := checkReference(items, p.verdict, task, w.refs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: reference:", err)
		res.Correct = false
	}
	logf("reference check of %d documents in %.1fs", w.refs, time.Since(t).Seconds())
	notes := runNotes(p)
	notes["reference_docs"] = w.refs
	notes["reference_rounding_diffs"] = rounded
	return res, notes, nil
}

// endToEndMetrics are the user-visible metrics of one pass; every
// workload reports all of them.
func endToEndMetrics(p *pass) map[string]metric {
	ok := 0
	for _, i := range p.win.counted {
		if p.verdict.ok[i] {
			ok++
		}
	}
	docs := float64(max(len(p.win.counted), 1))
	tailV, _, _, _ := stretchTail(p.win.latency)
	return map[string]metric{
		"setup_s":           {median(p.setups), "s"},
		"throughput_docs_s": {float64(ok) / p.win.elapsed.Seconds(), "docs/s"},
		"latency_p50_ms":    {median(p.win.latency), "ms"},
		"latency_tail_ms":   {tailV, "ms"},
		"cpu_ms_per_doc":    {ms(p.win.cpu) / docs, "ms"},
		"peak_rss_mb":       {p.win.peakRSS, "MiB"},
		"entity_f1":         {p.f1, "score"},
	}
}

// sloLimit is the online latency limit behind the slo_frac annotation.
const sloLimit = 250 * time.Millisecond

// runNotes are recorded next to the metrics and never gated on.
func runNotes(p *pass) map[string]any {
	_, pct, n, stretches := stretchTail(p.win.latency)
	windowTail, _, _ := tail(p.win.latency)
	within := 0
	for k, i := range p.win.counted {
		if p.verdict.ok[i] && p.win.latency[k] <= ms(sloLimit) {
			within++
		}
	}
	notes := map[string]any{
		"latency_tail_pct":       pct,
		"latency_samples":        n,
		"latency_tail_stretches": stretches,
		"latency_tail_window_ms": windowTail,
		"docs_sent":              p.verdict.attempted,
		"error_frac":             float64(p.verdict.failed) / float64(max(p.verdict.attempted, 1)),
		"slo_frac":               float64(within) / float64(max(len(p.win.counted), 1)),
		"slo_limit_ms":           ms(sloLimit),
		"seq_fallback_docs":      seqFallbacks(p.verdict, p.win.counted),
		"setup_samples":          len(p.setups),
		"window_s":               p.win.elapsed.Seconds(),
		"window_docs":            len(p.win.counted),
	}
	if len(p.win.lateness) > 0 {
		notes["send_lateness_ms_p50"] = median(p.win.lateness)
		late, _, _ := tail(p.win.lateness)
		notes["send_lateness_ms_tail"] = late
		notes["send_lateness_ms_max"] = sorted(p.win.lateness)[len(p.win.lateness)-1]
	}
	return notes
}

// tasks mirrors the binaries' -task names.
func taskByName(name string) (vs2.Task, error) {
	switch name {
	case "events":
		return vs2.EventPosterTask(), nil
	case "realestate":
		return vs2.RealEstateTask(), nil
	}
	return vs2.Task{}, errors.New("unknown task " + name)
}
