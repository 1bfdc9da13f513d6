package main

// The traced run: the per-layer metrics. It drives the workload twice
// with the same seed — once untraced, once with the binaries' own
// tracing (-trace, -metrics) — and the CPU difference between the two is
// the tracing overhead. Per-layer times come from the span trees the
// binaries write plus the benchmark's own send and receive stamps; what
// no span covers (per-layer allocations, journal appends) is timed by
// calling the layers' public functions in this process over the same
// documents.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"vs2"
	"vs2/internal/extract"
	"vs2/internal/journal"
	"vs2/internal/obs"
	"vs2/internal/segment"
)

// span is the JSON form of one span tree node (obs.SpanSnapshot).
type span struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs"`
	Children   []span         `json:"children"`
}

func (s *span) end() time.Time { return s.Start.Add(time.Duration(s.DurationNS)) }

// self is the span's duration minus its children's.
func (s *span) self() int64 {
	d := s.DurationNS
	for _, c := range s.Children {
		d -= c.DurationNS
	}
	return max(d, 0)
}

// walk visits the tree depth-first.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for i := range s.Children {
		s.Children[i].walk(fn)
	}
}

// all returns every span named name in the tree.
func (s *span) all(name string) []*span {
	var out []*span
	s.walk(func(x *span) {
		if x.Name == name {
			out = append(out, x)
		}
	})
	return out
}

// child returns the direct child named name, or nil.
func (s *span) child(name string) *span {
	for i := range s.Children {
		if s.Children[i].Name == name {
			return &s.Children[i]
		}
	}
	return nil
}

func (s *span) attr(key string) float64 {
	v, _ := s.Attrs[key].(float64)
	return v
}

// accounted reports vs2trace's rule for one extract span: its phases'
// durations cover the span to within 10%.
func accounted(run *span) bool {
	var sum int64
	for _, c := range run.Children {
		sum += c.DurationNS
	}
	gap := run.DurationNS - sum
	return run.DurationNS > 0 && gap >= 0 && float64(gap) <= 0.10*float64(run.DurationNS)
}

// readTraces loads a -trace file (one span tree per line) keyed by
// document id: vs2d roots are "vs2d <id>".
func readTraces(path string) (map[string]*span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*span{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		// Worker trees that matched no front-end span stay top-level
		// ("worker <id>"); only document roots are keyed.
		if kind, id, ok := strings.Cut(s.Name, " "); ok && kind == "vs2d" {
			out[id] = &s
		}
	}
	return out, sc.Err()
}

// snapshot is the -metrics dump a binary prints on exit.
type snapshot struct {
	Counters map[string]float64 `json:"counters"`
}

// parseSnapshot finds the metrics dump in a binary's stderr.
func parseSnapshot(stderr string) (snapshot, error) {
	var s snapshot
	i := strings.LastIndex(stderr, "metrics:\n")
	if i < 0 {
		return s, fmt.Errorf("no metrics snapshot on stderr")
	}
	if err := json.NewDecoder(strings.NewReader(stderr[i+len("metrics:\n"):])).Decode(&s); err != nil {
		return s, fmt.Errorf("metrics snapshot: %w", err)
	}
	return s, nil
}

// sum adds a counter over all its label sets (vs2d labels each shard's
// series with shard="i").
func (s snapshot) sum(base string) float64 {
	total := 0.0
	for name, v := range s.Counters {
		if b, _ := obs.SplitName(name); b == base {
			total += v
		}
	}
	return total
}

// perShard returns a counter's value per shard label.
func (s snapshot) perShard(base string) []float64 {
	var out []float64
	for name, v := range s.Counters {
		b, labels := obs.SplitName(name)
		if b != base {
			continue
		}
		for _, l := range labels {
			if l.Key == "shard" {
				out = append(out, v)
			}
		}
	}
	return out
}

// layerDocs are the per-document quantities read off the span trees.
type layerDocs struct {
	docs                     int
	segNS, searchNS, selNS   int64
	segDocs, hits, probes    int
	probeNS                  int64
	candidates               float64
	accountedRuns, runs      int
	queueWait, route         []float64 // ms
	windowWait, merge, flush []float64 // ms
}

// fromSpans folds the traced documents' span trees. recvAt is when the
// client read each document's reply line.
func fromSpans(traces map[string]*span, items []item, idx []int, recvAt []time.Time) (layerDocs, error) {
	var l layerDocs
	for _, i := range idx {
		root, ok := traces[items[i].id]
		if !ok {
			return l, fmt.Errorf("no trace for %s", items[i].id)
		}
		l.docs++
		// A root whose worker subtree was never stitched in wraps the
		// queue and the extraction itself.
		host := root
		if ws := root.all("worker " + items[i].id); len(ws) > 0 {
			host = ws[0]
		}
		var extractNS int64
		seg := false
		for _, run := range host.all("extract") {
			extractNS += run.DurationNS
			l.runs++
			if accounted(run) {
				l.accountedRuns++
			}
			l.candidates += run.attr("candidates")
			for _, sp := range run.all("segment") {
				l.segNS += sp.DurationNS // split and merge are segmentation too
				seg = true
			}
			for _, sp := range run.all("search") {
				l.searchNS += sp.self()
			}
			for _, sp := range run.all("disambiguate") {
				l.selNS += sp.self()
			}
			for _, sp := range run.all("template") {
				l.probes++
				l.probeNS += sp.DurationNS
				if sp.Attrs["outcome"] == "hit" {
					l.hits++
				}
			}
		}
		if seg {
			l.segDocs++
		}
		l.queueWait = append(l.queueWait, float64(host.DurationNS-extractNS)/1e6)
		if host == root {
			continue
		}
		if route := root.child("route"); route != nil {
			l.route = append(l.route, float64(route.DurationNS-host.DurationNS)/1e6)
		}
		if adm := root.child("admission"); adm != nil {
			l.windowWait = append(l.windowWait, float64(adm.DurationNS)/1e6)
		}
		if m := root.child("merge"); m != nil {
			l.merge = append(l.merge, float64(m.DurationNS)/1e6)
			l.flush = append(l.flush, ms(recvAt[i].Sub(m.end())))
		}
	}
	return l, nil
}

// segProbe and extProbe are the in-process decorators around
// segment.New and extract.New: they weigh the heap allocation of every
// call the pipeline makes. (Time needs no probe: the spans carry it.)
type segProbe struct {
	inner vs2.SegmentBackend
	bytes int64
}

func (p *segProbe) SegmentContext(ctx context.Context, d *vs2.Document) (*vs2.Node, error) {
	b := heapAllocs()
	n, err := p.inner.SegmentContext(ctx, d)
	p.bytes += heapAllocs() - b
	return n, err
}

type extProbe struct {
	inner         vs2.ExtractBackend
	searchB, selB int64
}

func (p *extProbe) SearchContext(ctx context.Context, d *vs2.Document, blocks []*vs2.Node, sets []*vs2.PatternSet) (map[string][]vs2.Candidate, error) {
	b := heapAllocs()
	c, err := p.inner.SearchContext(ctx, d, blocks, sets)
	p.searchB += heapAllocs() - b
	return c, err
}

func (p *extProbe) SelectContext(ctx context.Context, d *vs2.Document, blocks []*vs2.Node, c map[string][]vs2.Candidate, sets []*vs2.PatternSet) ([]vs2.Extraction, error) {
	b := heapAllocs()
	e, err := p.inner.SelectContext(ctx, d, blocks, c, sets)
	p.selB += heapAllocs() - b
	return e, err
}

func (p *extProbe) SelectFirstMatch(d *vs2.Document, c map[string][]vs2.Candidate, sets []*vs2.PatternSet) []vs2.Extraction {
	return p.inner.SelectFirstMatch(d, c, sets)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the process's cumulative heap allocation in bytes; the
// probes run on one goroutine, so the delta around a call is that call's
// (and any goroutines it forks).
func heapAllocs() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// probeAllocs runs docs through an in-process pipeline built like the
// workload's binary, after warming it on (at most twice as many of) the
// documents before them, and returns per-document allocation in KiB for
// segment, search and select.
func probeAllocs(w *workload, warm, docs []item) (seg, search, sel float64, err error) {
	task, err := taskByName(w.task)
	if err != nil {
		return 0, 0, 0, err
	}
	sp := &segProbe{inner: segment.New(segment.Options{})}
	ep := &extProbe{inner: extract.New(extract.Options{Weights: task.Weights})}
	cfg := vs2.Config{Task: task, Segmenter: sp, Extractor: ep}
	if w.templateCap > 0 {
		cfg.Templates = vs2.NewTemplateCache(w.templateCap, 0, nil)
	}
	p := vs2.NewPipeline(cfg)
	for _, it := range warm[max(0, len(warm)-2*len(docs)):] {
		if _, err := p.ExtractContext(context.Background(), it.doc); err != nil {
			return 0, 0, 0, err
		}
	}
	*sp, *ep = segProbe{inner: sp.inner}, extProbe{inner: ep.inner}
	for _, it := range docs {
		if _, err := p.ExtractContext(context.Background(), it.doc); err != nil {
			return 0, 0, 0, err
		}
	}
	n := float64(max(len(docs), 1)) * 1024
	return float64(sp.bytes) / n, float64(ep.searchB) / n, float64(ep.selB) / n, nil
}

// probeJournal replays the records a shard worker journals for each
// document — admission, one record per degradation, the completion with
// the exact reply line — through internal/journal at vs2d's default
// policy (fsync always, compaction every 256 completions) and returns
// appends, fsyncs and milliseconds per document.
func probeJournal(dir string, v *verdict, items []item, idx []int) (appends, fsyncs, msPerDoc float64, err error) {
	path := filepath.Join(dir, "probe.wal")
	os.Remove(path)           //nolint:errcheck
	os.Remove(path + ".ckpt") //nolint:errcheck
	m := obs.NewRegistry()
	st, err := journal.OpenState(path, journal.StateOptions{
		Options:      journal.Options{Sync: journal.SyncAlways, Metrics: m},
		CompactEvery: 256,
		Owner:        "shard-0",
	})
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for k, i := range idx {
		key, line := items[i].id, v.replies[i].raw
		if err := st.Admit(key, k); err != nil {
			return 0, 0, 0, err
		}
		for _, note := range v.replies[i].Degraded {
			phase, rest, _ := strings.Cut(note, " degraded to ")
			fallback, _, _ := strings.Cut(rest, ":")
			if err := st.Degrade(key, phase, fallback); err != nil {
				return 0, 0, 0, err
			}
		}
		if err := st.Complete(key, line); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	if err := st.Close(); err != nil {
		return 0, 0, 0, err
	}
	snap := m.Snapshot()
	n := float64(max(len(idx), 1))
	return float64(snap.Counters["journal.appended"]) / n, float64(snap.Counters["journal.fsyncs"]) / n, ms(elapsed) / n, nil
}

// tracedRun is the run behind the per_layer metrics.
func tracedRun(w *workload, cfg runConfig) (result, map[string]any, error) {
	items, err := corpusFor(w, cfg)
	if err != nil {
		return result{}, nil, err
	}
	base, err := drive(w, cfg, items, false)
	if err != nil {
		return result{}, nil, err
	}
	traceFile := filepath.Join(cfg.work, "trace.jsonl")
	if err := os.Remove(traceFile); err != nil && !os.IsNotExist(err) {
		return result{}, nil, err
	}
	p, err := drive(w, cfg, items, false, "-metrics", "-trace", traceFile)
	if err != nil {
		return result{}, nil, err
	}
	traces, err := readTraces(traceFile)
	if err != nil {
		return result{}, nil, err
	}
	snap, err := parseSnapshot(p.stderr)
	if err != nil {
		return result{}, nil, err
	}
	var idx []int // counted documents that came back well
	for _, i := range p.win.counted {
		if p.verdict.ok[i] {
			idx = append(idx, i)
		}
	}
	l, err := fromSpans(traces, items, idx, p.recvAt)
	if err != nil {
		return result{}, nil, err
	}

	// In-process probes over the documents right after the warm-up.
	var in inProcess
	first := int(w.rate * w.warmSec)
	probe := items[first : first+w.probeDocs]
	if in.segKB, in.searchKB, in.selKB, err = probeAllocs(w, items[:first], probe); err != nil {
		return result{}, nil, err
	}
	if w.journaled {
		if in.appends, in.fsyncs, in.appendMS, err = probeJournal(cfg.work, p.verdict, items, idx[:min(len(idx), 300)]); err != nil {
			return result{}, nil, err
		}
	}
	docs := float64(max(len(p.win.counted), 1))
	baseDocs := float64(max(len(base.win.counted), 1))
	tracedCPU, untracedCPU := ms(p.win.cpu)/docs, ms(base.win.cpu)/baseDocs
	in.overhead = tracedCPU/untracedCPU - 1
	m := perLayerMetrics(l, snap, p.verdict, idx, in)

	res := result{
		Correct:   p.verdict.failed == 0 && base.verdict.failed == 0,
		Attempted: p.verdict.attempted + base.verdict.attempted,
		Failed:    p.verdict.failed + base.verdict.failed,
		Metrics:   m,
	}
	notes := runNotes(p)
	notes["untraced_cpu_ms_per_doc"] = untracedCPU
	notes["traced_cpu_ms_per_doc"] = tracedCPU
	notes["traced_docs"] = l.docs
	return res, notes, nil
}

// inProcess are the traced run's own measurements: the layer probes and
// the tracing overhead (traced CPU per document over untraced, minus 1).
type inProcess struct {
	segKB, searchKB, selKB    float64
	appends, fsyncs, appendMS float64
	overhead                  float64
}

// perLayerMetrics maps the span fold, the binaries' counters and the
// in-process probes onto the per_layer metric names. A layer that does no
// work on a workload reads 0 there.
func perLayerMetrics(l layerDocs, snap snapshot, v *verdict, idx []int, in inProcess) map[string]metric {
	docs := float64(max(l.docs, 1))
	runs := max(snap.sum("extract.runs"), 1)
	frac := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
	p50 := func(xs []float64) float64 { return median(xs) }
	qTail, _, _ := tail(l.queueWait)
	skew := 0.0
	if per := snap.perShard("extract.runs"); len(per) > 0 {
		hi, sum := 0.0, 0.0
		for _, x := range per {
			hi, sum = max(hi, x), sum+x
		}
		skew = hi / (sum / float64(len(per)))
	}
	return map[string]metric{
		"segment.self_ms_per_doc":   {float64(l.segNS) / 1e6 / docs, "ms"},
		"segment.doc_frac":          {frac(l.segDocs, l.docs), "frac"},
		"segment.seq_fallback_frac": {frac(seqFallbacks(v, idx), len(idx)), "frac"},
		"segment.alloc_kb_per_doc":  {in.segKB, "KiB"},

		"extract.search_self_ms_per_doc":  {float64(l.searchNS) / 1e6 / docs, "ms"},
		"extract.select_self_ms_per_doc":  {float64(l.selNS) / 1e6 / docs, "ms"},
		"extract.candidates_per_doc":      {l.candidates / docs, "count"},
		"extract.accounted_frac":          {frac(l.accountedRuns, l.runs), "frac"},
		"extract.search_alloc_kb_per_doc": {in.searchKB, "KiB"},
		"extract.select_alloc_kb_per_doc": {in.selKB, "KiB"},

		"template.hit_frac":          {frac(l.hits, l.probes), "frac"},
		"template.probe_us_per_doc":  {float64(l.probeNS) / 1e3 / docs, "us"},
		"template.inserts_per_doc":   {snap.sum("template.inserts") / runs, "count"},
		"template.evictions_per_doc": {snap.sum("template.evictions") / runs, "count"},

		"serve.queue_wait_ms_p50":  {p50(l.queueWait), "ms"},
		"serve.queue_wait_ms_tail": {qTail, "ms"},
		"serve.retries_per_doc":    {snap.sum("serve.retries") / runs, "count"},
		"serve.shed_frac":          {snap.sum("serve.shed") / runs, "frac"},

		"journal.appends_per_doc":   {in.appends, "count"},
		"journal.fsyncs_per_doc":    {in.fsyncs, "count"},
		"journal.append_ms_per_doc": {in.appendMS, "ms"},

		"shard.route_overhead_ms_p50": {p50(l.route), "ms"},
		"shard.skew":                  {skew, "ratio"},
		"shard.restarts":              {snap.sum("shard.restarts"), "count"},

		"vs2d.window_wait_ms_p50": {p50(l.windowWait), "ms"},
		"vs2d.merge_wait_ms_p50":  {p50(l.merge), "ms"},
		"vs2d.flush_wait_ms_p50":  {p50(l.flush), "ms"},

		"trace.overhead_frac": {in.overhead, "frac"},
	}
}
