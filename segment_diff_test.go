package vs2

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"vs2/internal/obs"
	"vs2/internal/segment"
)

// This file is the differential harness for the parallel segmenter.
// Determinism is a hard contract: for any input and any worker count,
// the branch-parallel recursion must produce a layout tree
// element-for-element identical to the sequential one, and the
// optimised seam search must reproduce the preserved seed
// implementation (segment.NewReference) exactly. The property-style
// generator below is seeded through rand.go — no wall-clock anywhere —
// so every failure replays from its seed. `make race` runs this suite
// under the race detector.

// diffVocab feeds the generator; topical clusters keep the semantic
// merge phase active rather than degenerate.
var diffVocab = []string{
	"invoice", "total", "amount", "due", "date", "tax", "income", "wages",
	"name", "address", "city", "phone", "contact", "email", "agent",
	"bedroom", "bath", "price", "offer", "open", "house", "concert",
	"live", "music", "doors", "ticket", "free", "admission", "hall",
}

// randomLayoutDoc builds a randomized but structurally plausible page
// from a seed: banded rows of word boxes with jittered gaps, column
// gutters, font-size and colour variation, the occasional image block,
// and (for odd seeds) a few degenerate zero-area elements of the kind
// OCR noise produces.
func randomLayoutDoc(seed int64) *Document {
	rng := newRand(seed)
	w := 200 + float64(rng.Intn(500))
	h := 250 + float64(rng.Intn(600))
	d := &Document{
		ID:     fmt.Sprintf("diff-%d", seed),
		Width:  w,
		Height: h,
	}
	add := func(e Element) {
		e.ID = len(d.Elements)
		d.Elements = append(d.Elements, e)
	}
	colors := []RGB{{R: 20, G: 20, B: 20}, {R: 200, G: 30, B: 30}, {R: 30, G: 60, B: 200}}
	nBands := 1 + rng.Intn(5)
	y := 10.0 + float64(rng.Intn(20))
	for b := 0; b < nBands && y < h-30; b++ {
		bandGap := 8 + float64(rng.Intn(40))
		nRows := 1 + rng.Intn(4)
		font := 6 + float64(rng.Intn(10))
		color := colors[rng.Intn(len(colors))]
		cols := 1 + rng.Intn(3)
		colW := (w - 20) / float64(cols)
		for r := 0; r < nRows && y < h-20; r++ {
			line := b*10 + r
			for c := 0; c < cols; c++ {
				x := 10 + float64(c)*colW + float64(rng.Intn(8))
				nWords := 1 + rng.Intn(4)
				for wd := 0; wd < nWords; wd++ {
					word := diffVocab[rng.Intn(len(diffVocab))]
					ww := float64(len(word)) * font * 0.55
					if x+ww > 10+float64(c+1)*colW-4 {
						break
					}
					add(Element{
						Kind:     TextElement,
						Text:     word,
						Box:      Rect{X: x, Y: y, W: ww, H: font},
						Color:    color,
						FontSize: font,
						Line:     line,
					})
					x += ww + font*0.4
				}
			}
			y += font + 2 + float64(rng.Intn(4))
		}
		if rng.Intn(4) == 0 {
			iw := 30 + float64(rng.Intn(60))
			add(Element{
				Kind:      ImageElement,
				Box:       Rect{X: 10 + float64(rng.Intn(int(w)-50)), Y: y, W: iw, H: iw * 0.6},
				Color:     RGB{R: 120, G: 160, B: 120},
				Line:      -1,
				ImageData: "photo",
			})
			y += iw*0.6 + 6
		}
		y += bandGap
	}
	if seed%2 == 1 {
		// Degenerate geometry: zero-width, zero-height and point-sized
		// boxes, at edges included — the fixed seam-edge crash class.
		add(Element{Kind: TextElement, Text: "x", Box: Rect{X: 0, Y: 0, W: 0, H: 8}, Line: -1})
		add(Element{Kind: TextElement, Text: "y", Box: Rect{X: w - 1, Y: h - 1, W: 6, H: 0}, Line: -1})
		add(Element{Kind: TextElement, Text: "z", Box: Rect{X: w / 2, Y: h / 2, W: 0, H: 0}, Line: -1})
	}
	return d
}

// treeFingerprint renders everything the determinism contract covers:
// the full recursive structure, each node's box, and each node's
// ordered element list (Dump includes per-node element IDs and boxes).
func treeFingerprint(t *testing.T, d *Document, root *Node) string {
	t.Helper()
	if root == nil {
		t.Fatal("nil layout tree")
	}
	return root.Dump(d)
}

func TestDifferentialParallelMatchesSequential(t *testing.T) {
	seeds, posters := 48, 8
	if testing.Short() {
		seeds, posters = 12, 2
	}
	var docs []*Document
	for i := 0; i < seeds; i++ {
		docs = append(docs, randomLayoutDoc(int64(i+1)))
	}
	// OCR'd event posters, as the benchmark's posters-online corpus
	// builds them: no layout repeats, and OCR jitter puts element edges
	// on fractional coordinates.
	for i, l := range GenerateEventPosters(posters, 29) {
		docs = append(docs, OCRNoise(l, 29+int64(i)).Doc)
	}
	seq := segment.New(segment.Options{Parallel: 1})
	par := segment.New(segment.Options{Parallel: 8})
	ref := segment.NewReference(segment.Options{})
	for _, d := range docs {
		seqFP := treeFingerprint(t, d, seq.Segment(d))
		if refFP := treeFingerprint(t, d, ref.Segment(d)); seqFP != refFP {
			t.Fatalf("%s: optimised sequential tree diverges from reference (seed implementation)\n--- optimised ---\n%s\n--- reference ---\n%s", d.ID, seqFP, refFP)
		}
		// The parallel segmenter races goroutines against a shared gate;
		// repeat to give nondeterministic schedules a chance to differ.
		for rep := 0; rep < 3; rep++ {
			parFP := treeFingerprint(t, d, par.Segment(d))
			if parFP != seqFP {
				t.Fatalf("%s rep %d: parallel tree diverges from sequential\n--- parallel ---\n%s\n--- sequential ---\n%s", d.ID, rep, parFP, seqFP)
			}
		}
	}
}

// TestDifferentialAblationModes pins the contract on the non-default
// segmenter configurations too: under every ablation switch the
// sequential tree equals the reference's with the same options, and the
// parallel tree equals the sequential one.
func TestDifferentialAblationModes(t *testing.T) {
	opts := []segment.Options{
		{StraightCutsOnly: true},
		{DisableClustering: true},
		{DisableMerging: true},
		{GridScale: 2, MaxDepth: 4},
	}
	// The raster reference takes seconds per document under the race
	// detector, so -short checks it on the first document only.
	refDocs := 8
	if testing.Short() {
		refDocs = 1
	}
	for i := 0; i < 8; i++ {
		d := randomLayoutDoc(int64(100 + i))
		for oi, o := range opts {
			oseq, opar := o, o
			oseq.Parallel, opar.Parallel = 1, 6
			seqFP := treeFingerprint(t, d, segment.New(oseq).Segment(d))
			if i < refDocs {
				if refFP := treeFingerprint(t, d, segment.NewReference(o).Segment(d)); seqFP != refFP {
					t.Fatalf("seed %d opts[%d]: sequential tree diverges from reference", 100+i, oi)
				}
			}
			parFP := treeFingerprint(t, d, segment.New(opar).Segment(d))
			if seqFP != parFP {
				t.Fatalf("seed %d opts[%d]: parallel tree diverges from sequential", 100+i, oi)
			}
		}
	}
}

// TestDifferentialPipelineReports runs the full extraction pipeline —
// segmentation, search, disambiguation, explanation — at both worker
// counts over the example corpora and asserts identical entities,
// identical layout trees, and identical Result.Report candidate sets.
func TestDifferentialPipelineReports(t *testing.T) {
	corpora := []struct {
		name string
		task Task
		gen  func(n int, seed int64) []Labeled
	}{
		{"taxforms", NISTTaxTask(), GenerateTaxForms},
		{"eventposters", EventPosterTask(), GenerateEventPosters},
		{"realestate", RealEstateTask(), GenerateRealEstateFlyers},
	}
	n := 3
	if testing.Short() {
		n = 1
	}
	for _, c := range corpora {
		seq := NewPipeline(Config{Task: c.task, Explain: true, Segment: segment.Options{Parallel: 1}})
		par := NewPipeline(Config{Task: c.task, Explain: true, Segment: segment.Options{Parallel: 8}})
		for _, l := range c.gen(n, 23) {
			sres, serr := seq.ExtractContext(context.Background(), l.Doc)
			pres, perr := par.ExtractContext(context.Background(), l.Doc)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%s/%s: error mismatch: sequential=%v parallel=%v", c.name, l.Doc.ID, serr, perr)
			}
			if serr != nil {
				continue
			}
			if !reflect.DeepEqual(sres.Entities, pres.Entities) {
				t.Fatalf("%s/%s: extracted entities differ between worker counts", c.name, l.Doc.ID)
			}
			if sres.Tree.Dump(l.Doc) != pres.Tree.Dump(l.Doc) {
				t.Fatalf("%s/%s: layout trees differ between worker counts", c.name, l.Doc.ID)
			}
			// Compare the explainable reports' candidate sets; Degraded is
			// excluded because its records carry wall-clock timestamps.
			sj, err := json.Marshal(sres.Report.Entities)
			if err != nil {
				t.Fatal(err)
			}
			pj, err := json.Marshal(pres.Report.Entities)
			if err != nil {
				t.Fatal(err)
			}
			if string(sj) != string(pj) {
				t.Fatalf("%s/%s: Report candidate sets differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", c.name, l.Doc.ID, sj, pj)
			}
		}
	}
}

// TestSegmentStatsAndFallbackDegradation covers the pool-exhaustion
// contract: a segmenter whose gate is starved by a hostile sibling run
// still produces the sequential tree and reports the starvation through
// segment.Stats; through the pipeline the reply records no degradation
// for it, while the segment span and the segment.forks counter show
// it; and a healthy wide run forks onto the pool.
func TestSegmentStatsAndFallbackDegradation(t *testing.T) {
	d := GenerateTaxForms(1, 9)[0].Doc

	s := segment.New(segment.Options{Parallel: 2})
	// Starve the gate: its single extra slot is held for the whole run.
	if !s.StealGateForTest() {
		t.Fatal("could not occupy the gate")
	}
	ctx, st := segment.WithStats(context.Background())
	tree, err := s.SegmentContext(ctx, d)
	s.ReleaseGateForTest()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Spawned.Load(); got != 0 {
		t.Fatalf("Spawned = %d on a starved gate, want 0", got)
	}
	if got := st.Inline.Load(); got == 0 {
		t.Fatal("Inline = 0: starved forks were not recorded")
	}
	want := segment.New(segment.Options{Parallel: 1}).Segment(d)
	if tree.Dump(d) != want.Dump(d) {
		t.Fatal("starved parallel run produced a different tree than sequential")
	}

	if !s.StealGateForTest() {
		t.Fatal("could not occupy the gate")
	}
	m := NewMetrics()
	tr := NewTrace("starved")
	res, err := NewPipeline(Config{Task: NISTTaxTask(), Segmenter: s, Metrics: m}).
		ExtractContext(WithTrace(context.Background(), tr), d)
	s.ReleaseGateForTest()
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 {
		t.Fatalf("a starved pool degraded the reply: %v", res.Degraded)
	}
	if res.Tree.Dump(d) != want.Dump(d) {
		t.Fatal("starved pipeline run produced a different tree than sequential")
	}
	snap := m.Snapshot()
	if got := snap.Counters[obs.Name("segment.forks", obs.L("ran", "spawned"))]; got != 0 {
		t.Fatalf(`segment.forks{ran="spawned"} = %d on a starved gate, want 0`, got)
	}
	if got := snap.Counters[obs.Name("segment.forks", obs.L("ran", "inline"))]; got == 0 {
		t.Fatal(`segment.forks{ran="inline"} = 0 on a starved gate`)
	}
	run := findChild(tr.Snapshot(), "extract")
	if run == nil {
		t.Fatal("trace has no extract span")
	}
	seg := findChild(*run, "segment")
	if seg == nil || seg.Attrs["branch_inline"] == nil || seg.Attrs["branch_spawned"] != int64(0) {
		t.Fatalf("segment span lacks the fork attributes of a starved run: %+v", seg)
	}

	// A healthy wide run forks onto the pool, and its merge span shows
	// the centroid cache at work.
	wide := NewTrace("wide")
	ctx2, st2 := segment.WithStats(obs.WithSpan(context.Background(), wide.Root()))
	if _, err := segment.New(segment.Options{Parallel: 8}).SegmentContext(ctx2, d); err != nil {
		t.Fatal(err)
	}
	wide.Finish()
	if got := st2.Spawned.Load(); got == 0 {
		t.Fatal("Spawned = 0 on a healthy wide run")
	}
	merge := findChild(wide.Snapshot(), "merge")
	if merge == nil {
		t.Fatal("wide run has no merge span")
	}
	if hits, _ := merge.Attrs["embed_cache_hits"].(int64); hits == 0 {
		t.Fatalf("centroid cache recorded no hits across merge passes: %+v", merge.Attrs)
	}
}
