package vs2

// Tests for the durability layer's binding to the serving layer: the
// write-ahead contract of ExtractBatch(WithDurability), byte-identical
// replay across a journal reopen, and the transient/permanent split from
// the PR 3 retry classifier (permanent outcomes replay verbatim,
// transient failures re-extract).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"vs2/internal/extract"
	"vs2/internal/faults"
)

// durableServer builds a server over the event-poster task; a non-nil
// failSearch wraps the extractor so every pattern search fails with the
// injected (transient) backend error.
func durableServer(t *testing.T, m *Metrics, failSearch bool) *Server {
	t.Helper()
	task := EventPosterTask()
	cfg := Config{Task: task, Metrics: m}
	if failSearch {
		cfg.Extractor = &faults.Extractor{
			Inner:  extract.New(extract.Options{Weights: task.Weights}),
			Search: faults.Injection{Kind: faults.Error},
		}
	}
	p := NewPipeline(cfg)
	s := NewServer(p, ServerConfig{Workers: 2, QueueWait: -1, Queue: 16, Metrics: m, Retry: fastRetry(1)})
	t.Cleanup(func() { shutdownServer(t, s) })
	return s
}

// TestExtractBatchDurableResume runs a batch durably, reopens the
// journal as a crashed run would, and proves every document replays from
// the journal with its exact line — the pipeline never re-runs.
func TestExtractBatchDurableResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	docs := make([]*Document, 5)
	for i := range docs {
		docs[i] = namedDoc(fmt.Sprintf("durable-%d", i))
	}

	m1 := NewMetrics()
	j1, err := OpenJournal(path, JournalOptions{Metrics: m1})
	if err != nil {
		t.Fatal(err)
	}
	first := durableServer(t, m1, false).ExtractBatch(context.Background(), docs, WithDurability(j1))
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("doc %d: %v", i, r.Err)
		}
		if r.Replayed {
			t.Fatalf("doc %d replayed on a fresh journal", i)
		}
		if len(r.Line) == 0 {
			t.Fatalf("doc %d: durable batch produced no rendered line", i)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := NewMetrics()
	j2, err := OpenJournal(path, JournalOptions{Resume: true, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if comp := j2.Replayed(); comp != len(docs) {
		t.Fatalf("recovered %d completions, want %d", comp, len(docs))
	}
	// The resumed server's search backend always fails: if replay touched
	// the pipeline at all, every result would carry an error.
	second := durableServer(t, m2, true).ExtractBatch(context.Background(), docs, WithDurability(j2))
	for i, r := range second {
		if !r.Replayed {
			t.Fatalf("doc %d did not replay from the journal", i)
		}
		if r.Err != nil {
			t.Fatalf("doc %d: replay errored: %v", i, r.Err)
		}
		if !bytes.Equal(r.Line, first[i].Line) {
			t.Fatalf("doc %d: replayed line differs:\n  run:    %s\n  replay: %s", i, first[i].Line, r.Line)
		}
	}
}

// TestDurableTransientFailureReextracts: a transiently failed document
// is not journaled as complete, so a resumed run re-runs it — and, with
// the fault gone, succeeds.
func TestDurableTransientFailureReextracts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	d := namedDoc("flaky")

	m1 := NewMetrics()
	j1, err := OpenJournal(path, JournalOptions{Metrics: m1})
	if err != nil {
		t.Fatal(err)
	}
	broken := durableServer(t, m1, true) // every search fails transiently
	out := broken.ExtractBatch(context.Background(), []*Document{d}, WithDurability(j1))
	if out[0].Err == nil || !IsTransient(out[0].Err) {
		t.Fatalf("fault injection produced %v, want a transient error", out[0].Err)
	}
	if _, ok := j1.Completed("flaky"); ok {
		t.Fatal("transient failure was journaled as a completion")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := NewMetrics()
	j2, err := OpenJournal(path, JournalOptions{Resume: true, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	out = durableServer(t, m2, false).ExtractBatch(context.Background(), []*Document{d}, WithDurability(j2))
	if out[0].Replayed {
		t.Fatal("transient failure replayed instead of re-extracting")
	}
	if out[0].Err != nil {
		t.Fatalf("re-extraction failed: %v", out[0].Err)
	}
}

// TestDurablePermanentRejectionReplays: a permanent rejection (invalid
// document) is journaled like a completion, so resume replays the same
// error line without burning pipeline work on a document that can never
// succeed.
func TestDurablePermanentRejectionReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	d := &Document{ID: "hollow", Width: 100, Height: 100} // no elements: permanently invalid

	m1 := NewMetrics()
	j1, err := OpenJournal(path, JournalOptions{Metrics: m1})
	if err != nil {
		t.Fatal(err)
	}
	out := durableServer(t, m1, false).ExtractBatch(context.Background(), []*Document{d}, WithDurability(j1))
	if out[0].Err == nil || IsTransient(out[0].Err) {
		t.Fatalf("empty document produced %v, want a permanent rejection", out[0].Err)
	}
	firstLine := append([]byte(nil), out[0].Line...)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, JournalOptions{Resume: true, Metrics: NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	out = durableServer(t, NewMetrics(), false).ExtractBatch(context.Background(), []*Document{d}, WithDurability(j2))
	if !out[0].Replayed {
		t.Fatal("permanent rejection did not replay")
	}
	if !bytes.Equal(out[0].Line, firstLine) {
		t.Fatalf("replayed rejection line differs:\n  run:    %s\n  replay: %s", firstLine, out[0].Line)
	}
	if out[0].Status != StatusFailed {
		t.Fatalf("replayed rejection has status %d, want StatusFailed", out[0].Status)
	}
}

// TestRenderLineDeterministic: the rendered line of a degraded result
// carries no timestamps — rendering the same outcome twice must be
// byte-identical, the property the resume contract stands on.
func TestRenderLineDeterministic(t *testing.T) {
	r := BatchResult{
		Doc: namedDoc("det"),
		Result: &Result{
			Entities: []Extraction{{Entity: "title", Text: "X"}},
			Degraded: []Degradation{{Phase: PhaseSegment, Fallback: "whitespace", Cause: "boom"}},
		},
	}
	a, b := RenderLine(r), RenderLine(r)
	if !bytes.Equal(a, b) {
		t.Fatalf("RenderLine not deterministic:\n%s\n%s", a, b)
	}
	if !bytes.Contains(a, []byte("segment degraded to whitespace: boom")) {
		t.Fatalf("degradation rendering missing from %s", a)
	}
}

// TestRenderStatusAgreesWithLine: the outcome class rendered with a line
// is the class the line itself states, for every shape of result —
// including the render-error fallback, where a non-finite score turns a
// result with a nil Err into an error line — and parsing the line, as a
// journal replay does, gives the same class.
func TestRenderStatusAgreesWithLine(t *testing.T) {
	ents := []Extraction{{Entity: "title", Text: "X", Score: 0.5}}
	cases := []struct {
		name string
		r    BatchResult
		want Status
	}{
		{"entities", BatchResult{Doc: namedDoc("ok"), Result: &Result{Entities: ents}}, StatusOK},
		{"empty result", BatchResult{Doc: namedDoc("empty"), Result: &Result{}}, StatusOK},
		{"no result no error", BatchResult{Doc: namedDoc("bare")}, StatusOK},
		{"degraded", BatchResult{Doc: namedDoc("deg"), Result: &Result{
			Entities: ents,
			Degraded: []Degradation{{Phase: PhaseSegment, Fallback: "linear-segmentation", Cause: "boom"}},
		}}, StatusDegraded},
		{"error", BatchResult{Doc: namedDoc("err"), Err: &Error{Phase: PhaseShard, Stage: "route", Err: errors.New("down")}}, StatusFailed},
		{"error without document", BatchResult{Err: errors.New("undecodable")}, StatusFailed},
		{"render fallback", BatchResult{Doc: namedDoc("nan"), Result: &Result{
			Entities: []Extraction{{Entity: "title", Text: "X", Score: math.NaN()}},
			Degraded: []Degradation{{Phase: PhaseSegment, Fallback: "linear-segmentation"}},
		}}, StatusFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line, status := renderStatus(tc.r)
			if !bytes.Equal(line, RenderLine(tc.r)) {
				t.Fatalf("renderStatus line %s differs from RenderLine %s", line, RenderLine(tc.r))
			}
			if status != tc.want {
				t.Errorf("status %d, want %d for line %s", status, tc.want, line)
			}
			if got := lineStatus(line); got != status {
				t.Errorf("parsed status %d disagrees with rendered status %d for line %s", got, status, line)
			}
		})
	}
	if got := lineStatus([]byte("not json")); got != StatusFailed {
		t.Errorf("unparseable line: status %d, want StatusFailed", got)
	}
}
