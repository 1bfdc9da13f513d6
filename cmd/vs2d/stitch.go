package main

// Cross-process trace stitching. The front end opens one trace per
// document (admission → route → merge); the route span carries a unique
// span_id attribute whose value travels to the worker as the request
// frame's Span. The worker's extraction tree comes back inside the
// reply frame itself, with that ID as its parent_span attribute — a
// document answered is a tree shipped, even if the worker dies a moment
// later — and the stitcher grafts it under
// the matching route span — one tree covering admission, routing, the
// shard's segment/search/disambiguate phases, and the ordered merge,
// even when the answering child is a restarted incarnation (the
// supervisor's shard/epoch stamp rides on every grafted root).
//
// Worker trees that match no front-end span are written as their own
// top-level lines, parent_span still attached: vs2trace diagnoses them
// as orphans, which is exactly what a stitching bug should look like.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"vs2/internal/obs"
	"vs2/internal/shard"
)

// docTrace is one document's front-end trace while it is live.
type docTrace struct {
	st        *stitcher
	tr        *obs.Trace
	admission *obs.Span
	route     *obs.Span
	merge     *obs.Span
	spanID    string
}

// stitcher accumulates front-end document traces and worker span trees
// for one run, grafting them together at write time (after the fleet
// has drained; each worker tree was filed before its reply was).
type stitcher struct {
	mu      sync.Mutex
	seq     int
	docs    []obs.SpanSnapshot            // finished front-end trees, emission order
	workers map[string][]obs.SpanSnapshot // parent_span -> worker trees
	orphans []obs.SpanSnapshot            // worker trees that arrived unparented
}

func newStitcher() *stitcher {
	return &stitcher{workers: map[string][]obs.SpanSnapshot{}}
}

// begin opens a document's trace at admission (the document has been
// decoded and is entering the scatter window) and returns the handle
// plus the span ID to send with the request.
func (st *stitcher) begin(key string) *docTrace {
	st.mu.Lock()
	st.seq++
	id := fmt.Sprintf("fe-%d", st.seq)
	st.mu.Unlock()
	tr := obs.New("vs2d " + key)
	root := tr.Root()
	root.SetAttr("key", key)
	dt := &docTrace{st: st, tr: tr, spanID: id}
	dt.admission = root.Child("admission")
	return dt
}

// routed marks the handoff to the supervisor: admission ends, the route
// span (the graft point) opens. Nil-safe.
func (dt *docTrace) routed() {
	if dt == nil {
		return
	}
	dt.admission.End()
	dt.route = dt.tr.Root().Child("route")
	dt.route.SetAttr("span_id", dt.spanID)
}

// answered marks the shard's response arriving: route ends, the ordered
// merge wait begins. Nil-safe.
func (dt *docTrace) answered() {
	if dt == nil {
		return
	}
	dt.route.End()
	dt.merge = dt.tr.Root().Child("merge")
}

// emitted marks the document's line leaving the process in input order;
// the finished tree joins the stitch set. Nil-safe.
func (dt *docTrace) emitted() {
	if dt == nil {
		return
	}
	dt.merge.End()
	dt.tr.Finish()
	snap := dt.tr.Snapshot()
	dt.st.mu.Lock()
	dt.st.docs = append(dt.st.docs, snap)
	dt.st.mu.Unlock()
}

// onTelemetry files a shipment's span trees under their parent IDs,
// stamping the supervisor's authoritative shard and epoch on each root —
// a span from epoch 2 answering a document first sent to epoch 1 is the
// retry surviving a worker restart, visibly so.
func (st *stitcher) onTelemetry(t shard.Telemetry) {
	if len(t.Spans) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sp := range t.Spans {
		if sp.Attrs == nil {
			sp.Attrs = map[string]any{}
		}
		sp.Attrs["shard"] = t.Shard
		sp.Attrs["epoch"] = t.Epoch
		parent, _ := sp.Attrs["parent_span"].(string)
		if parent == "" {
			st.orphans = append(st.orphans, sp)
			continue
		}
		st.workers[parent] = append(st.workers[parent], sp)
	}
}

// writeFile grafts and writes the stitched stream: one JSONL tree per
// document, followed by any worker trees that matched nothing (left as
// top-level orphans for vs2trace to flag). Call only after the fleet
// has drained, when no reply can still bring a tree.
func (st *stitcher) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, doc := range st.docs {
		doc = st.graft(doc)
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	for _, trees := range st.workers { // consumed entries were deleted by graft
		for _, sp := range trees {
			if err := enc.Encode(sp); err != nil {
				return err
			}
		}
	}
	for _, sp := range st.orphans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return f.Sync()
}

// graft attaches every worker tree whose parent_span matches a span_id
// in this document's tree, recursively. The document's root duration
// already covers the workers' wall clock (the route span waited on
// them), so grafting changes structure, not accounting.
func (st *stitcher) graft(sp obs.SpanSnapshot) obs.SpanSnapshot {
	if id, ok := sp.Attrs["span_id"].(string); ok {
		if trees, ok := st.workers[id]; ok {
			sp.Children = append(append([]obs.SpanSnapshot(nil), sp.Children...), trees...)
			delete(st.workers, id)
		}
	}
	for i := range sp.Children {
		sp.Children[i] = st.graft(sp.Children[i])
	}
	return sp
}

// unstitched counts worker trees still waiting for a parent, for the
// end-of-run diagnostic.
func (st *stitcher) unstitched() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.orphans)
	for _, trees := range st.workers {
		n += len(trees)
	}
	return n
}
