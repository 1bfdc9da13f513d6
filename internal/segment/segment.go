// Package segment implements VS2-Segment, the hierarchical page-segmentation
// algorithm of Section 5.1: the paper's first technical contribution. A
// visually rich document is recursively decomposed into visually isolated
// but semantically coherent areas — logical blocks — recorded as the leaves
// of the layout tree of Section 4.2.
//
// Each iteration of the recursion, applied to one visual area:
//
//  1. Explicit visual delimiters: the area's whitespace seams — chains
//     of valid horizontal/vertical cuts on the §5.1.1 raster — are
//     grouped into separators by the element partition they induce;
//     Algorithm 1 (algorithm1.go) decides which are true delimiters. The
//     area splits along them. The search (seam.go) works on the
//     stretches between element edges instead of a per-node raster;
//     the raster itself (package grid) is the reference oracle's
//     (NewReference, reference.go).
//  2. Implicit visual modifiers: when no delimiter exists, the atomic
//     elements are clustered on the low-level visual features of Table 1
//     (cluster.go) — proximity, alignment, colour, font size and angular
//     position — seeded from a 2×2 grid of medoids.
//  3. Semantic merging: because steps 1–2 over-segment (the paper's main
//     reported failure mode), sibling areas whose semantic contribution
//     (Eq. 1) exceeds the depth-dependent threshold θ_h are merged back
//     together (merge.go).
//
// The resulting leaves are the logical blocks consumed by VS2-Select.
//
// Because sibling areas partition their parent's atomic elements, the
// recursion's subproblems are independent; the segmenter exploits this
// by forking child subtrees onto a bounded worker pool (Options.Parallel)
// while guaranteeing output identical to the sequential recursion.
package segment

import (
	"context"
	"sync"

	"vs2/internal/doc"
	"vs2/internal/embed"
	"vs2/internal/geom"
	"vs2/internal/grid"
	"vs2/internal/obs"
	"vs2/internal/serve"
)

// Options configures the segmenter; zero values select paper defaults.
// The boolean switches exist for the Table 9 ablation study.
type Options struct {
	// GridScale is the rasterisation resolution in cells per page unit.
	GridScale float64
	// MaxDepth bounds the recursion (default 10).
	MaxDepth int
	// MinElements is the smallest element count worth splitting (default 2).
	MinElements int
	// DisableClustering turns off the visual-feature clustering step
	// (ablation row A2 of Table 9 removes visual features).
	DisableClustering bool
	// DisableMerging turns off semantic merging (ablation row A1).
	DisableMerging bool
	// StraightCutsOnly restricts cuts to straight projection lines (no ±1
	// drift), degrading the cut model to XY-cut behaviour; a DESIGN.md
	// ablation, not part of the paper's Table 9.
	StraightCutsOnly bool
	// Embedder supplies word vectors for semantic merging; nil selects the
	// built-in lexicon embedder.
	Embedder embed.Embedder
	// Parallel bounds the branch-parallel recursion: the maximum number
	// of goroutines one Segmenter dedicates to subtree splits and seam
	// searches, shared across concurrent Segment calls through a single
	// gate. 0 selects the serving layer's pool size, min(GOMAXPROCS, 8);
	// 1 or below runs strictly sequentially. The output is
	// element-for-element identical at every width — determinism is a
	// contract, enforced by the differential suite.
	Parallel int
}

func (o Options) withDefaults() Options {
	if o.GridScale <= 0 {
		o.GridScale = 1
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 10
	}
	if o.MinElements <= 0 {
		o.MinElements = 2
	}
	if o.Embedder == nil {
		o.Embedder = sharedLexicon
	}
	if o.Parallel == 0 {
		o.Parallel = serve.PoolSize(0)
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	return o
}

var sharedLexicon = embed.NewLexicon()

// Segmenter decomposes documents into logical blocks.
type Segmenter struct {
	opts Options
	// gate bounds extra worker goroutines (nil when sequential). It is
	// per-Segmenter so a server's concurrent extractions share one
	// budget instead of multiplying it.
	gate *serve.Gate
	// ref selects the preserved seed implementation (reference.go):
	// sequential recursion, per-origin whitespace scans, no caches.
	ref bool
	// stolen tracks gate slots held by StealGateForTest.
	stolen int
}

// New returns a Segmenter with the given options.
func New(opts Options) *Segmenter {
	opts = opts.withDefaults()
	s := &Segmenter{opts: opts}
	if opts.Parallel > 1 {
		// Capacity Parallel-1: the calling goroutine is the pool's
		// implicit first worker.
		s.gate = serve.NewGate(opts.Parallel - 1)
	}
	return s
}

// NewReference returns a Segmenter running the seed implementation:
// strictly sequential recursion over a per-node raster, per-call reach
// tables, per-cell clearance scans and no embedding cache. It is the oracle the
// differential suite checks the optimised path against, and the
// baseline the benchmark gate measures speedups from.
func NewReference(opts Options) *Segmenter {
	opts = opts.withDefaults()
	opts.Parallel = 1
	return &Segmenter{opts: opts, ref: true}
}

// Segment builds the layout tree of d. The returned tree's leaves are the
// logical blocks.
func (s *Segmenter) Segment(d *doc.Document) *doc.Node {
	root, _ := s.SegmentContext(context.Background(), d)
	return root
}

// SegmentContext is Segment under cooperative cancellation: the recursion
// checks ctx at every area it decomposes, the clustering step at every
// reassignment sweep, and the semantic merger at every pass, so a deadline
// or cancellation unwinds within one unit of work. On cancellation the
// partial tree is discarded and ctx's error is returned.
func (s *Segmenter) SegmentContext(ctx context.Context, d *doc.Document) (*doc.Node, error) {
	// One SpanFrom lookup per run; the recursion below passes the span
	// down explicitly, so untraced runs pay only nil checks.
	sp := obs.SpanFrom(ctx)
	st := statsFrom(ctx)
	root := doc.NewTree(d)
	if err := s.split(ctx, sp, d, root, 0, st); err != nil {
		return nil, err
	}
	if !s.opts.DisableMerging {
		msp := sp.Child("merge")
		var cache *embed.Centroids
		if !s.ref {
			cache = embed.NewCentroids(s.opts.Embedder)
		}
		err := mergeTree(ctx, msp, d, root, s.opts.Embedder, cache)
		if cache != nil && msp != nil {
			hits, misses := cache.Stats()
			msp.SetAttr("embed_cache_hits", hits)
			msp.SetAttr("embed_cache_misses", misses)
		}
		msp.End()
		if err != nil {
			return nil, err
		}
	}
	if sp != nil {
		sp.SetAttr("blocks", len(root.Leaves()))
		sp.SetAttr("tree_height", root.Height())
		sp.SetAttr("parallel", s.opts.Parallel)
	}
	return root, nil
}

// Blocks segments d and returns the leaf nodes directly.
func (s *Segmenter) Blocks(d *doc.Document) []*doc.Node {
	return s.Segment(d).Leaves()
}

// split recursively decomposes the visual area represented by n. sp is
// the parent span (nil when untraced): each split attempt opens a child
// span, so the span tree mirrors the segmentation recursion one-to-one.
//
// Child subtrees are independent by construction (siblings partition
// the parent's elements), so after the children are created — in the
// deterministic order the partition yields them — each subtree may
// recurse on its own goroutine. The gate never blocks: a denied fork
// runs inline on the requesting goroutine, so progress is guaranteed
// and saturation degrades to plain recursion instead of deadlock. The
// caller always descends into the last child itself rather than asking
// the pool for it.
func (s *Segmenter) split(ctx context.Context, sp *obs.Span, d *doc.Document, n *doc.Node, depth int, st *Stats) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if depth >= s.opts.MaxDepth || len(n.Elements) <= s.opts.MinElements {
		return nil
	}
	node := sp.Child("split")
	defer node.End()
	node.SetAttr("depth", depth)
	node.SetAttr("elements", len(n.Elements))
	groups := s.splitByDelimiters(d, n, node, st)
	if groups == nil && !s.opts.DisableClustering {
		groups = clusterElements(ctx, d, n, node)
	}
	node.SetAttr("groups", len(groups))
	if len(groups) < 2 {
		return ctx.Err()
	}
	recurse := make([]*doc.Node, 0, len(groups))
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		child := n.AddChild(d.BoundingBoxOf(g), g)
		if len(g) < len(n.Elements) { // guaranteed progress
			recurse = append(recurse, child)
		}
	}
	if err := s.splitChildren(ctx, node, d, recurse, depth+1, st); err != nil {
		return err
	}
	// A single non-empty group means no real split happened; undo.
	if len(n.Children) < 2 {
		n.Children = nil
	}
	return ctx.Err()
}

// splitChildren recurses into each child subtree, forking all but the
// last onto the pool when a slot is free. Each goroutine mutates only
// its own subtree and its own error slot; the parent's span collects
// child spans under a lock. Errors surface in child order, so the
// reported error is the same one the sequential recursion would return.
func (s *Segmenter) splitChildren(ctx context.Context, sp *obs.Span, d *doc.Document, children []*doc.Node, depth int, st *Stats) error {
	if s.gate == nil || len(children) < 2 {
		for _, c := range children {
			if err := s.split(ctx, sp, d, c, depth, st); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for i := 0; i < len(children)-1; i++ {
		if s.gate.TryAcquire() {
			st.addSpawned()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer s.gate.Release()
				errs[i] = s.split(ctx, sp, d, children[i], depth, st)
			}(i)
		} else {
			st.addInline()
			errs[i] = s.split(ctx, sp, d, children[i], depth, st)
		}
	}
	last := len(children) - 1
	errs[last] = s.split(ctx, sp, d, children[last], depth, st)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitByDelimiters searches for explicit whitespace delimiters within n
// and partitions n's elements along them. Both directions contribute:
// separators are enumerated as element partitions (seam.go), Algorithm 1
// keeps the true delimiters, and elements sharing a side of every kept
// delimiter form one group. Returns nil when nothing passes Algorithm 1.
// The cut-band census and Algorithm 1's verdict are annotated on sp.
// The two direction searches are independent reads of the same boxes
// (and, for the reference and the straight-cut ablation, of the same
// raster), so the horizontal search may ride the pool while the caller
// runs the vertical one; appending horizontal-then-vertical keeps the
// separator order identical to the sequential search.
func (s *Segmenter) splitByDelimiters(d *doc.Document, n *doc.Node, sp *obs.Span, st *Stats) [][]int {
	boxes := make([]geom.Rect, 0, len(n.Elements))
	local := n.Box
	for _, id := range n.Elements {
		b := d.Elements[id].Box
		boxes = append(boxes, b.Translate(-local.X, -local.Y))
	}
	area := geom.Rect{W: local.W, H: local.H}
	find := func(horizontal bool) []separator {
		return findSeparators(area, boxes, s.opts.GridScale, horizontal)
	}
	if s.ref || s.opts.StraightCutsOnly {
		g := grid.FromRects(area, boxes, s.opts.GridScale)
		raster := refFindSeparators
		if s.opts.StraightCutsOnly {
			raster = findStraightSeparators
		}
		find = func(horizontal bool) []separator { return raster(g, boxes, horizontal) }
	}
	var hseps, vseps []separator
	if s.gate != nil && s.gate.TryAcquire() {
		st.addSpawned()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.gate.Release()
			hseps = find(true)
		}()
		vseps = find(false)
		wg.Wait()
	} else {
		hseps = find(true)
		vseps = find(false)
	}
	seps := append(hseps, vseps...)
	delims := identifyDelimiters(seps)
	if sp != nil {
		sp.SetAttr("cut_bands", len(seps))
		sp.SetAttr("delimiters", len(delims))
		if len(delims) > 0 {
			// The Algorithm 1 decision variable per kept delimiter:
			// clearance relative to the neighbouring line height.
			rels := make([]float64, len(delims))
			for i, del := range delims {
				if del.nbH > 0 {
					rels[i] = del.width / del.nbH
				}
			}
			sp.SetAttr("delimiter_rels", rels)
		}
	}
	if len(delims) == 0 {
		return nil
	}
	return partitionBySeparators(n, delims)
}

// findStraightSeparators is the StraightCutsOnly ablation: only projection
// cuts (fully clear rows/columns) of the raster count, as in XY-cut.
// Clearance is the reference's per-cell scan.
func findStraightSeparators(g *grid.Grid, boxes []geom.Rect, horizontal bool) []separator {
	if g.W <= 0 || g.H <= 0 {
		return nil
	}
	var origins []int
	if horizontal {
		for y := 0; y < g.H; y++ {
			clear := true
			for x := 0; x < g.W; x++ {
				if g.Occupied(x, y) {
					clear = false
					break
				}
			}
			if clear {
				origins = append(origins, y)
			}
		}
	} else {
		for x := 0; x < g.W; x++ {
			clear := true
			for y := 0; y < g.H; y++ {
				if g.Occupied(x, y) {
					clear = false
					break
				}
			}
			if clear {
				origins = append(origins, x)
			}
		}
	}
	// A straight cut is a constant path; reuse the separator grouping by
	// synthesising constant paths.
	bySig := map[string]*separator{}
	var order []string
	for _, o := range origins {
		var path []int
		if horizontal {
			path = make([]int, g.W)
		} else {
			path = make([]int, g.H)
		}
		for i := range path {
			path[i] = o
		}
		above := classify(g.Scale, boxes, path, horizontal)
		nAbove := 0
		for _, a := range above {
			if a {
				nAbove++
			}
		}
		if nAbove == 0 || nAbove == len(boxes) {
			continue
		}
		width, bottleneckAt := refMinClearance(g, path, horizontal)
		width /= g.Scale
		sig := sigOf(above)
		if cur, ok := bySig[sig]; !ok || width > cur.width {
			minSide := nAbove
			if len(boxes)-nAbove < minSide {
				minSide = len(boxes) - nAbove
			}
			if !ok {
				order = append(order, sig)
			}
			bySig[sig] = &separator{
				horizontal: horizontal,
				above:      above,
				width:      width,
				nbH:        heightAtBottleneck(g.Scale, boxes, bottleneckAt, path[bottleneckAt], horizontal),
				minSide:    minSide,
			}
		}
	}
	out := make([]separator, 0, len(bySig))
	for _, k := range order {
		out = append(out, *bySig[k])
	}
	return out
}
