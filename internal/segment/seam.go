package segment

import (
	"slices"
	"sort"

	"vs2/internal/doc"
	"vs2/internal/geom"
	"vs2/internal/grid"
)

// A Separator is the meaningful unit Algorithm 1 scores: an equivalence
// class of valid cuts that induce the same partition of the area's
// elements. Banding raw cut origins is not enough — in sparse documents
// every origin connects to every gap through open whitespace, so origin
// bands fuse separators that cut in different places (and spill into the
// page margins). Grouping seams by the element partition they induce, and
// measuring each separator by the minimum whitespace clearance along a
// representative seam path, recovers the quantity Algorithm 1 actually
// needs: how wide the gap between the two element groups really is.
type separator struct {
	horizontal bool
	// above[i] is true when element i (index into the node's element list)
	// lies before the seam (above for horizontal, left of for vertical).
	above []bool
	// width is the minimum whitespace clearance along the seam, page units.
	width float64
	// nbH is the height of the element nearest the seam, page units.
	nbH float64
	// count of elements on the smaller side (≥1 by construction).
	minSide int
}

// findSeparators enumerates the distinct separators of a direction within
// a node's area. boxes are the node's element boxes translated to the
// area-local frame, and scale is the raster resolution the seams are
// defined on (grid.FromRects(area, boxes, scale)).
//
// The search never builds that raster. A node's whitespace is fully set
// by its element boxes, so their cell edges cut the seam axis into
// stretches, each with one set of free lanes (profile). Within a
// stretch the drift-±1 reach is its end reach widened by the distance
// to the stretch's end and clipped to the free span holding it, a seam
// follows a closed-form course (drift), and its clearance is that free
// span's length, so each origin costs O(stretches + elements) instead
// of O(W); an origin whose seam joins the previous one reuses the rest
// of its course (seam.trace). The result equals the raster search of
// reference.go exactly — separators, widths and neighbour heights —
// which the differential suite, the node-level oracle test and the
// fuzz target enforce.
func findSeparators(area geom.Rect, boxes []geom.Rect, scale float64, horizontal bool) []separator {
	w, h := grid.Size(area, scale)
	if w <= 0 || h <= 0 {
		return nil
	}
	sts := profile(area, boxes, scale, horizontal, w, h)
	if sts == nil {
		return nil
	}
	length := w
	if !horizontal {
		length = h
	}
	// Where each element's centroid meets the seam axis, and which
	// stretch holds that position: fixed for every origin.
	type probe struct {
		at, k int
		lane  float64
	}
	probes := make([]probe, len(boxes))
	for i, b := range boxes {
		at, lane := centroidCell(b, scale, horizontal, length)
		probes[i] = probe{at: at, k: stretchAt(sts, at), lane: lane}
	}
	sm := seam{legs: make([]leg, len(sts)), low: make([]int, len(sts))}
	above := make([]bool, len(boxes))
	var key []byte
	bySig := map[string]*separator{}
	for _, o := range sts[0].start {
		for r := o.lo; r < o.hi; r++ {
			if !sm.trace(sts, r) {
				continue
			}
			nAbove := 0
			for i, p := range probes {
				above[i] = p.lane < float64(sm.legs[p.k].at(p.at))
				if above[i] {
					nAbove++
				}
			}
			if nAbove == 0 || nAbove == len(boxes) {
				continue // margin seam: everything on one side
			}
			bottleneck := sm.low[0]
			width := float64(sm.legs[bottleneck].clearance) / scale
			key = appendSig(key[:0], above)
			cur, ok := bySig[string(key)]
			if ok && width <= cur.width {
				continue
			}
			if !ok {
				cur = &separator{
					horizontal: horizontal,
					above:      append([]bool(nil), above...),
					minSide:    min(nAbove, len(boxes)-nAbove),
				}
				bySig[string(key)] = cur
			}
			cur.width = width
			cur.nbH = heightAtBottleneck(scale, boxes, sts[bottleneck].c0, sm.legs[bottleneck].r, horizontal)
		}
	}
	keys := make([]string, 0, len(bySig))
	for k := range bySig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]separator, 0, len(keys))
	for _, k := range keys {
		out = append(out, *bySig[k])
	}
	return out
}

// span is a half-open interval [lo, hi) of lanes: rows for horizontal
// seams, columns for vertical ones.
type span struct{ lo, hi int }

// A stretch is a run [c0, c1) of seam positions (columns for
// horizontal seams, rows for vertical ones) that no element edge cuts,
// so every position in it has the same free lanes.
type stretch struct {
	c0, c1 int
	free   []span // whitespace lanes: sorted, maximal
	end    []span // lanes at c1-1 from which a seam reaches the far edge
	start  []span // the same at c0
}

// profile cuts the seam axis of the w×h raster of area into stretches
// at every element's cell edges, rounded by the raster's own rule
// (grid.Cells), and sweeps the seam reach across them from the far
// edge. It returns nil when no seam crosses the area.
func profile(area geom.Rect, boxes []geom.Rect, scale float64, horizontal bool, w, h int) []stretch {
	length, lanes := w, h
	if !horizontal {
		length, lanes = h, w
	}
	// Element cells with X along the seam axis and Y across it.
	cells := make([]grid.IntRect, 0, len(boxes))
	cuts := make([]int, 0, 2*len(boxes)+2)
	cuts = append(cuts, 0, length)
	for _, b := range boxes {
		c := grid.Cells(area, b, scale, w, h)
		if c.Empty() {
			continue
		}
		if !horizontal {
			c = grid.IntRect{X0: c.Y0, Y0: c.X0, X1: c.Y1, Y1: c.X1}
		}
		cells = append(cells, c)
		cuts = append(cuts, c.X0, c.X1)
	}
	sort.Ints(cuts)
	cuts = slices.Compact(cuts)
	slices.SortFunc(cells, func(a, b grid.IntRect) int { return a.Y0 - b.Y0 })

	// All span lists share one backing array; each list is capped so a
	// later append never writes into it.
	var buf []span
	sts := make([]stretch, len(cuts)-1)
	for k := range sts {
		c0, c1 := cuts[k], cuts[k+1]
		from, next := len(buf), 0
		for _, c := range cells {
			if c.X0 > c0 || c.X1 < c1 {
				continue // the cut points make cover all-or-nothing
			}
			if c.Y0 > next {
				buf = append(buf, span{next, c.Y0})
			}
			next = max(next, c.Y1)
		}
		if next < lanes {
			buf = append(buf, span{next, lanes})
		}
		sts[k] = stretch{c0: c0, c1: c1, free: buf[from:len(buf):len(buf)]}
	}
	for k := len(sts) - 1; k >= 0; k-- {
		st := &sts[k]
		if k == len(sts)-1 {
			st.end = st.free
		} else {
			from := len(buf)
			buf = appendStep(buf, st.free, sts[k+1].start)
			st.end = buf[from:len(buf):len(buf)]
		}
		if len(st.end) == 0 {
			return nil
		}
		from := len(buf)
		buf = appendWiden(buf, st.end, st.free, st.c1-1-st.c0)
		st.start = buf[from:len(buf):len(buf)]
	}
	return sts
}

// appendStep appends the lanes of free from which one drift-±1 step
// lands in next: free ∩ (next dilated by one lane).
func appendStep(out, free, next []span) []span {
	base, i := len(out), 0
	for _, f := range free {
		for i < len(next) && next[i].hi+1 <= f.lo {
			i++
		}
		for j := i; j < len(next) && next[j].lo-1 < f.hi; j++ {
			lo, hi := max(f.lo, next[j].lo-1), min(f.hi, next[j].hi+1)
			if n := len(out); n > base && out[n-1].hi >= lo {
				out[n-1].hi = max(out[n-1].hi, hi)
			} else {
				out = append(out, span{lo, hi})
			}
		}
	}
	return out
}

// appendWiden appends the reach d positions before a stretch's end:
// each end span widened by d lanes each way and clipped to the free
// span holding it. A free span is convex, so d single-lane dilations
// clipped one at a time give the same lanes.
func appendWiden(out, end, free []span, d int) []span {
	base, i := len(out), 0
	for _, e := range end {
		for free[i].hi <= e.lo {
			i++
		}
		lo, hi := max(free[i].lo, e.lo-d), min(free[i].hi, e.hi+d)
		if n := len(out); n > base && out[n-1].hi >= lo {
			out[n-1].hi = max(out[n-1].hi, hi)
		} else {
			out = append(out, span{lo, hi})
		}
	}
	return out
}

// A leg is a seam's course through one stretch: it holds lane r up to
// position turn, then drifts one lane per position in direction dir.
// clearance is the length of the free span it runs in, in cells.
type leg struct{ r, turn, dir, clearance int }

// at returns the leg's lane at seam position c.
func (l leg) at(c int) int {
	if c <= l.turn {
		return l.r
	}
	return l.r + l.dir*(c-l.turn)
}

// A seam is the course of the last origin traced, one leg per stretch.
// The seam's clearance is its shortest leg's, and its bottleneck the
// first stretch with that strict minimum; low[k] is that stretch among
// stretches k and on.
type seam struct {
	legs []leg
	low  []int
	ok   bool // legs hold a complete course
}

// trace follows the seam from origin lane r across every stretch.
// Between stretches it steps level, then up, then down, like the raster
// trace. A seam's course from a stretch on depends only on the lane it
// enters that stretch at, so trace keeps the previous origin's legs
// from the first stretch the new seam enters on the same lane; origins
// come in lane order and seams never cross, so neighbouring seams that
// meet stay together. It reports false only if r is not a reachable
// origin.
func (sm *seam) trace(sts []stretch, r int) bool {
	k := 0
	for ; k < len(sts); k++ {
		st := &sts[k]
		switch {
		case contains(st.start, r):
		case contains(st.start, r-1):
			r--
		case contains(st.start, r+1):
			r++
		default:
			sm.ok = false
			return false
		}
		if sm.ok && sm.legs[k].r == r {
			break
		}
		free := st.free[find(st.free, r)]
		d, dir := drift(st.end, free, r)
		if d < 0 {
			sm.ok = false
			return false
		}
		sm.legs[k] = leg{r: r, turn: st.c1 - 1 - d, dir: dir, clearance: free.hi - free.lo}
		r += dir * d
	}
	for j := k - 1; j >= 0; j-- {
		sm.low[j] = j
		if j+1 < len(sts) && sm.legs[sm.low[j+1]].clearance < sm.legs[j].clearance {
			sm.low[j] = sm.low[j+1]
		}
	}
	sm.ok = true
	return true
}

// drift returns how far, and which way, a seam entering a stretch at
// lane r (inside free) must move to finish in the stretch's end reach.
// Reach shrinks toward the end by one lane per position, so the seam
// keeps its lane while the lane stays reachable, then follows the
// nearest shrinking reach edge to the end, one lane per position. The
// raster trace prefers level, then −1, then +1, so a tie goes up. A
// negative distance means r reaches nothing.
func drift(end []span, free span, r int) (d, dir int) {
	j := find(end, r)
	if j >= 0 && r < end[j].hi {
		return 0, 0
	}
	up, down := -1, -1
	if j >= 0 && end[j].lo >= free.lo {
		up = r - (end[j].hi - 1)
	}
	if j+1 < len(end) && end[j+1].lo < free.hi {
		down = end[j+1].lo - r
	}
	if up >= 0 && (down < 0 || up <= down) {
		return up, -1
	}
	return down, 1
}

// find returns the index of the last span starting at or before lane
// r, or -1.
func find(spans []span, r int) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if spans[m].lo <= r {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func contains(spans []span, r int) bool {
	j := find(spans, r)
	return j >= 0 && r < spans[j].hi
}

// stretchAt returns the index of the stretch holding seam position c.
func stretchAt(sts []stretch, c int) int {
	return sort.Search(len(sts), func(k int) bool { return sts[k].c1 > c })
}

// classify assigns each element to the side of a raster seam path its
// centroid lies on: true = before (above / left of) the seam. An empty
// path (a degenerate zero-extent grid) classifies nothing: all elements
// land on one side and the caller discards the seam.
func classify(scale float64, boxes []geom.Rect, path []int, horizontal bool) []bool {
	out := make([]bool, len(boxes))
	if len(path) == 0 {
		return out
	}
	for i, b := range boxes {
		at, lane := centroidCell(b, scale, horizontal, len(path))
		out[i] = lane < float64(path[at])
	}
	return out
}

// centroidCell returns the seam position of b's centroid, clamped to a
// seam of length n, and the centroid's lane coordinate in cells: the
// seam at that position decides b's side.
func centroidCell(b geom.Rect, scale float64, horizontal bool, n int) (int, float64) {
	c := b.Centroid()
	along, across := c.X, c.Y
	if !horizontal {
		along, across = c.Y, c.X
	}
	at := int(along * scale)
	if at < 0 {
		at = 0
	}
	if at >= n {
		at = n - 1
	}
	return at, across * scale
}

// heightAtBottleneck returns the height of the element box nearest to
// the seam's bottleneck cell, at seam position at and lane lane.
// Algorithm 1 normalises a separator's width by the "neighboring
// bounding box": the box adjacent to the narrow part of the gap, whose
// font height the gap must be compared against. Measuring against the
// globally nearest element instead would let a headline's word gap be
// normalised by distant small body text, promoting it to a delimiter.
func heightAtBottleneck(scale float64, boxes []geom.Rect, at, lane int, horizontal bool) float64 {
	px, py := float64(at)/scale, float64(lane)/scale
	if !horizontal {
		px, py = py, px
	}
	cell := geom.Rect{X: px, Y: py, W: 1 / scale, H: 1 / scale}
	bestH, bestD := 0.0, -1.0
	for _, b := range boxes {
		d := cell.Gap(b)
		if bestD < 0 || d < bestD {
			bestD, bestH = d, b.H
		}
	}
	return bestH
}

// appendSig appends the bitset of above to b: the key that groups seams
// by the element partition they induce.
func appendSig(b []byte, above []bool) []byte {
	for i, a := range above {
		if i%8 == 0 {
			b = append(b, 0)
		}
		if a {
			b[len(b)-1] |= 1 << (i % 8)
		}
	}
	return b
}

func sigOf(above []bool) string { return string(appendSig(nil, above)) }

// partitionBySeparators splits the node's elements into groups defined by
// the combination of chosen separators: elements sharing the same side of
// every separator form one group, ordered by their first occurrence in the
// node's element list.
func partitionBySeparators(n *doc.Node, seps []separator) [][]int {
	if len(seps) == 0 {
		return nil
	}
	groupOf := map[string][]int{}
	var order []string
	for i, id := range n.Elements {
		key := make([]byte, len(seps))
		for s, sep := range seps {
			if sep.above[i] {
				key[s] = 1
			}
		}
		k := string(key)
		if _, ok := groupOf[k]; !ok {
			order = append(order, k)
		}
		groupOf[k] = append(groupOf[k], id)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, groupOf[k])
	}
	return out
}
