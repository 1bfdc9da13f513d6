package segment

import (
	"sort"

	"vs2/internal/geom"
	"vs2/internal/grid"
)

// This file preserves the seed implementation of the seam search,
// exactly as first shipped: the area rasterised (package grid), origins
// re-derived via the grid's cut-row sweep, a freshly allocated
// two-dimensional reach table per call, a freshly allocated path per
// origin, and O(H)/O(W) whitespace scans per seam cell for clearance.
// It is the paper's §5.1 definition read literally, and deliberately
// redundant with the stretch search in seam.go — NewReference wires it
// up as the independent oracle the differential suite compares the
// fast path against, and as the baseline the benchmark gate measures
// speedups from. Do not optimise it; its value is being boring.

// refFindSeparators is the seed findSeparators.
func refFindSeparators(g *grid.Grid, boxes []geom.Rect, horizontal bool) []separator {
	region := g.Bounds()
	var origins []int
	if horizontal {
		origins = g.HorizontalCutRows(region)
	} else {
		origins = g.VerticalCutCols(region)
	}
	if len(origins) == 0 {
		return nil
	}
	reach := refReachTable(g, horizontal)

	type agg struct {
		sep   separator
		width float64
	}
	bySig := map[string]*agg{}
	for _, o := range origins {
		path := refTracePath(g, reach, o, horizontal)
		if path == nil {
			continue
		}
		above := classify(g.Scale, boxes, path, horizontal)
		nAbove := 0
		for _, a := range above {
			if a {
				nAbove++
			}
		}
		if nAbove == 0 || nAbove == len(boxes) {
			continue // margin seam: everything on one side
		}
		width, bottleneckAt := refMinClearance(g, path, horizontal)
		width /= g.Scale
		sig := sigOf(above)
		if cur, ok := bySig[sig]; !ok || width > cur.width {
			minSide := nAbove
			if len(boxes)-nAbove < minSide {
				minSide = len(boxes) - nAbove
			}
			bySig[sig] = &agg{
				sep: separator{
					horizontal: horizontal,
					above:      above,
					width:      width,
					nbH:        heightAtBottleneck(g.Scale, boxes, bottleneckAt, path[bottleneckAt], horizontal),
					minSide:    minSide,
				},
				width: width,
			}
		}
	}
	out := make([]separator, 0, len(bySig))
	keys := make([]string, 0, len(bySig))
	for k := range bySig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, bySig[k].sep)
	}
	return out
}

// refReachTable computes, for every cell, whether a seam can continue
// from it to the far edge (right edge for horizontal seams, bottom for
// vertical).
func refReachTable(g *grid.Grid, horizontal bool) [][]bool {
	w, h := g.W, g.H
	if horizontal {
		table := make([][]bool, w)
		for x := range table {
			table[x] = make([]bool, h)
		}
		for y := 0; y < h; y++ {
			table[w-1][y] = g.Whitespace(w-1, y)
		}
		for x := w - 2; x >= 0; x-- {
			for y := 0; y < h; y++ {
				if !g.Whitespace(x, y) {
					continue
				}
				for dy := -1; dy <= 1; dy++ {
					ny := y + dy
					if ny >= 0 && ny < h && table[x+1][ny] {
						table[x][y] = true
						break
					}
				}
			}
		}
		return table
	}
	table := make([][]bool, h)
	for y := range table {
		table[y] = make([]bool, w)
	}
	for x := 0; x < w; x++ {
		table[h-1][x] = g.Whitespace(x, h-1)
	}
	for y := h - 2; y >= 0; y-- {
		for x := 0; x < w; x++ {
			if !g.Whitespace(x, y) {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx := x + dx
				if nx >= 0 && nx < w && table[y+1][nx] {
					table[y][x] = true
					break
				}
			}
		}
	}
	return table
}

// refTracePath walks one seam from the origin, preferring to stay level
// and otherwise drifting toward the larger clearance. Returns the
// per-column row (or per-row column) of the seam.
func refTracePath(g *grid.Grid, reach [][]bool, origin int, horizontal bool) []int {
	if horizontal {
		if origin < 0 || origin >= g.H || !reach[0][origin] {
			return nil
		}
		path := make([]int, g.W)
		r := origin
		path[0] = r
		for x := 1; x < g.W; x++ {
			moved := false
			for _, dy := range []int{0, -1, 1} {
				ny := r + dy
				if ny >= 0 && ny < g.H && reach[x][ny] {
					r = ny
					moved = true
					break
				}
			}
			if !moved {
				return nil
			}
			path[x] = r
		}
		return path
	}
	if origin < 0 || origin >= g.W || !reach[0][origin] {
		return nil
	}
	path := make([]int, g.H)
	c := origin
	path[0] = c
	for y := 1; y < g.H; y++ {
		moved := false
		for _, dx := range []int{0, -1, 1} {
			nx := c + dx
			if nx >= 0 && nx < g.W && reach[y][nx] {
				c = nx
				moved = true
				break
			}
		}
		if !moved {
			return nil
		}
		path[y] = c
	}
	return path
}

// refMinClearance returns the smallest whitespace run (in cells)
// crossed by the seam and the path index it occurs at, measured by
// per-cell column/row scans.
func refMinClearance(g *grid.Grid, path []int, horizontal bool) (float64, int) {
	best, at := -1, 0
	for i, p := range path {
		var run int
		if horizontal {
			run = verticalRun(g, i, p)
		} else {
			run = horizontalRun(g, p, i)
		}
		if best < 0 || run < best {
			best, at = run, i
		}
		if best == 0 {
			break
		}
	}
	if best < 0 {
		return 0, 0
	}
	return float64(best), at
}

func verticalRun(g *grid.Grid, x, y int) int {
	if !g.Whitespace(x, y) {
		return 0
	}
	n := 1
	for dy := 1; g.Whitespace(x, y-dy); dy++ {
		n++
	}
	for dy := 1; g.Whitespace(x, y+dy); dy++ {
		n++
	}
	return n
}

func horizontalRun(g *grid.Grid, x, y int) int {
	if !g.Whitespace(x, y) {
		return 0
	}
	n := 1
	for dx := 1; g.Whitespace(x-dx, y); dx++ {
		n++
	}
	for dx := 1; g.Whitespace(x+dx, y); dx++ {
		n++
	}
	return n
}
