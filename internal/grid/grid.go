// Package grid is the paper-faithful raster of Section 5.1.1 that the
// reference segmenter (segment.NewReference) and the straight-cut
// ablation search. A document region is rendered onto an occupancy
// grid; a cell not covered by any bounding box is a "whitespace
// position". A valid horizontal movement steps one cell right with a
// vertical drift of at most one cell (and symmetrically for vertical
// movements); chaining W of them across a region of width W yields a
// horizontal "cut". Because cuts may drift ±1 per hop, they are seams
// rather than straight projection lines — this is exactly what lets VS2
// separate blocks that are not delimited by a rectangular whitespace
// channel, its stated advantage over VIPS and XY-cut.
//
// The default segmenter never builds a grid: it searches the same seams
// over the stretches between element edges. Size and Cells are the one
// rounding rule both sides use, so the raster and that search cannot
// drift apart.
package grid

import (
	"fmt"
	"math"

	"vs2/internal/geom"
)

// IntRect is a half-open integer rectangle [X0,X1) × [Y0,Y1) in grid cells.
type IntRect struct {
	X0, Y0, X1, Y1 int
}

// W returns the width of r in cells.
func (r IntRect) W() int { return r.X1 - r.X0 }

// H returns the height of r in cells.
func (r IntRect) H() int { return r.Y1 - r.Y0 }

// Empty reports whether r covers no cells.
func (r IntRect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

func (r IntRect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// Grid is a binary occupancy raster of a document page (or a sub-area).
type Grid struct {
	W, H  int
	Scale float64 // cells per page unit
	occ   []bool
}

// New returns an empty (all-whitespace) grid of w×h cells.
func New(w, h int) *Grid {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return &Grid{W: w, H: h, Scale: 1, occ: make([]bool, w*h)}
}

// FromRects rasterises the given bounding boxes onto a grid covering bounds.
// scale controls resolution: cells per page unit (1.0 is adequate for
// point-sized pages; the paper's grid lines of Fig. 5 correspond to scale 1).
func FromRects(bounds geom.Rect, rects []geom.Rect, scale float64) *Grid {
	if scale <= 0 {
		scale = 1
	}
	g := New(Size(bounds, scale))
	g.Scale = scale
	for _, r := range rects {
		c := Cells(bounds, r, scale, g.W, g.H)
		for y := c.Y0; y < c.Y1; y++ {
			row := g.occ[y*g.W : (y+1)*g.W]
			for x := c.X0; x < c.X1; x++ {
				row[x] = true
			}
		}
	}
	return g
}

// Size returns the raster dimensions of bounds at scale: every partly
// covered cell counts.
func Size(bounds geom.Rect, scale float64) (w, h int) {
	return int(math.Ceil(bounds.W * scale)), int(math.Ceil(bounds.H * scale))
}

// Cells returns the cells r covers on a w×h raster of bounds at scale,
// clamped to the raster: every cell r partly covers. A box outside the
// raster, or one with a zero extent on a cell boundary, covers none
// (Empty reports true).
func Cells(bounds, r geom.Rect, scale float64, w, h int) IntRect {
	c := IntRect{
		X0: int(math.Floor((r.X - bounds.X) * scale)),
		Y0: int(math.Floor((r.Y - bounds.Y) * scale)),
		X1: int(math.Ceil((r.MaxX() - bounds.X) * scale)),
		Y1: int(math.Ceil((r.MaxY() - bounds.Y) * scale)),
	}
	c.X0, c.Y0 = max(c.X0, 0), max(c.Y0, 0)
	c.X1, c.Y1 = min(c.X1, w), min(c.Y1, h)
	return c
}

// Set marks the cell (x, y) occupied (no-op out of range).
func (g *Grid) Set(x, y int) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.occ[y*g.W+x] = true
}

// Occupied reports whether the cell (x, y) is covered by some bounding box.
// Out-of-range cells count as occupied so that movements cannot leave the
// page.
func (g *Grid) Occupied(x, y int) bool {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return true
	}
	return g.occ[y*g.W+x]
}

// Whitespace reports whether (x, y) is a whitespace position per
// Section 5.1.1: a position not contained in any bounding box.
func (g *Grid) Whitespace(x, y int) bool { return !g.Occupied(x, y) }

// Bounds returns the full-grid region.
func (g *Grid) Bounds() IntRect { return IntRect{0, 0, g.W, g.H} }

// HorizontalCutRows returns, within region, every row y (absolute grid
// coordinate) from which a horizontal cut originates: a chain of valid
// 1-hop horizontal movements with drift ±1 spanning the full region width
// through whitespace. Rows are returned in increasing order.
func (g *Grid) HorizontalCutRows(region IntRect) []int {
	w, h := region.W(), region.H()
	if w <= 0 || h <= 0 {
		return nil
	}
	// reach[y] is true when a seam can continue from column x (current) at
	// row y to the right edge. Sweep right-to-left.
	reach := make([]bool, h)
	next := make([]bool, h)
	for y := 0; y < h; y++ {
		reach[y] = g.Whitespace(region.X1-1, region.Y0+y)
	}
	for x := region.X1 - 2; x >= region.X0; x-- {
		for y := 0; y < h; y++ {
			next[y] = false
			if !g.Whitespace(x, region.Y0+y) {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				ny := y + dy
				if ny >= 0 && ny < h && reach[ny] {
					next[y] = true
					break
				}
			}
		}
		reach, next = next, reach
	}
	var rows []int
	for y := 0; y < h; y++ {
		if reach[y] {
			rows = append(rows, region.Y0+y)
		}
	}
	return rows
}

// VerticalCutCols returns, within region, every column x from which a
// vertical cut originates (the transpose of HorizontalCutRows).
func (g *Grid) VerticalCutCols(region IntRect) []int {
	w, h := region.W(), region.H()
	if w <= 0 || h <= 0 {
		return nil
	}
	reach := make([]bool, w)
	next := make([]bool, w)
	for x := 0; x < w; x++ {
		reach[x] = g.Whitespace(region.X0+x, region.Y1-1)
	}
	for y := region.Y1 - 2; y >= region.Y0; y-- {
		for x := 0; x < w; x++ {
			next[x] = false
			if !g.Whitespace(region.X0+x, y) {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx := x + dx
				if nx >= 0 && nx < w && reach[nx] {
					next[x] = true
					break
				}
			}
		}
		reach, next = next, reach
	}
	var cols []int
	for x := 0; x < w; x++ {
		if reach[x] {
			cols = append(cols, region.X0+x)
		}
	}
	return cols
}
