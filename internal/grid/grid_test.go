package grid

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vs2/internal/geom"
)

// twoColumnGrid builds a 20x10 grid with two boxes separated by a clean
// 4-cell vertical gutter at columns 8..11.
func twoColumnGrid() *Grid {
	return FromRects(
		geom.Rect{W: 20, H: 10},
		[]geom.Rect{
			{X: 0, Y: 0, W: 8, H: 10},
			{X: 12, Y: 0, W: 8, H: 10},
		},
		1,
	)
}

// twoRowGrid builds a 10x20 grid with two boxes separated by a horizontal
// gutter at rows 8..11.
func twoRowGrid() *Grid {
	return FromRects(
		geom.Rect{W: 10, H: 20},
		[]geom.Rect{
			{X: 0, Y: 0, W: 10, H: 8},
			{X: 0, Y: 12, W: 10, H: 8},
		},
		1,
	)
}

func TestOccupancy(t *testing.T) {
	g := twoColumnGrid()
	if !g.Occupied(0, 0) || !g.Occupied(7, 9) {
		t.Error("left box cells should be occupied")
	}
	if g.Occupied(9, 5) {
		t.Error("gutter cell should be whitespace")
	}
	if !g.Whitespace(10, 0) {
		t.Error("gutter top should be whitespace")
	}
	// Out of range counts as occupied.
	if !g.Occupied(-1, 0) || !g.Occupied(0, -1) || !g.Occupied(20, 0) || !g.Occupied(0, 10) {
		t.Error("out-of-range cells must be occupied")
	}
}

func TestVerticalCutThroughGutter(t *testing.T) {
	g := twoColumnGrid()
	cols := g.VerticalCutCols(g.Bounds())
	if len(cols) != 4 {
		t.Fatalf("vertical cut cols = %v, want 4 gutter columns", cols)
	}
	for i, c := range cols {
		if c != 8+i {
			t.Errorf("col %d = %d, want %d", i, c, 8+i)
		}
	}
	// No horizontal cut exists: both boxes span full height.
	if rows := g.HorizontalCutRows(g.Bounds()); len(rows) != 0 {
		t.Errorf("unexpected horizontal cuts %v", rows)
	}
}

func TestHorizontalCutThroughGutter(t *testing.T) {
	g := twoRowGrid()
	rows := g.HorizontalCutRows(g.Bounds())
	if len(rows) != 4 {
		t.Fatalf("horizontal cut rows = %v", rows)
	}
	for i, r := range rows {
		if r != 8+i {
			t.Errorf("row %d = %d, want %d", i, r, 8+i)
		}
	}
	if cols := g.VerticalCutCols(g.Bounds()); len(cols) != 0 {
		t.Errorf("unexpected vertical cuts %v", cols)
	}
}

// A staggered layout: no straight horizontal line is clear, but a drifting
// seam can snake between the boxes. XY-cut would fail here; the seam model
// must succeed.
func TestSeamDriftsAroundStagger(t *testing.T) {
	//   rows 0-4: box at x 0..10
	//   rows 6-10: box at x 4..14  (overlaps rows? no: distinct y ranges)
	// The whitespace between them is a staircase: at x<4 the gap is rows 5..10+,
	// at x>10 the gap is rows 0..5. A straight row is blocked either left or
	// right, but a drifting seam passes.
	g := FromRects(geom.Rect{W: 15, H: 12}, []geom.Rect{
		{X: 0, Y: 0, W: 11, H: 5},
		{X: 4, Y: 6, W: 11, H: 5},
	}, 1)
	// Straight-line check: row 5 must be fully whitespace? It is (y=5 between
	// 5 and 6). Tighten: shift second box up to y=5 so no straight row exists.
	g2 := FromRects(geom.Rect{W: 15, H: 12}, []geom.Rect{
		{X: 0, Y: 0, W: 11, H: 5}, // occupies rows 0..4, cols 0..10
		{X: 4, Y: 5, W: 11, H: 5}, // occupies rows 5..9, cols 4..14
	}, 1)
	// Verify no straight clear row through the occupied band (rows 0..9).
	for y := 0; y < 10; y++ {
		clear := true
		for x := 0; x < 15; x++ {
			if g2.Occupied(x, y) {
				clear = false
				break
			}
		}
		if clear {
			t.Fatalf("test layout broken: row %d is straight-clear", y)
		}
	}
	rows := g2.HorizontalCutRows(g2.Bounds())
	// Column 4 is occupied for all rows 0..9, so any seam must be at row >= 10
	// by the time it reaches column 4. With drift limited to ±1 per hop, a
	// seam starting at (0, y) can be at row at most y+4 when it reaches
	// column 4 — so origins y >= 6 succeed (6+4 = 10) and origins y <= 5 are
	// blocked. Rows 6..9 have NO straight clear line (box2 spans columns
	// 4..14 there), so their seams demonstrate the drift advantage over
	// projection-based cuts.
	got := map[int]bool{}
	for _, r := range rows {
		got[r] = true
	}
	for y := 0; y <= 5; y++ {
		if got[y] {
			t.Errorf("unexpected seam from blocked origin row %d", y)
		}
	}
	for y := 6; y <= 11; y++ {
		if !got[y] {
			t.Errorf("missing drifting seam from row %d", y)
		}
	}
	_ = g
}

// A gentle staircase where a drifting seam CAN pass although no straight row
// can: boxes shifted by one row each, with a one-cell-per-column staircase
// gap.
func TestSeamPassesGentleStaircase(t *testing.T) {
	g := New(6, 8)
	// Occupy: in column x, rows 0..(2+x-1) are the top block and rows
	// (4+x)..7 the bottom block, leaving a 2-cell staircase gap at rows
	// 2+x..3+x. The gap descends 1 row per column: drift ±1 handles it.
	for x := 0; x < 6; x++ {
		topEnd := 2 + x
		if topEnd > 8 {
			topEnd = 8
		}
		for y := 0; y < topEnd && y < 8; y++ {
			g.Set(x, y)
		}
		for y := 4 + x; y < 8; y++ {
			g.Set(x, y)
		}
	}
	// No straight clear row:
	for y := 0; y < 8; y++ {
		clear := true
		for x := 0; x < 6; x++ {
			if g.Occupied(x, y) {
				clear = false
				break
			}
		}
		if clear {
			t.Fatalf("layout broken: straight row %d clear", y)
		}
	}
	rows := g.HorizontalCutRows(g.Bounds())
	if len(rows) == 0 {
		t.Fatal("drifting seam should pass the staircase")
	}
	// The seam must originate in the staircase gap at column 0 (rows 2..3).
	for _, r := range rows {
		if r != 2 && r != 3 {
			t.Errorf("seam origin row %d, want 2 or 3", r)
		}
	}
}

// TestValidMoves pins Section 5.1.1's 1-hop movement through the cut
// sweep: on a grid two cells long, a cut from a whitespace cell exists
// exactly when the next cell straight ahead or diagonally is whitespace.
func TestValidMoves(t *testing.T) {
	g := New(2, 5)
	g.Set(1, 2)                                               // block straight right from (0,2)
	if !slices.Contains(g.HorizontalCutRows(g.Bounds()), 2) { // can drift to (1,1) or (1,3)
		t.Error("drift move should be valid")
	}
	g.Set(1, 1)
	g.Set(1, 3)
	if slices.Contains(g.HorizontalCutRows(g.Bounds()), 2) {
		t.Error("fully blocked move reported valid")
	}
	g.Set(0, 0)
	if slices.Contains(g.HorizontalCutRows(g.Bounds()), 0) {
		t.Error("move from occupied cell must be invalid")
	}
	open := New(5, 2)
	if !slices.Contains(open.VerticalCutCols(open.Bounds()), 0) {
		t.Error("vertical move in open space should be valid")
	}
	walled := New(3, 2)
	walled.Set(0, 1)
	walled.Set(1, 1)
	if slices.Contains(walled.VerticalCutCols(walled.Bounds()), 0) {
		t.Error("vertical move blocked straight+diagonals should be invalid")
	}
}

// TestCellConversion pins the one rounding rule (Size and Cells) that
// FromRects rasterises with and the segmenter's stretch search reads
// element edges through: every partly covered cell counts, clamped to
// the raster.
func TestCellConversion(t *testing.T) {
	bounds := geom.Rect{W: 100, H: 50}
	w, h := Size(bounds, 2)
	if w != 200 || h != 100 {
		t.Fatalf("grid size %dx%d", w, h)
	}
	cases := []struct {
		r    geom.Rect
		want IntRect
	}{
		{geom.Rect{X: 10, Y: 5, W: 20, H: 10}, IntRect{20, 10, 60, 30}},
		{geom.Rect{X: 10.2, Y: 5, W: 0.1, H: 10}, IntRect{20, 10, 21, 30}},     // partly covered cell
		{geom.Rect{X: -10, Y: -10, W: 1000, H: 1000}, IntRect{0, 0, 200, 100}}, // clamped
	}
	for _, c := range cases {
		if got := Cells(bounds, c.r, 2, w, h); got != c.want {
			t.Errorf("Cells(%v) = %v, want %v", c.r, got, c.want)
		}
	}
	for _, r := range []geom.Rect{
		{X: 10, Y: 5, W: 0, H: 10},   // zero width on a cell boundary
		{X: 120, Y: 5, W: 10, H: 10}, // past the raster
	} {
		if got := Cells(bounds, r, 2, w, h); !got.Empty() {
			t.Errorf("Cells(%v) = %v, want empty", r, got)
		}
	}
	g := FromRects(bounds, []geom.Rect{{X: 10.2, Y: 5, W: 0.1, H: 10}}, 2)
	if g.W != w || g.H != h || !g.Occupied(20, 10) || g.Occupied(21, 10) || g.Occupied(20, 30) {
		t.Error("FromRects does not mark exactly the cells Cells reports")
	}
}

// Property: every returned cut row actually admits a seam — verified by
// replaying the DP with an explicit path search.
func TestCutRowsAdmitPaths(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New(16, 12)
		for i := 0; i < 10; i++ {
			x, y := r.Intn(14), r.Intn(10)
			w, h := 1+r.Intn(4), 1+r.Intn(3)
			for yy := y; yy < y+h && yy < 12; yy++ {
				for xx := x; xx < x+w && xx < 16; xx++ {
					g.Set(xx, yy)
				}
			}
		}
		rows := g.HorizontalCutRows(g.Bounds())
		cutSet := map[int]bool{}
		for _, y := range rows {
			cutSet[y] = true
		}
		// Exhaustive check via forward BFS from each starting row.
		for y0 := 0; y0 < 12; y0++ {
			has := seamExists(g, y0)
			if has != cutSet[y0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// seamExists does an explicit forward search for a drift-±1 whitespace seam
// from (0, y0) to the right edge.
func seamExists(g *Grid, y0 int) bool {
	if !g.Whitespace(0, y0) {
		return false
	}
	frontier := map[int]bool{y0: true}
	for x := 1; x < g.W; x++ {
		next := map[int]bool{}
		for y := range frontier {
			for dy := -1; dy <= 1; dy++ {
				ny := y + dy
				if g.Whitespace(x, ny) {
					next[ny] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		frontier = next
	}
	return true
}

func TestIntRectHelpers(t *testing.T) {
	r := IntRect{1, 2, 5, 9}
	if r.W() != 4 || r.H() != 7 || r.Empty() {
		t.Errorf("IntRect helpers wrong: %v", r)
	}
	if !(IntRect{3, 3, 3, 9}).Empty() {
		t.Error("zero-width rect should be empty")
	}
	if (IntRect{}).String() == "" {
		t.Error("String should be non-empty")
	}
}
