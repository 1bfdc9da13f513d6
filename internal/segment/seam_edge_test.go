package segment

import (
	"strings"
	"testing"

	"vs2/internal/colorlab"
	"vs2/internal/doc"
	"vs2/internal/geom"
	"vs2/internal/grid"
)

// Regression suite for the seam-search edge cases: degenerate 1×N and
// N×1 areas, zero-extent areas, empty pages and zero-size elements.
// The seed implementation indexed a constant-cut path through classify
// with an unclamped -1 when the path was empty (a zero-width grid under
// StraightCutsOnly); these tests pin the guards and verify the stretch
// search and the raster oracle agree on every degenerate shape.

// sepsEqual compares two separator lists field by field.
func sepsEqual(a, b []separator) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].horizontal != b[i].horizontal ||
			a[i].width != b[i].width ||
			a[i].nbH != b[i].nbH ||
			a[i].minSide != b[i].minSide ||
			len(a[i].above) != len(b[i].above) {
			return false
		}
		for j := range a[i].above {
			if a[i].above[j] != b[i].above[j] {
				return false
			}
		}
	}
	return true
}

func TestClassifyEmptyPath(t *testing.T) {
	boxes := []geom.Rect{{X: 1, Y: 1, W: 2, H: 2}, {X: 1, Y: 4, W: 2, H: 2}}
	above := classify(1, boxes, nil, true)
	if len(above) != len(boxes) {
		t.Fatalf("classify returned %d sides for %d boxes", len(above), len(boxes))
	}
	for i, a := range above {
		if a {
			t.Errorf("box %d classified above an empty seam", i)
		}
	}
}

func TestSeparatorSearchOnDegenerateGrids(t *testing.T) {
	boxes := []geom.Rect{{X: 0, Y: 0, W: 1, H: 1}, {X: 0, Y: 3, W: 1, H: 1}}
	shapes := []struct{ w, h int }{{0, 0}, {0, 5}, {5, 0}, {1, 1}}
	for _, sh := range shapes {
		area := geom.Rect{W: float64(sh.w), H: float64(sh.h)}
		g := grid.FromRects(area, boxes, 1)
		for _, horizontal := range []bool{true, false} {
			if got := checkedSeparators(t, area, boxes, 1, horizontal); len(got) != 0 {
				t.Errorf("findSeparators on %dx%d (horizontal=%v) = %d seps, want none", sh.w, sh.h, horizontal, len(got))
			}
			if got := findStraightSeparators(g, boxes, horizontal); len(got) != 0 {
				t.Errorf("findStraightSeparators on %dx%d (horizontal=%v) = %d seps, want none", sh.w, sh.h, horizontal, len(got))
			}
		}
	}
}

// TestSeamsOnThinGrids drives both implementations over 1×N and N×1
// areas — seams of length one and lanes of width one, where every drift
// move is at the area edge — and requires identical separators.
func TestSeamsOnThinGrids(t *testing.T) {
	// N×1: a single row; vertical seams have length 1, horizontal seams
	// have one lane.
	wide := geom.Rect{W: 9, H: 1}
	wideBoxes := []geom.Rect{{X: 2, Y: 0, W: 1, H: 1}, {X: 6, Y: 0, W: 1, H: 1}}

	// 1×N: a single column.
	tall := geom.Rect{W: 1, H: 9}
	tallBoxes := []geom.Rect{{X: 0, Y: 2, W: 1, H: 1}, {X: 0, Y: 6, W: 1, H: 1}}

	cases := []struct {
		name  string
		area  geom.Rect
		boxes []geom.Rect
	}{{"9x1", wide, wideBoxes}, {"1x9", tall, tallBoxes}}
	for _, c := range cases {
		for _, horizontal := range []bool{true, false} {
			checkedSeparators(t, c.area, c.boxes, 1, horizontal)
		}
	}
	// Sanity: the single-column area must still find the horizontal gap
	// between the two occupied cells.
	if seps := findSeparators(tall, tallBoxes, 1, true); len(seps) == 0 {
		t.Error("1x9 area: no horizontal separator found across the middle gap")
	}
}

// TestSegmentEmptyAndZeroSizePages runs every segmenter mode over pages
// that rasterise to zero-extent or near-empty grids. The seed
// implementation panicked (path[-1] in classify) on a zero-width page
// under StraightCutsOnly.
func TestSegmentEmptyAndZeroSizePages(t *testing.T) {
	zeroWidth := &doc.Document{ID: "zw", Width: 0, Height: 60, Background: colorlab.White}
	for i := 0; i < 4; i++ {
		zeroWidth.Elements = append(zeroWidth.Elements, doc.Element{
			ID: i, Kind: doc.TextElement, Text: "word",
			Box: geom.Rect{X: 0, Y: float64(i * 15), W: 0, H: 8}, Line: i,
		})
	}
	zeroHeight := &doc.Document{ID: "zh", Width: 60, Height: 0, Background: colorlab.White}
	for i := 0; i < 4; i++ {
		zeroHeight.Elements = append(zeroHeight.Elements, doc.Element{
			ID: i, Kind: doc.TextElement, Text: "word",
			Box: geom.Rect{X: float64(i * 15), Y: 0, W: 8, H: 0}, Line: 0,
		})
	}
	emptyPage := &doc.Document{ID: "empty", Width: 100, Height: 100, Background: colorlab.White}
	pointElems := &doc.Document{ID: "points", Width: 50, Height: 50, Background: colorlab.White}
	for i := 0; i < 5; i++ {
		pointElems.Elements = append(pointElems.Elements, doc.Element{
			ID: i, Kind: doc.TextElement, Text: "p",
			Box: geom.Rect{X: float64(i * 10), Y: float64(i * 10), W: 0, H: 0}, Line: -1,
		})
	}

	docs := []*doc.Document{zeroWidth, zeroHeight, emptyPage, pointElems}
	segmenters := map[string]*Segmenter{
		"default":    New(Options{}),
		"parallel":   New(Options{Parallel: 4}),
		"reference":  NewReference(Options{}),
		"straight":   New(Options{StraightCutsOnly: true}),
		"nocluster":  New(Options{DisableClustering: true}),
		"straight-p": New(Options{StraightCutsOnly: true, Parallel: 4}),
	}
	for _, d := range docs {
		var wantDump string
		for _, name := range []string{"default", "parallel", "reference", "straight", "nocluster", "straight-p"} {
			s := segmenters[name]
			root := s.Segment(d) // must not panic
			if root == nil {
				t.Fatalf("%s on %s: nil tree", name, d.ID)
			}
			if err := root.Validate(); err != nil {
				t.Fatalf("%s on %s: invalid tree: %v", name, d.ID, err)
			}
			// All modes except the ablations must agree exactly.
			if name == "default" {
				wantDump = root.Dump(d)
			}
			if (name == "parallel" || name == "reference") && root.Dump(d) != wantDump {
				t.Fatalf("%s on %s: tree diverges from default sequential", name, d.ID)
			}
		}
	}
}

// TestSeamDriftAtGridEdges pins the drift-clamp audit: a seam forced to
// drift along the first and last lanes must stay in range. The dogleg
// layout funnels every horizontal seam through a one-cell gap adjacent
// to the grid edge.
func TestSeamDriftAtGridEdges(t *testing.T) {
	b := newBuilder(40, 12)
	// Top-left block and bottom-right block leave only an S-shaped
	// whitespace channel touching both horizontal edges.
	b.row(0, 0, 4, colorlab.Black, "alpha", "beta")
	b.row(12, 8, 4, colorlab.Black, "gamma", "delta")
	d := b.d

	for _, s := range []*Segmenter{New(Options{}), NewReference(Options{}), New(Options{Parallel: 4})} {
		root := s.Segment(d)
		if root == nil || len(root.Leaves()) == 0 {
			t.Fatal("no blocks from dogleg layout")
		}
	}
	seq := New(Options{}).Segment(d).Dump(d)
	ref := NewReference(Options{}).Segment(d).Dump(d)
	if seq != ref {
		t.Fatalf("dogleg layout: optimised and reference trees diverge\n--- optimised ---\n%s\n--- reference ---\n%s", seq, ref)
	}
	if !strings.Contains(seq, "depth") && seq == "" {
		t.Fatal("empty dump")
	}
}
