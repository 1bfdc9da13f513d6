package segment

import (
	"math"
	"math/rand"
	"testing"

	"vs2/internal/doc"
	"vs2/internal/geom"
	"vs2/internal/grid"
)

// checkedSeparators runs the stretch search and the raster oracle
// (refFindSeparators over grid.FromRects of the same boxes) and fails
// the test unless they return the same separators.
func checkedSeparators(t *testing.T, area geom.Rect, boxes []geom.Rect, scale float64, horizontal bool) []separator {
	t.Helper()
	got := findSeparators(area, boxes, scale, horizontal)
	want := refFindSeparators(grid.FromRects(area, boxes, scale), boxes, horizontal)
	if !sepsEqual(got, want) {
		t.Fatalf("area %v scale %v horizontal=%v boxes %v:\nstretch search %+v\nraster oracle  %+v",
			area, scale, horizontal, boxes, got, want)
	}
	return got
}

func TestFindSeparatorsTwoBands(t *testing.T) {
	// Two stacked boxes with a clean gutter: exactly one horizontal
	// separator, splitting element 0 from element 1.
	boxes := []geom.Rect{
		{X: 0, Y: 0, W: 40, H: 10},
		{X: 0, Y: 25, W: 40, H: 10},
	}
	seps := checkedSeparators(t, geom.Rect{W: 40, H: 35}, boxes, 1, true)
	if len(seps) != 1 {
		t.Fatalf("separators = %d", len(seps))
	}
	s := seps[0]
	if !s.above[0] || s.above[1] {
		t.Errorf("partition wrong: %v", s.above)
	}
	if s.width < 10 || s.width > 16 {
		t.Errorf("separator width = %v, want ≈15", s.width)
	}
	if s.nbH != 10 {
		t.Errorf("neighbour height = %v", s.nbH)
	}
	if s.minSide != 1 {
		t.Errorf("minSide = %d", s.minSide)
	}
}

func TestFindSeparatorsMarginSeamsExcluded(t *testing.T) {
	// A single box: every seam puts all elements on one side, so no
	// separator may be reported.
	boxes := []geom.Rect{{X: 10, Y: 10, W: 20, H: 10}}
	area := geom.Rect{W: 60, H: 40}
	if seps := checkedSeparators(t, area, boxes, 1, true); len(seps) != 0 {
		t.Errorf("margin seams reported: %d", len(seps))
	}
	if seps := checkedSeparators(t, area, boxes, 1, false); len(seps) != 0 {
		t.Errorf("vertical margin seams reported: %d", len(seps))
	}
}

// TestFindSeparatorsMatchesRaster is the node-level oracle: seeded
// random box sets — boxes spilling past the area, zero width or height,
// integral and fractional coordinates — searched at several raster
// scales in both directions must give exactly the raster's separators.
func TestFindSeparatorsMatchesRaster(t *testing.T) {
	sets := 1200
	if testing.Short() {
		sets = 150
	}
	scales := []float64{0.37, 0.5, 1, 1.3, 2}
	rng := rand.New(rand.NewSource(23))
	coord := func(lo, hi float64, integral bool) float64 {
		v := lo + rng.Float64()*(hi-lo)
		if integral {
			return math.Round(v)
		}
		return v
	}
	for set := 0; set < sets; set++ {
		integral := set%2 == 0
		area := geom.Rect{W: coord(1, 90, integral), H: coord(1, 90, integral)}
		boxes := make([]geom.Rect, rng.Intn(12))
		for i := range boxes {
			b := geom.Rect{
				X: coord(-8, area.W+4, integral),
				Y: coord(-8, area.H+4, integral),
				W: coord(0, area.W/3, integral),
				H: coord(0, area.H/4, integral),
			}
			switch rng.Intn(8) {
			case 0:
				b.W = 0
			case 1:
				b.H = 0
			}
			boxes[i] = b
		}
		for _, scale := range scales {
			checkedSeparators(t, area, boxes, scale, true)
			checkedSeparators(t, area, boxes, scale, false)
		}
	}
}

func TestPartitionBySeparators(t *testing.T) {
	n := &doc.Node{Elements: []int{7, 8, 9, 10}}
	seps := []separator{
		{above: []bool{true, true, false, false}},
		{above: []bool{true, false, false, false}},
	}
	groups := partitionBySeparators(n, seps)
	// Keys: (t,t)=7, (t,f)=8, (f,f)=9,10 — three groups in first-seen order.
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0][0] != 7 || groups[1][0] != 8 || len(groups[2]) != 2 {
		t.Errorf("partition = %v", groups)
	}
	if partitionBySeparators(n, nil) != nil {
		t.Error("no separators should partition to nil")
	}
}

func TestIdentifyDelimitersGuards(t *testing.T) {
	// Uniform small gaps: nothing is a delimiter.
	uniform := []separator{
		{width: 5, nbH: 12}, {width: 5.2, nbH: 12}, {width: 4.9, nbH: 12},
	}
	if got := identifyDelimiters(uniform); len(got) != 0 {
		t.Errorf("uniform gaps produced %d delimiters", len(got))
	}
	// One dominant gap among line spacing: one delimiter.
	mixed := []separator{
		{width: 4, nbH: 12}, {width: 40, nbH: 12}, {width: 4.5, nbH: 12},
	}
	got := identifyDelimiters(mixed)
	if len(got) != 1 || got[0].width != 40 {
		t.Errorf("mixed gaps delimiters = %+v", got)
	}
	if identifyDelimiters(nil) != nil {
		t.Error("no separators should identify to nil")
	}
	// Zero neighbour height entries are ignored gracefully.
	weird := []separator{{width: 10, nbH: 0}}
	if got := identifyDelimiters(weird); len(got) != 0 {
		t.Errorf("zero-nbH separator kept: %+v", got)
	}
}

func TestMaxDelimiterCap(t *testing.T) {
	var many []separator
	for i := 0; i < 10; i++ {
		many = append(many, separator{width: 30 + float64(i), nbH: 10})
	}
	if got := identifyDelimiters(many); len(got) > 4 {
		t.Errorf("delimiter cap violated: %d", len(got))
	}
}
