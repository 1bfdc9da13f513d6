package vs2

// FuzzExtract drives the full hardened pipeline on arbitrary JSON: any
// input that decodes must extract without a panic or hang, and any failure
// must surface as a structured *Error.
//
// FuzzParallelSegment drives the branch-parallel segmenter on arbitrary
// element geometry: no panic, no goroutine leak, and output identical
// to the sequential recursion on every input.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vs2/internal/segment"
)

func FuzzExtract(f *testing.F) {
	if data, err := EncodeDocument(chaosDoc()); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":"x","width":10,"height":10}`))
	f.Add([]byte(`{"id":"x","width":10,"height":10,"elements":[{"id":0,"kind":"text","text":"hi","box":{"x":1,"y":1,"w":5,"h":2}}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"id":"x","width":1e999,"height":10}`))
	p := NewPipeline(Config{
		Task: EventPosterTask(),
		Budgets: Budgets{
			Segment:      2 * time.Second,
			Search:       2 * time.Second,
			Disambiguate: 2 * time.Second,
		},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDocument(data)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := p.ExtractContext(ctx, d)
		if err != nil {
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("unstructured pipeline error: %T %v", err, err)
			}
			return
		}
		if res == nil {
			t.Fatal("nil result with nil error")
		}
	})
}

// fuzzDoc decodes raw fuzz bytes into a document: 5 bytes per element
// (x, y, w, h, style), on a 256×256 page, with the seed driving word
// choice. Zero-size boxes, off-page boxes and duplicate geometry all
// occur naturally — exactly the degenerate shapes the seam search must
// survive.
func fuzzDoc(data []byte, seed int64) *Document {
	const perElem = 5
	n := len(data) / perElem
	if n == 0 {
		return nil
	}
	if n > 64 {
		n = 64 // bound segmentation cost per fuzz iteration
	}
	rng := newRand(seed)
	d := &Document{ID: "fuzz", Width: 256, Height: 256}
	for i := 0; i < n; i++ {
		b := data[i*perElem : (i+1)*perElem]
		e := Element{
			ID:   i,
			Kind: TextElement,
			Text: diffVocab[rng.Intn(len(diffVocab))],
			Box: Rect{
				X: float64(b[0]),
				Y: float64(b[1]),
				W: float64(b[2]) / 4, // small enough that layouts have whitespace
				H: float64(b[3]) / 16,
			},
			Color:    RGB{R: b[4], G: b[4] / 2, B: 255 - b[4]},
			FontSize: float64(b[3]) / 16,
			Line:     -1,
		}
		if b[4]%7 == 0 {
			e.Kind = ImageElement
			e.Text = ""
			e.ImageData = "img"
		}
		d.Elements = append(d.Elements, e)
	}
	return d
}

func FuzzParallelSegment(f *testing.F) {
	f.Add([]byte{10, 10, 40, 32, 1, 10, 60, 40, 32, 1, 150, 10, 40, 32, 9}, int64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 255, 255, 255, 255, 255}, int64(7)) // zero-size + off-page
	f.Add(func() []byte {                                           // a banded layout likely to recurse several levels
		var buf []byte
		for row := 0; row < 8; row++ {
			for col := 0; col < 3; col++ {
				buf = append(buf, byte(10+80*col), byte(10+30*row), 120, 100, byte(row*col))
			}
		}
		return buf
	}(), int64(42))

	seq := segment.New(segment.Options{Parallel: 1})
	par := segment.New(segment.Options{Parallel: 8})
	ref := segment.NewReference(segment.Options{})

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		d := fuzzDoc(data, seed)
		if d == nil {
			return
		}
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()

		seqTree, seqErr := seq.SegmentContext(ctx, d)
		parTree, parErr := par.SegmentContext(ctx, d)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("error mismatch: sequential=%v parallel=%v", seqErr, parErr)
		}
		if seqErr == nil && seqTree.Dump(d) != parTree.Dump(d) {
			t.Fatalf("parallel tree diverges from sequential on fuzz input\nelements=%d seed=%d", len(d.Elements), seed)
		}
		refTree, refErr := ref.SegmentContext(ctx, d)
		if (seqErr == nil) != (refErr == nil) {
			t.Fatalf("error mismatch: sequential=%v reference=%v", seqErr, refErr)
		}
		if seqErr == nil && seqTree.Dump(d) != refTree.Dump(d) {
			t.Fatalf("sequential tree diverges from the reference on fuzz input\nelements=%d seed=%d", len(d.Elements), seed)
		}

		// The parallel segmenter joins every forked goroutine before
		// returning; give the runtime a moment to retire them, then
		// require the count back at (or below) the baseline.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("goroutine leak: %d before, %d after segmentation", before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestFuzzDocDecoding keeps the fuzz-input decoder itself honest: the
// corpus entries above must decode into non-trivial documents, and the
// element cap must hold.
func TestFuzzDocDecoding(t *testing.T) {
	if d := fuzzDoc(nil, 1); d != nil {
		t.Fatal("empty input must yield no document")
	}
	big := make([]byte, 5*200)
	if err := binaryFill(big); err != nil {
		t.Fatal(err)
	}
	d := fuzzDoc(big, 3)
	if d == nil || len(d.Elements) != 64 {
		t.Fatalf("element cap: got %v", d)
	}
}

func binaryFill(b []byte) error {
	for i := range b {
		b[i] = byte(i * 31)
	}
	if len(b) < binary.MaxVarintLen64 {
		return fmt.Errorf("short buffer")
	}
	return nil
}
