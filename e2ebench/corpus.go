package main

// Seeded corpora. Every workload draws its documents from the run seed
// alone, so one seed reproduces one run's input byte for byte. No
// document repeats within a run: the process-wide lexicon word caches and
// the template cache are keyed by content, so a repeat would fake a hit.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"vs2"
)

// item is one generated document: the JSONL line the system under test
// receives (the bare document, never the ground truth), plus the parsed
// document and its truth for the prefix the run scores and checks.
type item struct {
	id    string
	line  []byte // newline-terminated
	doc   *vs2.Document
	truth *vs2.GroundTruth
}

// corpus is one workload's document source: a generator of n clean
// labelled documents for a generator seed, and whether each document then
// passes through the OCR channel its capture mode dictates.
type corpus struct {
	gen   func(n int, seed int64) []vs2.Labeled
	noisy bool
}

var (
	eventPosters = corpus{gen: vs2.GenerateEventPosters, noisy: true}
	templateDocs = corpus{gen: templateCorpus}
)

// genSeed maps the run seed onto the dataset generators' seed, which
// treat 0 as "default 1": every run seed must select its own corpus.
func genSeed(seed int64) int64 { return seed*7919 + 104729 }

// makeCorpus generates n documents, then runs the OCR channel and the
// JSONL encoding in two parallel halves (generation happens before the
// system under test starts, so it competes with nothing). Only the first
// keep items retain their document and truth; the rest keep just their
// line, which bounds memory for the large template pools. The generators
// draw each document from its own index-seeded stream, so a longer pool
// extends a shorter one.
func makeCorpus(c corpus, seed int64, n, keep int) ([]item, error) {
	gs := genSeed(seed)
	labeled := c.gen(n, gs)
	items := make([]item, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for i := half * n / 2; i < (half+1)*n/2; i++ {
				l := labeled[i]
				if c.noisy {
					l = vs2.OCRNoise(l, gs+int64(i))
				}
				data, err := json.Marshal(l.Doc)
				if err != nil {
					errs[half] = fmt.Errorf("encode %s: %w", l.Doc.ID, err)
					return
				}
				it := item{id: l.Doc.ID, line: append(data, '\n')}
				if i < keep {
					it.doc, it.truth = l.Doc, l.Truth
				}
				items[i] = it
				labeled[i] = vs2.Labeled{} // release the clean copy
			}
		}(half)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// templateLayouts is the number of recurring layouts in the
// template-batch corpus.
const templateLayouts = 8

// templateCorpus is the template-batch corpus: each document re-instances
// one of templateLayouts recurring single-column layouts with fresh field
// values of the same text shape and geometry jittered by up to ±1.9 units,
// inside the cache's default tolerance band (quantum/2 = 2). The layout
// rules follow the template cache's differential suite: a 4-unit grid,
// two-element label/value blocks, and inter-block gaps past the Eq. 1
// merge ceiling and distinct enough that Algorithm 1 ranks the
// delimiters identically for every jittered instance.
func templateCorpus(n int, seed int64) []vs2.Labeled {
	out := make([]vs2.Labeled, 0, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		out = append(out, templateDoc(fmt.Sprintf("tb-%06d", i), rng.Intn(templateLayouts), rng))
	}
	return out
}

// Field values keep a fixed text length per label, so every instance of
// a layout has the same word widths.
var (
	brokerNames = []string{"Burke", "Hayes", "Lopez", "Mills", "Stone", "Drake"}
	fieldLabels = [4]string{"Broker", "Phone", "Email", "Price"}
)

func templateDoc(id string, tpl int, rng *rand.Rand) vs2.Labeled {
	jit := func() float64 { return rng.Float64()*3.8 - 1.9 }
	d := &vs2.Document{ID: id, Width: 400, Height: 560}
	truth := &vs2.GroundTruth{DocID: id}
	font := []float64{10, 12, 14}[tpl%3]
	round4 := func(v float64) float64 { return float64(int((v+2)/4)) * 4 }
	addWord := func(x, y float64, text string, line int) vs2.Rect {
		box := vs2.Rect{X: x + jit(), Y: y + jit(), W: round4(float64(len(text)) * font * 0.55), H: round4(font)}
		d.Elements = append(d.Elements, vs2.Element{
			ID: len(d.Elements), Kind: vs2.TextElement, Text: text, Box: box, FontSize: font, Line: line,
		})
		return box
	}
	pitches := []float64{96, 128, 160}
	if tpl%2 == 1 {
		pitches = []float64{160, 128, 96}
	}
	y := 40 + 4*float64(tpl)
	for b := 0; b < 3+tpl%2; b++ {
		label := fieldLabels[(b+tpl)%4]
		addWord(40, y, label, b)
		x := 40 + round4(float64(len(label))*font*0.55) + 4
		name := brokerNames[rng.Intn(len(brokerNames))]
		var value, entity string
		switch label {
		case "Broker":
			value, entity = name, vs2.BrokerName
		case "Phone":
			value, entity = fmt.Sprintf("614-555-%04d", rng.Intn(10000)), vs2.BrokerPhone
		case "Email":
			value, entity = fmt.Sprintf("%c%c%c%c%c@homes.com", 'a'+rng.Intn(26), 'a'+rng.Intn(26), 'a'+rng.Intn(26), 'a'+rng.Intn(26), 'a'+rng.Intn(26)), vs2.BrokerEmail
		default:
			value = fmt.Sprintf("$%d%d%d,900", 1+rng.Intn(9), rng.Intn(10), rng.Intn(10))
		}
		box := addWord(x, y, value, b)
		if entity != "" {
			truth.Annotations = append(truth.Annotations, vs2.Annotation{Entity: entity, Box: box, Text: value})
		}
		if b < len(pitches) {
			y += pitches[b]
		}
	}
	return vs2.Labeled{Doc: d, Truth: truth}
}
