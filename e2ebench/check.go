package main

// Output checks. Every document sent must come back as exactly one line,
// in input order, carrying its id and no error; anything else counts as
// a failed document. Entities are compared, never whole lines: under load
// the sequential-recursion degradation note lands on a varying share of
// documents while their entities stay fixed.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"vs2"
	"vs2/internal/eval"
)

// replyLine is the part of an output line the checks read.
type replyLine struct {
	ID       string          `json:"id"`
	Entities json.RawMessage `json:"entities"`
	Degraded []string        `json:"degraded"`
	Error    string          `json:"error"`

	raw []byte // the line as served
}

// verdict is the checked outcome of one run's replies.
type verdict struct {
	attempted int
	failed    int // documents with an error, shed, missing, duplicated or out of order
	ok        []bool
	replies   []replyLine // by document index; zero when not ok
	problems  []string    // the first few failures, for the log
}

func (v *verdict) fail(format string, a ...any) {
	v.failed++
	if len(v.problems) < 5 {
		v.problems = append(v.problems, fmt.Sprintf(format, a...))
	}
}

// checkStream checks one ordered reply stream: lines[k] must answer
// docs[k]. A missing line leaves its document unanswered, and a line for
// the wrong document fails the document it stands in for (out of order or
// duplicated); lines beyond the documents sent fail as duplicates.
func checkStream(v *verdict, ids []string, idx []int, lines [][]byte) {
	for k, i := range idx {
		v.attempted++
		if k >= len(lines) || lines[k] == nil {
			v.fail("%s: no reply", ids[k])
			continue
		}
		var l replyLine
		if err := json.Unmarshal(lines[k], &l); err != nil {
			v.fail("%s: unparsable reply: %v", ids[k], err)
			continue
		}
		switch {
		case l.ID != ids[k]:
			v.fail("%s: reply %d carries id %q (out of order or duplicated)", ids[k], k, l.ID)
		case l.Error != "":
			v.fail("%s: error: %s", ids[k], l.Error)
		default:
			l.raw = lines[k]
			v.ok[i] = true
			v.replies[i] = l
		}
	}
	for k := len(idx); k < len(lines); k++ {
		v.fail("reply %d: duplicate line beyond the %d documents sent", k, len(idx))
	}
}

func newVerdict(n int) *verdict {
	return &verdict{ok: make([]bool, n), replies: make([]replyLine, n)}
}

// checkOpen checks an open-loop run: each connection is its own ordered
// stream over the documents sent on it.
func checkOpen(items []item, r *openRun, conns int) *verdict {
	v := newVerdict(len(items))
	for c := 0; c < conns; c++ {
		var ids []string
		var idx []int
		var lines [][]byte
		for i := c; i < len(items) && !r.sentAt[i].IsZero(); i += conns {
			ids, idx = append(ids, items[i].id), append(idx, i)
			lines = append(lines, r.lines[i])
		}
		checkStream(v, ids, idx, lines)
	}
	for k := 0; k < r.extra; k++ {
		v.fail("duplicate reply line beyond the documents sent")
	}
	return v
}

// entityF1 scores the replies of the first n documents against the
// generator's ground truth with the paper's end-to-end matching
// (internal/eval). The prefix is fixed per workload, so the score is a
// function of the seed alone.
func entityF1(items []item, v *verdict, n int) (float64, error) {
	var pr eval.PR
	for i := 0; i < n; i++ {
		if !v.ok[i] {
			return 0, fmt.Errorf("document %s has no valid reply to score", items[i].id)
		}
		var got []vs2.Extraction
		if len(v.replies[i].Entities) > 0 {
			if err := json.Unmarshal(v.replies[i].Entities, &got); err != nil {
				return 0, fmt.Errorf("%s: entities: %w", items[i].id, err)
			}
		}
		pr.Add(eval.EndToEndPR(got, items[i].truth))
	}
	return pr.F1(), nil
}

// checkReference extracts the first n documents in this process with the
// library pipeline and requires the served entities to match: no vs2d
// topology and no template cache may change what a document extracts to.
// Entity, text and score must be equal and boxes equal to within float
// rounding; it returns how many documents matched only to within
// rounding, which a template hit can cause (its remapped tree sums the
// same widths in another order).
func checkReference(items []item, v *verdict, task vs2.Task, n int) (rounded int, err error) {
	p := vs2.NewPipeline(vs2.Config{Task: task})
	for i := 0; i < n; i++ {
		if !v.ok[i] {
			continue // already failed
		}
		res, err := p.ExtractContext(context.Background(), items[i].doc)
		if err != nil {
			return rounded, fmt.Errorf("reference extraction of %s: %w", items[i].id, err)
		}
		var got []vs2.Extraction
		if len(v.replies[i].Entities) > 0 {
			if err := json.Unmarshal(v.replies[i].Entities, &got); err != nil {
				return rounded, fmt.Errorf("%s: entities: %w", items[i].id, err)
			}
		}
		exact, close := sameEntities(res.Entities, got)
		if !close {
			return rounded, fmt.Errorf("%s: served entities differ from the library pipeline's", items[i].id)
		}
		if !exact {
			rounded++
		}
	}
	return rounded, nil
}

// sameEntities compares two extraction lists: exact when every field is
// equal, close when only box coordinates differ, and by at most float
// rounding (1e-9 relative).
func sameEntities(want, got []vs2.Extraction) (exact, close bool) {
	if len(want) != len(got) {
		return false, false
	}
	exact = true
	near := func(a, b float64) bool {
		if a == b {
			return true
		}
		exact = false
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	nearBox := func(a, b vs2.Rect) bool {
		return near(a.X, b.X) && near(a.Y, b.Y) && near(a.W, b.W) && near(a.H, b.H)
	}
	for k := range want {
		w, g := want[k], got[k]
		if w.Entity != g.Entity || w.Text != g.Text || w.Score != g.Score || w.Distance != g.Distance ||
			!nearBox(w.Box, g.Box) || !nearBox(w.BlockBox, g.BlockBox) {
			return false, false
		}
	}
	return exact, true
}

// seqFallbacks counts checked replies carrying the sequential-recursion
// degradation note.
func seqFallbacks(v *verdict, idx []int) int {
	n := 0
	for _, i := range idx {
		for _, d := range v.replies[i].Degraded {
			if strings.Contains(d, "sequential-recursion") {
				n++
				break
			}
		}
	}
	return n
}
