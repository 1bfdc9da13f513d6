package jsonl

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vs2/internal/datasets"
	"vs2/internal/doc"
)

// decodeTwoStep is the loader rule DecodeDocument implements, decoded
// the two ways the rule names: the oracle for its single-decode path.
func decodeTwoStep(raw []byte) (*doc.Document, error) {
	var l doc.Labeled
	if err := json.Unmarshal(raw, &l); err == nil && l.Doc != nil {
		return l.Doc, nil
	}
	var d doc.Document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// TestDecodeDocumentMatchesTwoStep: DecodeDocument returns exactly what
// the two-step decode returns — the same document or the same error —
// for bare and labelled documents, every shape the rule treats
// specially, malformed lines, and every line of the repository's
// testdata files.
func TestDecodeDocumentMatchesTwoStep(t *testing.T) {
	var lines [][]byte
	add := func(raw []byte) { lines = append(lines, raw) }
	mustJSON := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, gen := range [][]doc.Labeled{
		datasets.GenerateD1(datasets.Options{N: 2, Seed: 7}),
		datasets.GenerateD2(datasets.Options{N: 3, Seed: 7}),
		datasets.GenerateD3(datasets.Options{N: 3, Seed: 7}),
	} {
		for _, l := range gen {
			add(mustJSON(l))     // labelled
			add(mustJSON(l.Doc)) // bare
		}
	}
	poster := mustJSON(datasets.GenerateD2(datasets.Options{N: 1, Seed: 3})[0].Doc)
	for _, s := range []string{
		// Labelled with a truth that does not decode: the labelled decode
		// fails, so the line is read as a (here empty) bare document.
		`{"doc":` + string(poster) + `,"truth":5}`,
		`{"doc":` + string(poster) + `,"truth":{"annotations":"none"}}`,
		// A null or missing doc falls through to the bare shape.
		`{"doc":null,"id":"bare","width":3,"height":4}`,
		`{"doc":null}`,
		`{"truth":{},"id":"truth-only"}`,
		// Top-level fields beside doc: doc wins, whatever they hold.
		`{"doc":{"id":"inner"},"id":"outer","width":9}`,
		`{"doc":{"id":"inner"},"width":"wide"}`,
		`{"doc":{"id":"inner"},"elements":5,"truth":null}`,
		// A doc of the wrong type is an unknown field to the bare shape.
		`{"doc":5,"id":"bare"}`,
		`{"doc":"text"}`,
		`{"doc":{"id":7},"id":"bare"}`,
		// Duplicate and case-folded keys.
		`{"doc":{"id":"a","width":1},"doc":{"id":"b"}}`,
		`{"doc":{"id":"a"},"doc":null,"id":"c"}`,
		`{"DOC":{"id":"folded"}}`,
		`{"ID":"folded","Width":2}`,
		`{"Truth":7,"id":"x"}`,
		// Malformed lines.
		``, `{`, `not json`, `[]`, `[1,2]`, `"str"`, `null`, `42`, `{"id":5}`,
		`{"id":"x"} trailing`, `{"elements":[{"kind":{}}]}`, `{"doc":{"id":"x"}`,
	} {
		add([]byte(s))
	}
	for _, dir := range []string{"../../testdata", "../../cmd/vs2trace/testdata"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			add(data)
			for _, line := range bytes.Split(data, []byte("\n")) {
				add(line)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, raw := range lines {
		got, gotErr := DecodeDocument(raw)
		want, wantErr := decodeTwoStep(raw)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("line %d %.80q: error %v, want %v", i, raw, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("line %d %.80q: document differs from the two-step decode", i, raw)
		}
	}
}
