// Package jsonl frames the JSONL document streams that vs2serve and vs2d
// read and write: ScanLines reads one bounded line at a time,
// DecodeDocument accepts a bare or labelled document, and Writer emits
// one reply line per document in input order, each as soon as it and
// every earlier line of its stream are ready.
package jsonl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vs2/internal/doc"
)

// ScanLines streams the JSONL input line by line, invoking fn for each
// non-blank line. Errors carry the input name and 1-based line number;
// a line longer than maxLine aborts rather than silently truncating.
// fn must not keep the slice it is passed after it returns.
func ScanLines(r io.Reader, name string, maxLine int, fn func(raw []byte) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	for lineNo := 1; ; lineNo++ {
		line, err := readLimitedLine(br, maxLine)
		if err == errLineTooLong {
			return fmt.Errorf("%s:%d: line exceeds -max-line %d bytes", name, lineNo, maxLine)
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("%s:%d: %w", name, lineNo, err)
		}
		trimmed := trimSpace(line)
		if len(trimmed) > 0 {
			if ferr := fn(trimmed); ferr != nil {
				return fmt.Errorf("%s:%d: %w", name, lineNo, ferr)
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

var errLineTooLong = errors.New("line too long")

// readLimitedLine reads one '\n'-terminated line (newline stripped),
// failing with errLineTooLong once the line outruns max instead of
// buffering it.
func readLimitedLine(br *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		switch {
		case err == nil:
			line = line[:len(line)-1]
			if len(line) > max {
				return nil, errLineTooLong
			}
			return line, nil
		case err == bufio.ErrBufferFull:
			if len(line) > max {
				return nil, errLineTooLong
			}
		default:
			if len(line) > max {
				return nil, errLineTooLong
			}
			return line, err
		}
	}
}

func trimSpace(b []byte) []byte {
	start := 0
	for start < len(b) && (b[start] == ' ' || b[start] == '\t' || b[start] == '\r') {
		start++
	}
	end := len(b)
	for end > start && (b[end-1] == ' ' || b[end-1] == '\t' || b[end-1] == '\r') {
		end--
	}
	return b[start:end]
}

// DecodeDocument accepts a labelled document or a bare one, matching
// the vs2 command's loader: a line that decodes as a labelled document
// with a non-null "doc" yields that document, and any other line is
// decoded as a bare one. A single decode into both shapes at once
// settles the common case; only a line that decode rejects is decoded
// the two ways the rule names, so the result is the rule's for every
// input.
func DecodeDocument(raw []byte) (*doc.Document, error) {
	var both struct {
		doc.Document
		Doc *doc.Document `json:"doc"`
		// Never read: decoded so that a truth the labelled shape rejects
		// rejects this decode too.
		Truth *doc.GroundTruth `json:"truth"`
	}
	if err := json.Unmarshal(raw, &both); err == nil {
		if both.Doc != nil {
			return both.Doc, nil
		}
		return &both.Document, nil
	}
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
