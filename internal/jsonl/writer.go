package jsonl

import (
	"bufio"
	"io"
)

// Writer emits result lines in input order while concurrent producers
// finish them in any order. Each line is written once it and every line
// before it are ready, and the buffer is flushed whenever no further
// line is waiting to be handed over: lines that become ready together
// share one write, and a ready line never waits for later ones. The
// flush decision reads only what is already waiting, so it needs no
// tuning and changes no output byte.
type Writer struct {
	lines chan entry
	done  chan struct{}
	err   error
}

type entry struct {
	index  int
	line   []byte
	onEmit func()
}

// NewWriter starts a Writer over w. depth is the number of lines that
// can be handed over without waiting for the writer; callers pass their
// in-flight window, so a finished document never waits on a slow write
// to hand over its line.
func NewWriter(w io.Writer, depth int) *Writer {
	ow := &Writer{lines: make(chan entry, depth), done: make(chan struct{})}
	go ow.run(bufio.NewWriterSize(w, 64<<10))
	return ow
}

// Put hands over the line of the document at index, counted from 0 in
// input order. onEmit, when not nil, runs on the writer's goroutine in
// index order once the line has been released for writing. An index
// already handed over is dropped, so each line is emitted at most once.
// Put must not be called after Close.
func (ow *Writer) Put(index int, line []byte, onEmit func()) {
	ow.lines <- entry{index: index, line: line, onEmit: onEmit}
}

// Close waits until every line handed over has been written and
// flushed, and returns the first write or flush error. After an error
// the remaining lines are still released, and their onEmit still runs,
// but nothing more is written.
func (ow *Writer) Close() error {
	close(ow.lines)
	<-ow.done
	return ow.err
}

func (ow *Writer) run(bw *bufio.Writer) {
	defer close(ow.done)
	pending := map[int]entry{}
	next := 0
	for e := range ow.lines {
		if _, dup := pending[e.index]; !dup && e.index >= next {
			pending[e.index] = e
		}
		for r, ok := pending[next]; ok; r, ok = pending[next] {
			// bufio.Writer keeps its first error and refuses every later
			// write; the Flush below reports it.
			_, _ = bw.Write(r.line)
			_ = bw.WriteByte('\n')
			if r.onEmit != nil {
				r.onEmit()
			}
			delete(pending, next)
			next++
		}
		if len(ow.lines) == 0 {
			ow.err = bw.Flush()
		}
	}
	ow.err = bw.Flush()
}
