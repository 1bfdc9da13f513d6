package jsonl

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestScanLinesTooLong: an oversized line aborts with a line-numbered
// error instead of being truncated.
func TestScanLinesTooLong(t *testing.T) {
	in := strings.NewReader("short\n" + strings.Repeat("x", 2048) + "\n")
	var got []string
	err := ScanLines(in, "test-input", 1024, func(raw []byte) error {
		got = append(got, string(raw))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "test-input:2") {
		t.Fatalf("ScanLines err = %v, want line-2 overflow", err)
	}
	if len(got) != 1 || got[0] != "short" {
		t.Fatalf("lines before overflow = %v, want [short]", got)
	}
}

// recorder records each Write call the Writer makes and signals it.
type recorder struct {
	mu     sync.Mutex
	writes []string
	wrote  chan struct{}
}

func newRecorder() *recorder { return &recorder{wrote: make(chan struct{}, 64)} }

func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, string(p))
	r.mu.Unlock()
	r.wrote <- struct{}{}
	return len(p), nil
}

func (r *recorder) all() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.writes...)
}

// TestWriterOrdersAndCoalesces: lines arriving out of order leave in
// index order, each index at most once, and the lines one arrival
// releases share a single write.
func TestWriterOrdersAndCoalesces(t *testing.T) {
	rec := newRecorder()
	ow := NewWriter(rec, 8)
	var emitted []int
	put := func(i int) {
		ow.Put(i, []byte{byte('a' + i)}, func() { emitted = append(emitted, i) })
	}
	put(2)
	put(1)
	put(2) // duplicate before emission
	put(0) // releases 0, 1 and 2 together
	<-rec.wrote
	put(1) // duplicate after emission
	put(3)
	if err := ow.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.all(), []string{"a\nb\nc\n", "d\n"}; !slices.Equal(got, want) {
		t.Fatalf("writes = %q, want %q", got, want)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(emitted, want) {
		t.Fatalf("onEmit order = %v, want %v", emitted, want)
	}
}

// TestWriterFlushesWhenIdle: a line that is ready is written while its
// stream is still open, without waiting for later lines or Close.
func TestWriterFlushesWhenIdle(t *testing.T) {
	rec := newRecorder()
	ow := NewWriter(rec, 8)
	defer ow.Close() //nolint:errcheck
	ow.Put(0, []byte(`{"id":"first"}`), nil)
	select {
	case <-rec.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("ready line not written before Close")
	}
	if got := rec.all(); len(got) != 1 || got[0] != "{\"id\":\"first\"}\n" {
		t.Fatalf("writes = %q", got)
	}
}

// failWriter accepts limit bytes, then fails every write.
type failWriter struct {
	limit int
}

var errDiskFull = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, errDiskFull
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestWriterReportsWriteError: the first write error comes back from
// Close, and producers are never blocked by the failed writer.
func TestWriterReportsWriteError(t *testing.T) {
	ow := NewWriter(&failWriter{limit: 3}, 1)
	emitted := 0
	for i := 0; i < 100; i++ {
		ow.Put(i, []byte("line"), func() { emitted++ })
	}
	if err := ow.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want %v", err, errDiskFull)
	}
	if emitted != 100 {
		t.Fatalf("onEmit ran %d times, want 100", emitted)
	}
}
