package vs2

// Journal-cost test: what durability asks of the disk per document on
// the serving path, counted at the journal's file handle rather than
// timed, so it holds on any host. Each document must cost one append
// and, under the "always" fsync policy, one fsync — the same for the
// thousandth document as for the first — and a finished run must leave
// nothing on disk but the journal: no checkpoint rewritten while
// serving or at close.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vs2/internal/journal"
)

// countingFile is a journal append handle that counts the writes,
// bytes and fsyncs the journal asks of it.
type countingFile struct {
	f             *os.File
	writes, syncs int
	bytes         int
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return c.f.Write(p)
}

func (c *countingFile) Sync() error {
	c.syncs++
	return c.f.Sync()
}

func (c *countingFile) Close() error { return c.f.Close() }

// TestJournalCostPerDocumentIsConstant runs 1000 documents through
// Server.ExtractRecordedKey under SyncAlways and checks each one's
// journal traffic: exactly one write, exactly one fsync, and no more
// bytes than the framed completion record that carries its line. The
// documents share one layout, so after the first they hit the template
// cache, as on a template-heavy batch corpus.
func TestJournalCostPerDocumentIsConstant(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	var cf *countingFile
	st, err := journal.OpenState(path, journal.StateOptions{
		Options: journal.Options{
			Sync: journal.SyncAlways,
			OpenFile: func(p string) (journal.File, error) {
				f, ferr := os.OpenFile(p, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
				if ferr != nil {
					return nil, ferr
				}
				cf = &countingFile{f: f}
				return cf, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{st: st, path: path}

	s := NewServer(NewPipeline(Config{Task: EventPosterTask()}), ServerConfig{
		Workers:   1,
		QueueWait: -1,
		Retry:     fastRetry(1),
		Template:  TemplatePolicy{Capacity: 1},
	})
	t.Cleanup(func() { shutdownServer(t, s) })

	const docs = 1000
	for i := 0; i < docs; i++ {
		key := fmt.Sprintf("cost-%d", i)
		writes, syncs, bytes := cf.writes, cf.syncs, cf.bytes
		br := s.ExtractRecordedKey(context.Background(), i, key, namedDoc(key), j)
		if br.Err != nil {
			t.Fatalf("doc %d: %v", i, br.Err)
		}
		payload, err := json.Marshal(journal.Record{
			T: journal.RecordComplete, ID: key, Digest: journal.Digest(br.Line), Line: string(br.Line),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := cf.writes - writes; got != 1 {
			t.Fatalf("doc %d: %d journal writes, want 1", i, got)
		}
		if got := cf.syncs - syncs; got != 1 {
			t.Fatalf("doc %d: %d fsyncs, want 1", i, got)
		}
		if got, limit := cf.bytes-bytes, len(journal.Frame(payload)); got > limit {
			t.Fatalf("doc %d: %d journal bytes, want at most the %d-byte completion frame", i, got, limit)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.wal" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("state directory holds %v, want only the journal run.wal", names)
	}
}
