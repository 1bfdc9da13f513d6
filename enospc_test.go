package vs2

// ENOSPC endgame tests: disk-full failures injected through a plain
// append and through checkpoint compaction — the one code path that
// rewrites durable state instead of only appending to it, run when a
// scale-in hands a shard's journal to its successor, never while
// serving. Compaction is a four-step dance (sync the journal, write the
// checkpoint, truncate the journal, reopen the append handle) and a
// full disk can interrupt it at any step. The contract under test:
// whatever step fails, the pre-compaction journal (or the just-written
// checkpoint) still carries every completion, and a resumed run replays
// them byte for byte.
//
// The faults ride internal/faults.DiskFile through the journal's
// Options.OpenFile hook; the tests build the *Journal directly over the
// fault-injected state, which is why they live in this package.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vs2/internal/faults"
	"vs2/internal/journal"
)

// faultyJournal opens a fresh journal whose append handle is wrapped
// with the configured disk fault. Appends never fsync (SyncNever), so
// the first Sync the handle sees is compaction's own pre-checkpoint
// barrier. failOpenAt, when positive, fails the Nth OpenFile call —
// call 1 is the initial open, call 2 is compaction's post-truncate
// reopen.
func faultyJournal(t *testing.T, path string, m *Metrics, fault faults.DiskFault, failOpenAt int) *Journal {
	t.Helper()
	opens := 0
	st, err := journal.OpenState(path, journal.StateOptions{
		Options: journal.Options{
			Sync:    journal.SyncNever,
			Metrics: m,
			OpenFile: func(p string) (journal.File, error) {
				opens++
				if failOpenAt > 0 && opens >= failOpenAt {
					return nil, fmt.Errorf("open %s: %w", p, faults.ErrInjectedDisk)
				}
				f, ferr := os.OpenFile(p, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
				if ferr != nil {
					return nil, ferr
				}
				return faults.NewDiskFile(f, fault), nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Journal{st: st, path: path}
}

// enospcDocs is a small corpus that completes cleanly, so every line in
// these tests is a real extraction result, not an error rendering.
func enospcDocs(n int) []*Document {
	docs := make([]*Document, n)
	for i := range docs {
		docs[i] = namedDoc(fmt.Sprintf("enospc-%d", i))
	}
	return docs
}

// TestENOSPCCompactionSyncFailure: the disk fills at compaction's first
// step — the fsync that must make the journal durable before the
// checkpoint claims its records. Compact errors, no checkpoint appears,
// and the untouched pre-compaction journal replays every completion
// byte-identically on resume.
func TestENOSPCCompactionSyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	docs := enospcDocs(6)

	m1 := NewMetrics()
	j1 := faultyJournal(t, path, m1, faults.DiskFault{FailSyncAt: 1}, 0)
	first := durableServer(t, m1, false).ExtractBatch(context.Background(), docs, WithDurability(j1))
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("doc %d: %v", i, r.Err)
		}
	}
	if err := j1.st.Compact(); !errors.Is(err, faults.ErrInjectedDisk) {
		t.Fatalf("Compact with failing fsync = %v, want ErrInjectedDisk", err)
	}
	// The sync failed before the checkpoint was written: compaction must
	// not have claimed records it could not prove durable.
	if _, err := os.Stat(path + ".ckpt"); !os.IsNotExist(err) {
		t.Fatalf("checkpoint exists after failed pre-checkpoint sync (stat err %v)", err)
	}
	// Abandon j1 without Close — the process dies with the disk full.

	m2 := NewMetrics()
	j2, err := OpenJournal(path, JournalOptions{Resume: true, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if comp := j2.Replayed(); comp != len(docs) {
		t.Fatalf("recovered %d completions from the pre-compaction journal, want %d", comp, len(docs))
	}
	// The resumed server's search backend always fails: a byte-identical
	// answer can only have come from the journal.
	second := durableServer(t, m2, true).ExtractBatch(context.Background(), docs, WithDurability(j2))
	for i, r := range second {
		if !r.Replayed {
			t.Fatalf("doc %d did not replay after the failed compaction", i)
		}
		if !bytes.Equal(r.Line, first[i].Line) {
			t.Fatalf("doc %d: resumed line differs:\n  run:    %s\n  resume: %s", i, first[i].Line, r.Line)
		}
	}
}

// TestENOSPCCompactionReopenFailure: the disk fills at compaction's
// last step — reopening the append handle after the journal was
// truncated. By then the checkpoint is already durable (temp file +
// rename), so even with the journal gone and no writable handle left,
// a resumed run replays every completion from the checkpoint alone.
func TestENOSPCCompactionReopenFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	docs := enospcDocs(6)

	m1 := NewMetrics()
	j1 := faultyJournal(t, path, m1, faults.DiskFault{}, 2)
	first := durableServer(t, m1, false).ExtractBatch(context.Background(), docs, WithDurability(j1))
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("doc %d: %v", i, r.Err)
		}
	}
	if err := j1.st.Compact(); !errors.Is(err, faults.ErrInjectedDisk) {
		t.Fatalf("Compact with failing reopen = %v, want ErrInjectedDisk", err)
	}
	// The checkpoint landed and the journal was truncated before the
	// reopen failed: the state lives in the checkpoint now.
	if _, err := os.Stat(path + ".ckpt"); err != nil {
		t.Fatalf("checkpoint missing after failed reopen: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated (size %d, err %v)", fi.Size(), err)
	}

	m2 := NewMetrics()
	j2, err := OpenJournal(path, JournalOptions{Resume: true, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if comp := j2.Replayed(); comp != len(docs) {
		t.Fatalf("recovered %d completions from the checkpoint, want %d", comp, len(docs))
	}
	second := durableServer(t, m2, true).ExtractBatch(context.Background(), docs, WithDurability(j2))
	for i, r := range second {
		if !r.Replayed {
			t.Fatalf("doc %d did not replay from the checkpoint", i)
		}
		if !bytes.Equal(r.Line, first[i].Line) {
			t.Fatalf("doc %d: resumed line differs:\n  run:    %s\n  resume: %s", i, first[i].Line, r.Line)
		}
	}
}

// TestENOSPCAppendTornTailResume: the disk fills mid-append, tearing a
// completion frame before any compaction ran. The torn document and
// everything after it report journal-phase failures (never acknowledged
// without durability), the valid prefix replays on resume, the torn
// tail re-extracts, and the merged output matches an undisturbed run
// byte for byte.
func TestENOSPCAppendTornTailResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	docs := enospcDocs(5)

	// Golden: the same corpus through an unfaulted journal.
	mg := NewMetrics()
	jg, err := OpenJournal(filepath.Join(dir, "golden.wal"), JournalOptions{Metrics: mg})
	if err != nil {
		t.Fatal(err)
	}
	golden := durableServer(t, mg, false).ExtractBatch(context.Background(), docs, WithDurability(jg))
	if err := jg.Close(); err != nil {
		t.Fatal(err)
	}

	// Faulted run, one document at a time so the write sequence is
	// deterministic: doc k's completion is write k+1. Write 3 — doc 2's
	// completion — tears.
	m1 := NewMetrics()
	j1 := faultyJournal(t, path, m1, faults.DiskFault{ShortWriteAt: 3}, 0)
	srv := durableServer(t, m1, false)
	for i, d := range docs {
		r := srv.ExtractBatch(context.Background(), []*Document{d}, WithDurability(j1))[0]
		switch {
		case i < 2:
			if r.Err != nil {
				t.Fatalf("doc %d before the tear: %v", i, r.Err)
			}
		default:
			// Doc 2 loses its completion append; the writer goes sticky,
			// so later completions fail too. None may be acknowledged.
			var ve *Error
			if !errors.As(r.Err, &ve) || ve.Phase != PhaseJournal {
				t.Fatalf("doc %d after the tear: err %v, want a %s-phase failure", i, r.Err, PhaseJournal)
			}
		}
	}
	// Abandon j1 — the process dies with the disk full.

	m2 := NewMetrics()
	j2, err := OpenJournal(path, JournalOptions{Resume: true, Metrics: m2})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if comp := j2.Replayed(); comp != 2 {
		t.Fatalf("recovered %d completions ahead of the tear, want 2", comp)
	}
	resumed := durableServer(t, m2, false).ExtractBatch(context.Background(), docs, WithDurability(j2))
	for i, r := range resumed {
		if r.Err != nil {
			t.Fatalf("doc %d on resume: %v", i, r.Err)
		}
		if want := i < 2; r.Replayed != want {
			t.Fatalf("doc %d: Replayed = %v, want %v", i, r.Replayed, want)
		}
		if !bytes.Equal(r.Line, golden[i].Line) {
			t.Fatalf("doc %d: resumed line differs from the undisturbed run:\n  golden: %s\n  resume: %s", i, golden[i].Line, r.Line)
		}
	}
}
