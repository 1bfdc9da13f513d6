package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vs2/internal/obs"
)

// collect replays r and returns the payloads plus stats.
func collect(t *testing.T, data []byte) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	st, err := Replay(bytes.NewReader(data), 0, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte(`{"t":"admit","id":"a"}`),
		[]byte(`{}`),
		{}, // empty payload is a legal frame
		[]byte(strings.Repeat("x", 1000)),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		buf.Write(Frame(p))
	}
	got, st := collect(t, buf.Bytes())
	if len(got) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(got), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Errorf("record %d = %q, want %q", i, got[i], p)
		}
	}
	if st.Bytes != int64(buf.Len()) || st.TruncatedBytes != 0 || st.TornReason != "" {
		t.Errorf("stats = %+v, want clean full replay of %d bytes", st, buf.Len())
	}
}

func TestWriterAppendReplayFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	m := obs.NewRegistry()
	w, err := OpenWriter(path, Options{Sync: SyncAlways, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"id":"a"}`, `{"id":"b"}`, `{"id":"c"}`}
	for _, p := range want {
		if err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []string
	st, err := ReplayFile(path, 0, m, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	info, _ := os.Stat(path)
	if st.Bytes != info.Size() {
		t.Errorf("valid prefix %d bytes, file is %d", st.Bytes, info.Size())
	}
	snap := m.Snapshot()
	if snap.Counters["journal.appended"] != 3 || snap.Counters["journal.fsyncs"] < 3 {
		t.Errorf("metrics: appended=%d fsyncs=%d, want 3/>=3",
			snap.Counters["journal.appended"], snap.Counters["journal.fsyncs"])
	}
	if snap.Counters["journal.replay.records"] != 3 {
		t.Errorf("replay.records = %d, want 3", snap.Counters["journal.replay.records"])
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	st, err := ReplayFile(filepath.Join(t.TempDir(), "nope.wal"), 0, nil,
		func([]byte) error { t.Fatal("delivered a record from a missing file"); return nil })
	if err != nil || st.Records != 0 {
		t.Fatalf("st=%+v err=%v, want empty/nil", st, err)
	}
}

// TestReplayTornTail covers every way a crash can tear the last frame:
// mid-payload cut, missing newline, flipped payload byte, raw garbage.
// Replay must keep every intact frame and drop exactly the tail.
func TestReplayTornTail(t *testing.T) {
	intact := [][]byte{[]byte(`{"id":"a"}`), []byte(`{"id":"b"}`)}
	var prefix bytes.Buffer
	for _, p := range intact {
		prefix.Write(Frame(p))
	}
	full := Frame([]byte(`{"id":"c","x":"yyyyyyyy"}`))
	cases := []struct {
		name string
		tail []byte
	}{
		{"cut mid-frame", full[:len(full)/2]},
		{"no newline", full[:len(full)-1]},
		{"garbage", []byte("\x00\xff\x17 total garbage, not a frame")},
		{"bad magic", append([]byte("X9 "), full[3:]...)},
		{"empty line", []byte("\n")},
		{"header only", []byte("J1 10 deadbeef ")},
	}
	// Flipped payload byte (CRC mismatch) keeps the frame shape.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-5] ^= 0x01
	cases = append(cases, struct {
		name string
		tail []byte
	}{"crc mismatch", flipped})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append(append([]byte(nil), prefix.Bytes()...), tc.tail...)
			got, st := collect(t, data)
			if len(got) != len(intact) {
				t.Fatalf("replayed %d records, want %d (reason %q)", len(got), len(intact), st.TornReason)
			}
			if st.TornReason == "" {
				t.Error("torn tail not reported")
			}
			if st.TruncatedBytes != int64(len(tc.tail)) {
				t.Errorf("truncated %d bytes, want %d", st.TruncatedBytes, len(tc.tail))
			}
			if st.Bytes != int64(prefix.Len()) {
				t.Errorf("valid prefix %d, want %d", st.Bytes, prefix.Len())
			}
		})
	}
}

// TestReplayStopsAtMidJournalCorruption: a damaged frame invalidates
// everything after it — valid-looking later frames must not be
// delivered, because append ordering can no longer be trusted.
func TestReplayStopsAtMidJournalCorruption(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Frame([]byte(`{"id":"a"}`)))
	bad := Frame([]byte(`{"id":"b"}`))
	bad[len(bad)-3] ^= 0x40
	buf.Write(bad)
	buf.Write(Frame([]byte(`{"id":"c"}`)))
	got, st := collect(t, buf.Bytes())
	if len(got) != 1 || string(got[0]) != `{"id":"a"}` {
		t.Fatalf("replayed %q, want only the first record", got)
	}
	if st.TruncatedBytes == 0 || st.TornReason == "" {
		t.Errorf("corruption not reported: %+v", st)
	}
}

func TestReplayOversizedFrameRejected(t *testing.T) {
	big := Frame(bytes.Repeat([]byte("z"), 4096))
	got, st := func() ([][]byte, ReplayStats) {
		var g [][]byte
		st, err := Replay(bytes.NewReader(big), 128, func(p []byte) error {
			g = append(g, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}()
	if len(got) != 0 {
		t.Fatalf("oversized frame delivered")
	}
	if st.TruncatedBytes != int64(len(big)) {
		t.Errorf("truncated %d, want %d", st.TruncatedBytes, len(big))
	}
}

func TestWriterRejectsNewlineAndOversize(t *testing.T) {
	w, err := OpenWriter(filepath.Join(t.TempDir(), "j.wal"), Options{MaxRecord: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]byte("a\nb")); err == nil {
		t.Error("newline payload accepted")
	}
	if err := w.Append(bytes.Repeat([]byte("x"), 17)); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversize err = %v, want ErrRecordTooLarge", err)
	}
	if err := w.Append([]byte("ok")); err != nil {
		t.Errorf("valid append after rejected payloads failed: %v (rejections must not poison the writer)", err)
	}
}

// failFile tears the nth write to exercise the sticky-failure contract.
type failFile struct {
	f      File
	writes int
	failAt int
}

func (ff *failFile) Write(p []byte) (int, error) {
	ff.writes++
	if ff.writes == ff.failAt {
		n := len(p) / 2
		ff.f.Write(p[:n]) //nolint:errcheck
		return n, errors.New("disk full")
	}
	return ff.f.Write(p)
}
func (ff *failFile) Sync() error  { return ff.f.Sync() }
func (ff *failFile) Close() error { return ff.f.Close() }

func TestWriterShortWriteIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	w, err := OpenWriter(path, Options{
		Sync: SyncNever,
		OpenFile: func(p string) (File, error) {
			f, err := os.OpenFile(p, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			return &failFile{f: f, failAt: 2}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`{"id":"a"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte(`{"id":"b"}`)); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("torn append err = %v, want ErrWriterFailed", err)
	}
	if err := w.Append([]byte(`{"id":"c"}`)); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("append after tear err = %v, want sticky ErrWriterFailed", err)
	}
	w.Close()

	// The file now holds one intact frame and half of another: replay
	// recovers the record written before the tear, drops the tear.
	var got []string
	st, err := ReplayFile(path, 0, nil, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != `{"id":"a"}` {
		t.Fatalf("replayed %v, want the single pre-tear record", got)
	}
	if st.TruncatedBytes == 0 {
		t.Error("tear not reported")
	}
}

func TestCheckpointWriteReadCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal.ckpt")
	ck := &Checkpoint{Seq: 3, Entries: map[string]Entry{}}
	for _, id := range []string{"a", "b", "c"} {
		line := []byte(`{"id":"` + id + `"}`)
		ck.Entries[id] = Entry{Digest: Digest(line), Line: string(line)}
	}
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || len(got.Entries) != 3 {
		t.Fatalf("read back seq=%d entries=%d, want 3/3", got.Seq, len(got.Entries))
	}
	// Overwrite is atomic-replace, not merge.
	if err := WriteCheckpoint(path, &Checkpoint{Seq: 4, Entries: map[string]Entry{"z": {Digest: Digest([]byte("l")), Line: "l"}}}); err != nil {
		t.Fatal(err)
	}
	got, err = ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 4 || len(got.Entries) != 1 {
		t.Fatalf("after rewrite seq=%d entries=%d, want 4/1", got.Seq, len(got.Entries))
	}
}

func TestCheckpointMissingAndDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	ck, err := ReadCheckpoint(filepath.Join(dir, "absent.ckpt"))
	if err != nil || len(ck.Entries) != 0 {
		t.Fatalf("missing checkpoint: %+v, %v", ck, err)
	}
	// An entry whose digest lies about its line is dropped, not trusted.
	path := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(path,
		[]byte(`{"seq":1,"entries":{"a":{"digest":"00000000","line":"tampered"},"b":{"digest":"`+Digest([]byte("ok"))+`","line":"ok"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err = ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := ck.Entries["a"]; bad {
		t.Error("digest-mismatched entry survived")
	}
	if _, good := ck.Entries["b"]; !good {
		t.Error("valid entry dropped")
	}
}

func TestStateResumeCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	s, err := OpenState(path, StateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"d0", "d1", "d2"} {
		if err := s.Admit(id, i); err != nil {
			t.Fatal(err)
		}
	}
	mustComplete := func(id, line string) {
		t.Helper()
		if err := s.Complete(id, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	mustComplete("d0", `{"id":"d0","entities":[1]}`)
	if err := s.Degrade("d1", "segment", "linear-segmentation"); err != nil {
		t.Fatal(err)
	}
	mustComplete("d1", `{"id":"d1"}`)
	// d2 admitted, never completed — the crash casualty.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenState(path, StateOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if line, ok := r.Completed("d0"); !ok || string(line) != `{"id":"d0","entities":[1]}` {
		t.Fatalf("d0 line = %q ok=%v", line, ok)
	}
	if _, ok := r.Completed("d2"); ok {
		t.Error("admitted-but-incomplete d2 reported as completed")
	}
	if comp := r.Replayed(); comp != 2 {
		t.Errorf("replayed %d completions, want 2", comp)
	}
	if ids := r.CompletedIDs(); fmt.Sprint(ids) != "[d0 d1]" {
		t.Errorf("completed IDs %v, want [d0 d1]", ids)
	}
}

func TestStateFreshRunDiscardsOldState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	s, err := OpenState(path, StateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Complete("old", []byte("old-line")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil { // leaves a checkpoint behind too
		t.Fatal(err)
	}
	s.Close()

	fresh, err := OpenState(path, StateOptions{}) // no Resume
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, ok := fresh.Completed("old"); ok {
		t.Error("fresh (non-resume) state kept the previous run's completions")
	}
}

// TestStateResumeTruncatesTornTail: garbage after the valid frames must
// not orphan records appended by the resumed run.
func TestStateResumeTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	s, err := OpenState(path, StateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Complete("a", []byte("line-a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("J1 999 deadbeef torn")) //nolint:errcheck
	f.Close()

	r, err := OpenState(path, StateOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Completed("a"); !ok {
		t.Fatal("pre-tear record lost")
	}
	if err := r.Complete("b", []byte("line-b")); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Both records must now replay: the tail was truncated before append.
	r2, err := OpenState(path, StateOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for _, id := range []string{"a", "b"} {
		if _, ok := r2.Completed(id); !ok {
			t.Errorf("record %s unreachable after torn-tail resume", id)
		}
	}
}

// TestStateCompaction: automatic checkpointing truncates the journal,
// survives resume, and interleaves correctly with post-compaction
// appends (checkpoint ∪ journal).
func TestStateCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.wal")
	m := obs.NewRegistry()
	s, err := OpenState(path, StateOptions{Options: Options{Metrics: m}, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} { // compaction fires after b
		if err := s.Complete(id, []byte("line-"+id)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if m.Snapshot().Counters["journal.compactions"] != 1 {
		t.Fatalf("compactions = %d, want 1", m.Snapshot().Counters["journal.compactions"])
	}
	// Only c's record should remain in the journal; a and b live in the
	// checkpoint.
	var tail []string
	if _, err := ReplayFile(path, 0, nil, func(p []byte) error {
		tail = append(tail, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || !strings.Contains(tail[0], `"id":"c"`) {
		t.Errorf("journal tail after compaction = %v, want only c's record", tail)
	}
	ck, err := ReadCheckpoint(path + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Entries) != 2 {
		t.Errorf("checkpoint entries = %d, want 2 (a, b)", len(ck.Entries))
	}

	r, err := OpenState(path, StateOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []string{"a", "b", "c"} {
		if line, ok := r.Completed(id); !ok || string(line) != "line-"+id {
			t.Errorf("after compaction+resume, %s = %q ok=%v", id, line, ok)
		}
	}
}

// TestStateFixtures replays the committed corrupt-journal fixtures: real
// on-disk artifacts of torn and garbage tails, pinned so the format (and
// its recovery behaviour) cannot drift silently.
func TestStateFixtures(t *testing.T) {
	cases := []struct {
		file      string
		records   int
		truncated bool
	}{
		{"clean.wal", 3, false},
		{"torn_tail.wal", 3, true},
		{"garbage_tail.wal", 2, true},
		{"bad_crc_mid.wal", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("..", "..", "testdata", "journal", tc.file)
			var n int
			st, err := ReplayFile(path, 0, nil, func(p []byte) error {
				n++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.records {
				t.Errorf("replayed %d records, want %d", n, tc.records)
			}
			if (st.TruncatedBytes > 0) != tc.truncated {
				t.Errorf("truncated=%d, want truncation=%v (reason %q)", st.TruncatedBytes, tc.truncated, st.TornReason)
			}
		})
	}
}

func TestParseSync(t *testing.T) {
	for s, want := range map[string]Sync{"always": SyncAlways, "": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSync(s)
		if err != nil || got != want {
			t.Errorf("ParseSync(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSync("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}
