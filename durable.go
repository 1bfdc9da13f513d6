// durable.go is the durability layer over the serving layer: a
// write-ahead journal of corpus progress — one completion record per
// document, carrying its rendered result line — so a long batch run
// killed at any instant resumes without losing, duplicating or
// reordering a single result. The framing, replay and checkpoint
// mechanics live in internal/journal; this file binds them to the
// Server's per-document lifecycle and the retry classifier: completed
// documents and permanent rejections are safe to replay from the
// journal verbatim, transient failures are not recorded and re-extract
// on resume.
package vs2

import (
	"context"
	"encoding/json"
	"fmt"

	"vs2/internal/journal"
)

// PhaseJournal marks errors from the durability layer itself: the
// document's extraction finished, but recording it durably did not. Such
// documents are reported failed — an exactly-once pipeline must not emit
// results it cannot prove it persisted — and re-extract on resume.
const PhaseJournal Phase = "journal"

// JournalOptions tunes OpenJournal.
type JournalOptions struct {
	// Resume loads the existing journal and checkpoint instead of
	// starting fresh. Resuming a path with no journal is legal (empty
	// state), so the first run and a resumed run can share a command
	// line.
	Resume bool
	// Sync is the fsync policy: "always" (default — a completion
	// acknowledged is a completion that survives kill -9), "interval"
	// (fsync every SyncEvery appends; a crash re-extracts at most the
	// unsynced suffix), or "never" (the OS decides).
	Sync string
	// SyncEvery is the "interval" cadence; 0 selects 64.
	SyncEvery int
	// MaxRecord bounds one journal record; 0 selects 16 MiB.
	MaxRecord int
	// Owner, when non-empty, stamps the journal and checkpoint with this
	// label and refuses to resume state stamped with a different one —
	// the shard-aware resume guard: shard 2's journal cannot silently be
	// replayed as shard 0's.
	Owner string
	// Metrics, when non-nil, receives the journal.* counters and gauges
	// (records appended, fsyncs, replayed records, truncated-tail bytes
	// dropped, compactions).
	Metrics *Metrics
}

// Journal is durable corpus-processing state: which documents have
// completed and with exactly which output lines. A nil *Journal is a
// valid disabled journal, mirroring the nil *Metrics idiom, so call
// sites thread it unconditionally.
type Journal struct {
	st   *journal.State
	path string
}

// OpenJournal opens (or, with Resume, recovers) the journal at path. A
// checkpoint, when a shard handoff's compaction left one, lives at
// path+".ckpt". Recovery replays checkpoint then
// journal, drops a torn tail (counting the bytes in the metrics), and
// truncates the tear so new records append cleanly.
func OpenJournal(path string, o JournalOptions) (*Journal, error) {
	pol, err := journal.ParseSync(o.Sync)
	if err != nil {
		return nil, err
	}
	st, err := journal.OpenState(path, journal.StateOptions{
		Options: journal.Options{
			Sync:      pol,
			SyncEvery: o.SyncEvery,
			MaxRecord: o.MaxRecord,
			Metrics:   o.Metrics,
		},
		Resume: o.Resume,
		Owner:  o.Owner,
	})
	if err != nil {
		return nil, err
	}
	return &Journal{st: st, path: path}, nil
}

// Completed returns the journaled result line of a document that already
// finished, in this run or a recovered one.
func (j *Journal) Completed(id string) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	return j.st.Completed(id)
}

// Replayed reports how many completions recovery restored. A document
// the crashed run never completed has no record and re-extracts.
func (j *Journal) Replayed() int {
	if j == nil {
		return 0
	}
	return j.st.Replayed()
}

// Close syncs and closes the journal. It writes no checkpoint: the
// journal alone carries every completion, and a resume replays it.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.st.Close()
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Adopt merges a retired shard's journal (already transferred to this
// journal's owner — see TransferJournal) into this journal: entries are
// re-journaled idempotently, compacted for durability, and the source
// files removed. A nil journal adopts nothing. Returns how many entries
// were merged.
func (j *Journal) Adopt(path string) (int, error) {
	if j == nil {
		return 0, nil
	}
	return j.st.Adopt(path)
}

// TransferJournal re-stamps the quiesced journal at path from owner
// `from` to owner `to` — the front-end half of a planned shard handoff,
// run after the departing worker has exited. The successor worker then
// adopts the journal under its own label. Unplanned owner mismatches
// keep failing with journal.ErrWrongOwner.
func TransferJournal(path, from, to string) error {
	return journal.Transfer(path, journal.Options{}, from, to)
}

// DocLine is the canonical per-document output line of a batch run — the
// unit the journal caches and a resumed run re-emits byte for byte. Its
// rendering must stay deterministic: no timestamps, no map iteration.
type DocLine struct {
	ID       string       `json:"id"`
	Entities []Extraction `json:"entities,omitempty"`
	Degraded []string     `json:"degraded,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// Status is the outcome class of one result line: what the summary
// counters count and what a shard's reply frame carries, so no consumer
// re-parses a line to learn it.
type Status uint8

const (
	// StatusOK is a completed document with no degradation.
	StatusOK Status = iota
	// StatusDegraded is a completed document whose line lists at least
	// one degradation.
	StatusDegraded
	// StatusFailed is a document whose line carries an error.
	StatusFailed
)

// RenderLine renders one batch outcome as its canonical output line
// (JSON, no trailing newline). Degradations are rendered without their
// wall-clock timestamps — the line must be reproducible across runs for
// the crash-recovery byte-identity contract.
func RenderLine(r BatchResult) []byte {
	line, _ := renderStatus(r)
	return line
}

// renderStatus renders r's line and classifies it. The class is read
// off the DocLine that was marshalled, so it agrees with the line in
// every case — including the render-error fallback, where a result
// with a non-finite score becomes an error line although Err is nil.
func renderStatus(r BatchResult) ([]byte, Status) {
	out := DocLine{}
	if r.Doc != nil {
		out.ID = r.Doc.ID
	}
	switch {
	case r.Err != nil:
		out.Error = r.Err.Error()
	case r.Result != nil:
		out.Entities = r.Result.Entities
		for _, g := range r.Result.Degraded {
			s := fmt.Sprintf("%s degraded to %s", g.Phase, g.Fallback)
			if g.Cause != "" {
				s += ": " + g.Cause
			}
			out.Degraded = append(out.Degraded, s)
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Extraction and error strings always marshal; reaching this
		// means a programming error, and the line still must exist.
		out = DocLine{ID: out.ID, Error: "render: " + err.Error()}
		data, _ = json.Marshal(out)
	}
	return data, out.status()
}

// lineStatus classifies a rendered line, such as one replayed from a
// journal. A line that does not parse counts as failed.
func lineStatus(line []byte) Status {
	var l DocLine
	if err := json.Unmarshal(line, &l); err != nil {
		return StatusFailed
	}
	return l.status()
}

// status is the one outcome rule: an error fails the line, a listed
// degradation degrades it.
func (l *DocLine) status() Status {
	switch {
	case l.Error != "":
		return StatusFailed
	case len(l.Degraded) > 0:
		return StatusDegraded
	}
	return StatusOK
}

// recordKey is the journal key for a document: its ID, or a positional
// key when the corpus has anonymous documents. Resume correctness
// requires keys to be stable and unique across runs over the same
// corpus.
func recordKey(d *Document, index int) string {
	if d != nil && d.ID != "" {
		return d.ID
	}
	return fmt.Sprintf("#%d", index)
}

// ExtractRecorded runs one document through the server with durable
// record-keeping:
//
//   - A document the journal already holds is skipped idempotently; its
//     cached line returns with Replayed set and the pipeline never runs.
//   - Otherwise the document is extracted and — for completions and
//     permanent rejections (see IsTransient) — its rendered line
//     journaled as one completion record *before* the caller sees it:
//     the write-ahead contract that makes a crash between journal and
//     output emission safe. That record is the document's only journal
//     write, so durability costs one append (and, under the "always"
//     policy, one fsync) per document. The line already carries every
//     degradation, and a document with no record re-extracts on resume
//     whether or not it had started.
//   - Transient failures (sheds, breaker trips, budget overruns, panics
//     that exhausted retries) are not recorded as completions: a resumed
//     run re-extracts them rather than replaying a flake forever.
//
// With a nil journal it degrades to Extract plus line rendering.
func (s *Server) ExtractRecorded(ctx context.Context, index int, d *Document, j *Journal) BatchResult {
	return s.ExtractRecordedKey(ctx, index, recordKey(d, index), d, j)
}

// ExtractRecordedKey is ExtractRecorded with the journal key chosen by
// the caller instead of derived from the document. A sharded front end
// uses it to keep keys stable across restarts and resumes: the shard
// worker journals under the key the router assigned, not under a
// positional key that would shift when only part of the corpus is
// re-sent to a restarted shard.
func (s *Server) ExtractRecordedKey(ctx context.Context, index int, key string, d *Document, j *Journal) BatchResult {
	br := BatchResult{Index: index, Doc: d}
	if line, ok := j.Completed(key); ok {
		br.Replayed = true
		br.Line = line
		br.Status = lineStatus(line) // the journal keeps lines, not results
		s.m.Counter("serve.replayed").Inc()
		return br
	}
	br.Result, br.Err = s.Extract(ctx, d)
	br.Line, br.Status = renderStatus(br)
	if j != nil && (br.Err == nil || !IsTransient(br.Err)) {
		if err := j.st.Complete(key, br.Line); err != nil {
			// The result cannot be acknowledged because it was never made
			// durable.
			br.Result = nil
			br.Err = &Error{Phase: PhaseJournal, Stage: "complete", Err: err}
			br.Line, br.Status = renderStatus(br)
		}
	}
	return br
}
