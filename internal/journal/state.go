package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"vs2/internal/obs"
)

// Record is one durable corpus-processing event. Completion records
// carry the document's final result line and are all that replay
// restores. Admission and degradation records (Admit, Degrade) are
// informational: replay skips them, and the serving layer writes
// neither.
type Record struct {
	// T is the record type: "admit", "complete" or "degrade".
	T string `json:"t"`
	// ID is the document ID.
	ID string `json:"id"`
	// Index is the document's position in the corpus (admit records).
	Index int `json:"i,omitempty"`
	// Phase and Fallback describe a degradation (degrade records).
	Phase    string `json:"phase,omitempty"`
	Fallback string `json:"fallback,omitempty"`
	// Digest and Line carry the result (complete records): Line is the
	// exact output line (no trailing newline), Digest its CRC32 hex8.
	Digest string `json:"digest,omitempty"`
	Line   string `json:"line,omitempty"`
	// From, on owner records, names the previous owner of an explicit
	// ownership transfer (a planned handoff during live resharding);
	// empty on the initial stamp. Replay follows the chain: the final
	// stamp is the journal's owner, so a transferred journal resumes
	// cleanly under its successor while every unplanned mismatch stays
	// ErrWrongOwner.
	From string `json:"from,omitempty"`
}

// Record types.
const (
	RecordAdmit    = "admit"
	RecordComplete = "complete"
	RecordDegrade  = "degrade"
	// RecordOwner stamps the journal with its owner label (the ID field
	// carries the label). A sharded deployment writes one per journal so
	// that resuming shard 2's journal as shard 0 — a misconfigured state
	// directory, a copy-paste in an ops runbook — fails loudly instead of
	// silently serving another shard's completions.
	RecordOwner = "owner"
)

// ErrWrongOwner reports a resume of a journal (or checkpoint) stamped
// with a different owner label than the opener's.
var ErrWrongOwner = errors.New("journal: owned by another writer")

// State is durable corpus-processing state: the union of the checkpoint
// and the journal's completion records, plus the append handle the
// current run writes through. Safe for concurrent use.
type State struct {
	mu        sync.Mutex
	w         *Writer
	path      string
	ckptPath  string
	opts      Options
	seq       int64
	completed map[string]Entry
	replayed  int // completion records recovered (checkpoint + journal)
	// CompactEvery triggers a checkpoint compaction after that many new
	// completions; 0 compacts only on explicit Compact calls.
	compactEvery int
	sinceCompact int
	owner        string
	m            *obs.Registry
}

// StateOptions extends Options with State-level tuning.
type StateOptions struct {
	Options
	// Resume loads the existing checkpoint and journal instead of
	// truncating them. Without it, OpenState starts a fresh journal,
	// removing any previous state at the path.
	Resume bool
	// CompactEvery checkpoints after that many new completions;
	// 0 disables automatic compaction.
	CompactEvery int
	// Owner, when non-empty, stamps fresh journals and checkpoints with
	// this label and refuses (ErrWrongOwner) to resume state stamped with
	// a different one — the guard that keeps one shard from replaying
	// another shard's journal. Empty skips both stamping and checking,
	// and resuming an unstamped journal with an Owner set is legal (the
	// stamp is added going forward).
	Owner string
}

// OpenState opens (or resumes) the durable state rooted at path. The
// checkpoint lives beside the journal at path+".ckpt". Resuming replays
// checkpoint then journal — later records win, torn tails are truncated
// off the journal file so subsequent appends stay reachable — and then
// reopens the journal for appending.
func OpenState(path string, so StateOptions) (*State, error) {
	s := &State{
		path:         path,
		ckptPath:     path + ".ckpt",
		opts:         so.Options.withDefaults(),
		completed:    map[string]Entry{},
		compactEvery: so.CompactEvery,
		owner:        so.Owner,
		m:            so.Options.Metrics,
	}
	if !so.Resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("journal: reset %s: %w", path, err)
		}
		if err := os.Remove(s.ckptPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("journal: reset %s: %w", s.ckptPath, err)
		}
	} else if err := s.recover(); err != nil {
		return nil, err
	}
	w, err := OpenWriter(path, s.opts)
	if err != nil {
		return nil, err
	}
	s.w = w
	if s.owner != "" {
		// Stamp every fresh journal generation; resumed journals already
		// carry the stamp (validated in recover) or predate owners.
		if err := s.append(Record{T: RecordOwner, ID: s.owner}); err != nil {
			s.w.Close() //nolint:errcheck
			return nil, err
		}
	}
	s.m.Gauge("journal.completed").Set(float64(len(s.completed)))
	return s, nil
}

// recover loads the checkpoint, replays the journal over it, and
// truncates the journal's torn tail (if any) so the writer can append.
// The ownership check runs after the full replay so a planned transfer
// record late in the journal can legitimately re-stamp state whose
// checkpoint still carries the previous owner; nothing on disk is
// mutated before the check passes.
func (s *State) recover() error {
	completed, stamped, seq, rst, err := loadEntries(s.path, s.ckptPath, s.opts.MaxRecord, s.m)
	if err != nil {
		return err
	}
	if s.owner != "" && stamped != "" && stamped != s.owner {
		return fmt.Errorf("%w: state %s is owned by %q, opened as %q", ErrWrongOwner, s.path, stamped, s.owner)
	}
	s.seq = seq
	s.completed = completed
	s.replayed = len(s.completed)
	if rst.TruncatedBytes > 0 {
		// Drop the torn tail on disk, or frames appended by this run
		// would sit unreachable behind it.
		if terr := os.Truncate(s.path, rst.Bytes); terr != nil {
			return fmt.Errorf("journal: truncate torn tail of %s: %w", s.path, terr)
		}
	}
	return nil
}

// loadEntries is the shared read path of recover and Load: checkpoint
// first, journal replayed over it (later records win), the ownership
// chain followed to its final stamp. It reads only — torn tails are
// tolerated, not truncated — so read-only consumers (Load, adoption)
// can use it against a journal they do not own the write handle for.
func loadEntries(path, ckptPath string, maxRecord int, m *obs.Registry) (completed map[string]Entry, stamped string, seq int64, rst ReplayStats, err error) {
	ck, err := ReadCheckpoint(ckptPath)
	if err != nil {
		return nil, "", 0, ReplayStats{}, err
	}
	seq = ck.Seq
	stamped = ck.Owner
	completed = ck.Entries
	rst, err = ReplayFile(path, maxRecord, m, func(payload []byte) error {
		var rec Record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			// A verified frame with an unparseable payload was written by
			// something that is not this schema; skip rather than abort —
			// the frame is durable but meaningless to us.
			m.Counter("journal.replay.unknown").Inc()
			return nil
		}
		switch rec.T {
		case RecordComplete:
			if Digest([]byte(rec.Line)) == rec.Digest {
				completed[rec.ID] = Entry{Digest: rec.Digest, Line: rec.Line}
			} else {
				m.Counter("journal.replay.bad_digest").Inc()
			}
		case RecordAdmit, RecordDegrade:
			// Informational; nothing to restore.
		case RecordOwner:
			if rec.ID != "" {
				stamped = rec.ID // the chain's latest stamp wins
			}
		default:
			m.Counter("journal.replay.unknown").Inc()
		}
		return nil
	})
	if err != nil {
		return nil, "", 0, ReplayStats{}, err
	}
	return completed, stamped, seq, rst, nil
}

// Load reads the durable state at path without opening a writer or
// mutating anything on disk (torn tails are tolerated, not truncated; a
// missing file is an empty state). When owner is non-empty the ownership
// chain must end at owner — the same rule OpenState enforces — and an
// unstamped journal is legal to read. Adoption after a planned handoff
// uses Load: the successor reads the retired journal it now owns,
// merges the entries into its own state, and only then removes the
// source.
func Load(path string, maxRecord int, owner string) (map[string]Entry, error) {
	if maxRecord <= 0 {
		maxRecord = (Options{}).withDefaults().MaxRecord
	}
	completed, stamped, _, _, err := loadEntries(path, path+".ckpt", maxRecord, nil)
	if err != nil {
		return nil, err
	}
	if owner != "" && stamped != "" && stamped != owner {
		return nil, fmt.Errorf("%w: state %s is owned by %q, loaded as %q", ErrWrongOwner, path, stamped, owner)
	}
	return completed, nil
}

func (s *State) append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	return s.w.Append(payload)
}

// Admit journals that the document is about to run. Idempotent in
// effect: duplicate admits are harmless on replay.
func (s *State) Admit(id string, index int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(Record{T: RecordAdmit, ID: id, Index: index})
}

// Degrade journals one pipeline fallback for the document.
func (s *State) Degrade(id, phase, fallback string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(Record{T: RecordDegrade, ID: id, Phase: phase, Fallback: fallback})
}

// Complete journals the document's final result line (no trailing
// newline) and records it for Completed lookups. The write-ahead
// contract: call Complete before emitting the line downstream, so a
// crash between the two re-emits from the journal instead of losing the
// document. Triggers a checkpoint compaction every CompactEvery
// completions.
func (s *State) Complete(id string, line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := Entry{Digest: Digest(line), Line: string(line)}
	if err := s.append(Record{T: RecordComplete, ID: id, Digest: e.Digest, Line: e.Line}); err != nil {
		return err
	}
	s.completed[id] = e
	s.m.Gauge("journal.completed").Set(float64(len(s.completed)))
	s.sinceCompact++
	if s.compactEvery > 0 && s.sinceCompact >= s.compactEvery {
		return s.compactLocked()
	}
	return nil
}

// Completed returns the cached result line for a document this state has
// already seen complete (in this run or a replayed one).
func (s *State) Completed(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.completed[id]
	if !ok {
		return nil, false
	}
	return []byte(e.Line), true
}

// CompletedIDs returns the sorted IDs of every completed document.
func (s *State) CompletedIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.completed))
	for id := range s.completed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Replayed returns how many completions were recovered at open.
func (s *State) Replayed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed
}

// Compact checkpoints the completed set and truncates the journal: an
// atomic snapshot replaces the record tail. Crash windows are all safe —
// before the rename the old checkpoint plus the full journal survive;
// between rename and truncate the records are duplicated across
// checkpoint and journal (replay is idempotent, keyed by ID); after the
// truncate the new checkpoint alone carries the state.
func (s *State) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *State) compactLocked() error {
	// The journal must be durable before the checkpoint claims its
	// records; with SyncNever/SyncInterval there may be unsynced frames.
	if err := s.w.Sync(); err != nil {
		return err
	}
	s.seq++
	entries := make(map[string]Entry, len(s.completed))
	for id, e := range s.completed {
		entries[id] = e
	}
	if err := WriteCheckpoint(s.ckptPath, &Checkpoint{Seq: s.seq, Owner: s.owner, Entries: entries}); err != nil {
		return err
	}
	// Start a fresh journal generation: close, truncate, reopen append.
	if err := s.w.Close(); err != nil {
		return err
	}
	if err := os.Truncate(s.path, 0); err != nil {
		return fmt.Errorf("journal: truncate after compaction: %w", err)
	}
	w, err := OpenWriter(s.path, s.opts)
	if err != nil {
		return err
	}
	s.w = w
	s.sinceCompact = 0
	s.m.Counter("journal.compactions").Inc()
	s.m.Gauge("journal.checkpoint.entries").Set(float64(len(entries)))
	return nil
}

// TransferTo hands the journal to a new owner: an explicit
// ownership-transfer record (From = the current owner) followed by a
// checkpoint compaction, so by return the new stamp is durable in the
// checkpoint and the journal chain alike. Planned transfers are the one
// legal way ownership changes — an opener whose label matches the
// chain's final stamp resumes cleanly; every other mismatch stays
// ErrWrongOwner.
func (s *State) TransferTo(to string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if to == "" {
		return errors.New("journal: transfer to empty owner")
	}
	if to == s.owner {
		return nil
	}
	if err := s.append(Record{T: RecordOwner, ID: to, From: s.owner}); err != nil {
		return err
	}
	s.owner = to
	s.m.Counter("journal.transfers").Inc()
	return s.compactLocked()
}

// Transfer re-stamps the quiesced journal at path from owner from to
// owner to: the front-end half of a planned shard handoff, run after the
// departing worker has exited so no writer races the transfer. Opening
// as from validates the current claim (an unstamped journal is adopted);
// TransferTo leaves to durable in the checkpoint before Transfer
// returns. The successor then resumes or Loads the journal under its own
// label.
func Transfer(path string, opts Options, from, to string) error {
	s, err := OpenState(path, StateOptions{Options: opts, Resume: true, Owner: from})
	if err != nil {
		return err
	}
	if err := s.TransferTo(to); err != nil {
		s.Close() //nolint:errcheck
		return err
	}
	return s.Close()
}

// Adopt merges a retired journal's completions into this state: the
// successor's half of a planned shard handoff. The source must already
// have been transferred to this state's owner (see Transfer); its
// entries are journaled here idempotently — IDs this state already
// completed are skipped — then compacted for durability, and only after
// that are the source files removed. Every crash window is safe: a
// re-Adopt re-merges idempotently, and a source already removed adopts
// as empty.
func (s *State) Adopt(path string) (merged int, err error) {
	s.mu.Lock()
	owner := s.owner
	maxRecord := s.opts.MaxRecord
	s.mu.Unlock()
	entries, err := Load(path, maxRecord, owner)
	if err != nil {
		return 0, err
	}
	for id, e := range entries {
		if _, ok := s.Completed(id); ok {
			continue
		}
		if err := s.Complete(id, []byte(e.Line)); err != nil {
			return merged, err
		}
		merged++
	}
	if err := s.Compact(); err != nil {
		return merged, err
	}
	os.Remove(path)           //nolint:errcheck // best-effort: a leftover source re-adopts as a no-op
	os.Remove(path + ".ckpt") //nolint:errcheck
	s.m.Counter("journal.adoptions").Inc()
	return merged, nil
}

// Sync forces pending journal frames to stable storage.
func (s *State) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Sync()
}

// Close syncs and closes the journal handle. The checkpoint is left as
// last compacted; a final Compact before Close minimises replay work for
// the next resume.
func (s *State) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}
