package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"vs2/internal/obs"
)

// The front end and its worker children exchange length-prefixed frames
// over the child's stdin/stdout: document requests, pings and adoption
// requests down; replies, pongs, adoption acks and errors, and telemetry
// up. A frame is a small binary header followed by its payload verbatim,
// so a document travels to the worker byte for byte as the front end
// read it, and a reply line travels back without being parsed: its
// outcome class rides in the header. No key, span or payload byte is
// ever a delimiter, so any key is safe, a document ID with a newline
// included. Replies are keyed, not ordered — a worker answers documents
// as they complete and the front end reorders globally — so a restarted
// worker can replay journal-cached completions in any order without
// disturbing the merge.
//
// The encoding of one frame:
//
//	size    uvarint  byte count of everything after this field
//	kind    1 byte   Kind
//	status  1 byte   Status (replies; 0 elsewhere)
//	level   varint   fidelity level (documents; 0 elsewhere)
//	len(key), len(span), len(trace)   uvarint each
//	key, span, trace                  the bytes themselves
//	body    the rest of the frame
//
// Telemetry payloads and a reply's span tree stay JSON: they are not on
// every document's path unless the run is traced.

// Kind is a frame's type.
type Kind byte

// Frame kinds. Front end → worker:
const (
	// KindDoc asks the worker to extract the document in Body under Key,
	// at fidelity Level, tracing it under parent span Span when set.
	KindDoc Kind = 'D'
	// KindPing is a liveness probe; the worker answers KindPong at once,
	// ahead of any queued extraction work.
	KindPing Kind = 'P'
	// KindAdopt asks the worker to merge the retired journal at path
	// Body — already transferred to the worker's owner label — into its
	// own and remove the source: the successor's half of a planned shard
	// handoff during scale-in. It carries Key like a document so the ack
	// rides the per-key FIFO exactly-once accounting; a worker killed
	// mid-adoption sees the request again after restart and re-merges
	// idempotently.
	KindAdopt Kind = 'A'
)

// Frame kinds. Worker → front end:
const (
	// KindReply answers a document: Body is its canonical result line
	// (vs2.RenderLine), byte-identical whether extracted fresh or
	// replayed from the shard's journal; Status is that line's outcome
	// class; Trace, when the request carried a span, is the document's
	// span tree as JSON, its root stamped with that span as parent_span.
	KindReply Kind = 'R'
	// KindPong answers a ping.
	KindPong Kind = 'p'
	// KindAdopted acknowledges the adoption request sent under Key.
	KindAdopted Kind = 'a'
	// KindError fails the adoption request sent under Key (e.g. an
	// ownership mismatch); Body is the message, surfaced to the Scale
	// caller. Document failures ride inside reply lines, never here.
	KindError Kind = 'E'
	// KindTelemetry is a periodic observability shipment: Body is a
	// Telemetry as JSON. It carries no Key.
	KindTelemetry Kind = 'T'
)

func (k Kind) valid() bool {
	switch k {
	case KindDoc, KindPing, KindAdopt, KindReply, KindPong, KindAdopted, KindError, KindTelemetry:
		return true
	}
	return false
}

// Status is a reply's outcome class, carried in its frame header so the
// front end counts outcomes without parsing the reply line.
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

// Frame is one message on a shard pipe, in either direction; which
// fields a kind uses is documented on the kind.
type Frame struct {
	Kind   Kind
	Status Status
	Level  int
	Key    string
	Span   string
	Trace  []byte
	Body   []byte
}

// ErrMalformed marks a frame whose size was readable but whose header
// was not: the stream is still in step, and the next frame can be read.
var ErrMalformed = errors.New("shard: malformed frame")

// errFrameTooLarge marks a frame whose declared size exceeds the
// reader's bound; the stream cannot be resynchronised after it.
var errFrameTooLarge = errors.New("shard: frame exceeds size bound")

// AppendFrame appends f's encoding to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [2 + 4*binary.MaxVarintLen64]byte
	h := append(hdr[:0], byte(f.Kind), byte(f.Status))
	h = binary.AppendVarint(h, int64(f.Level))
	h = binary.AppendUvarint(h, uint64(len(f.Key)))
	h = binary.AppendUvarint(h, uint64(len(f.Span)))
	h = binary.AppendUvarint(h, uint64(len(f.Trace)))
	size := len(h) + len(f.Key) + len(f.Span) + len(f.Trace) + len(f.Body)
	dst = binary.AppendUvarint(dst, uint64(size))
	dst = append(dst, h...)
	dst = append(dst, f.Key...)
	dst = append(dst, f.Span...)
	dst = append(dst, f.Trace...)
	return append(dst, f.Body...)
}

// parseFrame decodes the part of a frame after its size field.
func parseFrame(b []byte) (Frame, error) {
	if len(b) < 2 {
		return Frame{}, fmt.Errorf("%w: %d-byte frame", ErrMalformed, len(b))
	}
	f := Frame{Kind: Kind(b[0]), Status: Status(b[1])}
	if !f.Kind.valid() {
		return Frame{}, fmt.Errorf("%w: unknown kind %#x", ErrMalformed, b[0])
	}
	if f.Status > StatusFailed {
		return Frame{}, fmt.Errorf("%w: unknown status %d", ErrMalformed, b[1])
	}
	b = b[2:]
	level, n := binary.Varint(b)
	if n <= 0 || int64(int(level)) != level {
		return Frame{}, fmt.Errorf("%w: bad level", ErrMalformed)
	}
	f.Level = int(level)
	b = b[n:]
	var lens [3]uint64
	for i := range lens {
		l, n := binary.Uvarint(b)
		if n <= 0 {
			return Frame{}, fmt.Errorf("%w: bad field length", ErrMalformed)
		}
		lens[i] = l
		b = b[n:]
	}
	if lens[0] > uint64(len(b)) || lens[1] > uint64(len(b))-lens[0] || lens[2] > uint64(len(b))-lens[0]-lens[1] {
		return Frame{}, fmt.Errorf("%w: fields overrun the frame", ErrMalformed)
	}
	f.Key = string(b[:lens[0]])
	b = b[lens[0]:]
	f.Span = string(b[:lens[1]])
	b = b[lens[1]:]
	if lens[2] > 0 {
		f.Trace = b[:lens[2]]
	}
	if b = b[lens[2]:]; len(b) > 0 {
		f.Body = b
	}
	return f, nil
}

// Reader reads frames from a pipe, one at a time.
type Reader struct {
	r   *bufio.Reader
	max int
	buf []byte
}

// NewReader reads frames from r, refusing any frame whose size field
// exceeds max bytes.
func NewReader(r io.Reader, max int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10), max: max}
}

// Next reads the next frame. Its Trace and Body alias the reader's
// buffer and stay valid only until the next call; Key and Span are
// copies. io.EOF means the stream ended cleanly between frames, and
// io.ErrUnexpectedEOF that it ended inside one — a writer killed
// mid-frame — in which case nothing of that frame is returned. An error
// wrapping ErrMalformed leaves the stream in step; any other error ends
// it.
func (fr *Reader) Next() (Frame, error) {
	size, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return Frame{}, err
	}
	if size > uint64(fr.max) {
		return Frame{}, fmt.Errorf("%w: %d > %d bytes", errFrameTooLarge, size, fr.max)
	}
	if uint64(cap(fr.buf)) < size {
		fr.buf = make([]byte, size)
	}
	b := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return parseFrame(b)
}

// Telemetry is one worker observability shipment. The worker fills
// Metrics in its periodic KindTelemetry frames; the supervisor also
// forwards each traced reply's span tree as a shipment of one span.
// Either way the supervisor stamps Shard and Epoch (the child
// incarnation number) on receipt — the child cannot know its own
// epoch, and an authoritative stamp survives any worker confusion.
type Telemetry struct {
	// Shard is the shard index the shipment arrived from.
	Shard int `json:"shard"`
	// Epoch is the incarnation of the child that sent it: 1 for the
	// first start, incremented on every restart. A span stamped with an
	// earlier epoch than the document's final answer belonged to an
	// attempt that died.
	Epoch int64 `json:"epoch,omitempty"`
	// Metrics is the delta of the worker's registry since its previous
	// shipment (obs.Snapshot.DeltaSince); the front end folds it into
	// the fleet registry with a shard label.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Spans holds the span tree a traced reply carried, its root stamped
	// with the request's Span as its parent_span attribute. A tree rides
	// in the same frame, and so the same write, as its document's reply:
	// a worker that answered a document has shipped its tree.
	Spans []obs.SpanSnapshot `json:"spans,omitempty"`
	// Final marks the worker's shutdown flush.
	Final bool `json:"final,omitempty"`
}
