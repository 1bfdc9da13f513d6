package shard

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

var allKinds = []Kind{KindDoc, KindPing, KindAdopt, KindReply, KindPong, KindAdopted, KindError, KindTelemetry}

// sameFrame compares two frames field by field, an empty payload equal
// to a nil one.
func sameFrame(a, b Frame) bool {
	return a.Kind == b.Kind && a.Status == b.Status && a.Level == b.Level &&
		a.Key == b.Key && a.Span == b.Span &&
		bytes.Equal(a.Trace, b.Trace) && bytes.Equal(a.Body, b.Body)
}

// readOne reads one frame from b and checks that nothing follows it.
func readOne(t *testing.T, b []byte) (Frame, error) {
	t.Helper()
	fr := NewReader(bytes.NewReader(b), len(b))
	f, err := fr.Next()
	if err != nil {
		return f, err
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the only frame: %v, want io.EOF", err)
	}
	return f, nil
}

// FuzzFrame: every request and reply frame round-trips, whatever its
// key (empty, newlines, spaces, NULs, bytes that look like a header),
// span, level, status, trace and body; no proper prefix of a frame
// reads as a frame; and arbitrary bytes read as a frame stream never
// panic the reader.
func FuzzFrame(f *testing.F) {
	f.Add(byte(0), byte(0), int64(0), "d2-00000", "fe-1", []byte(nil), []byte(`{"id":"d2-00000","width":450}`))
	f.Add(byte(3), byte(StatusDegraded), int64(0), "id with\nnewline", "", []byte(`{"name":"worker"}`), []byte(`{"id":"id with\nnewline"}`))
	f.Add(byte(2), byte(0), int64(0), "\x00adopt:/state/shard-1.wal", "", []byte(nil), []byte("/state/shard-1.wal"))
	f.Add(byte(0), byte(0), int64(3), " D\x05\x00\x80 ", "\n\n", []byte{0x80, 0x01}, []byte{'\n'})
	f.Add(byte(7), byte(2), int64(-1<<62), "", "", []byte(nil), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, kind, status byte, level int64, key, span string, trace, body []byte) {
		// Arbitrary bytes as a stream: any outcome but a panic.
		fr := NewReader(bytes.NewReader(body), 1<<16)
		for i := 0; i < 64; i++ {
			if _, err := fr.Next(); err != nil && !errors.Is(err, ErrMalformed) {
				break
			}
		}

		want := Frame{
			Kind:   allKinds[int(kind)%len(allKinds)],
			Status: Status(status % 3),
			Level:  int(level),
			Key:    key,
			Span:   span,
			Trace:  trace,
			Body:   body,
		}
		enc := AppendFrame([]byte("prefix"), want)[len("prefix"):]
		got, err := readOne(t, enc)
		if err != nil {
			t.Fatalf("round trip of %+v: %v", want, err)
		}
		if !sameFrame(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		// Cut inside the header everywhere, and in the payload at its middle
		// and its last byte.
		for n := 0; n < len(enc); n++ {
			if n >= 64 && n != len(enc)/2 && n != len(enc)-1 {
				continue
			}
			if got, err := NewReader(bytes.NewReader(enc[:n]), len(enc)).Next(); err == nil {
				t.Fatalf("%d-byte prefix of a %d-byte frame read as %+v", n, len(enc), got)
			}
		}
	})
}

// TestReaderTornFrame: a response stream that ends mid-frame — a child
// killed mid-write — yields every complete frame before the tear, then
// io.ErrUnexpectedEOF and nothing of the torn frame, wherever the tear
// falls and however the bytes trickle in.
func TestReaderTornFrame(t *testing.T) {
	whole := []Frame{
		{Kind: KindReply, Status: StatusOK, Key: "d2-00000", Body: []byte(`{"id":"d2-00000"}`)},
		{Kind: KindTelemetry, Body: []byte(`{"shard":0,"metrics":{}}`)},
		{Kind: KindPong},
	}
	torn := Frame{Kind: KindReply, Status: StatusFailed, Key: "d2\n00001", Trace: []byte(`{"name":"worker"}`), Body: []byte(`{"id":"d2\n00001","error":"x"}`)}
	var stream []byte
	for _, f := range whole {
		stream = AppendFrame(stream, f)
	}
	tornEnc := AppendFrame(nil, torn)
	for cut := 1; cut < len(tornEnc); cut++ {
		in := append(append([]byte(nil), stream...), tornEnc[:cut]...)
		for _, r := range []io.Reader{bytes.NewReader(in), iotest.OneByteReader(bytes.NewReader(in))} {
			fr := NewReader(r, 1<<10)
			for i, want := range whole {
				got, err := fr.Next()
				if err != nil {
					t.Fatalf("cut %d: frame %d: %v", cut, i, err)
				}
				if !sameFrame(got, want) {
					t.Fatalf("cut %d: frame %d = %+v, want %+v", cut, i, got, want)
				}
			}
			if got, err := fr.Next(); err != io.ErrUnexpectedEOF {
				t.Fatalf("cut %d: torn frame read as %+v, %v; want io.ErrUnexpectedEOF", cut, got, err)
			}
		}
	}
}

// TestReaderMalformedAndOversized: a frame whose header does not parse
// is reported as ErrMalformed and the next frame still reads; a size
// above the bound is refused before any payload is read.
func TestReaderMalformedAndOversized(t *testing.T) {
	// Each malformed frame is a full header but for the one fault.
	stream := []byte{6, 'x', 0, 0, 0, 0, 0}                                     // unknown kind
	stream = append(stream, 6, byte(KindReply), 7, 0, 0, 0, 0)                  // unknown status
	stream = append(stream, 6, byte(KindDoc), 0, 0, 9, 0, 0)                    // key longer than the frame
	stream = AppendFrame(stream, Frame{Kind: KindPing})                         // still in step
	stream = AppendFrame(stream, Frame{Kind: KindDoc, Body: make([]byte, 100)}) // too large
	fr := NewReader(bytes.NewReader(stream), 64)
	for i := 0; i < 3; i++ {
		if _, err := fr.Next(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("frame %d: %v, want ErrMalformed", i, err)
		}
	}
	if f, err := fr.Next(); err != nil || f.Kind != KindPing {
		t.Fatalf("frame after malformed ones = %+v, %v; want a ping", f, err)
	}
	if _, err := fr.Next(); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want errFrameTooLarge", err)
	}
}
