package main

// Serve-path tests: the reply contract, the connection cap and the idle
// deadline run against a fake router, so no child-process fleet is
// needed. A reply is written as soon as it and every earlier reply of
// its connection are ready, so a client can read while its stream is
// still open; probes that want every reply write, half-close, then read
// to the end.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"vs2"
	"vs2/internal/obs"
	"vs2/internal/shard"
)

// fakeRouter answers every document with a deterministic echo line,
// optionally after a delay.
type fakeRouter struct {
	delay time.Duration
}

func (f *fakeRouter) Do(ctx context.Context, key string, doc []byte, span string, level int) ([]byte, shard.Status, error) {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	line, err := json.Marshal(map[string]string{"id": key})
	return line, shard.StatusOK, err
}

// startFakeListener serves a fake-routed listener and returns its
// address, metrics registry and a stop function.
func startFakeListener(t *testing.T, o *options, rt router) (string, *vs2.Metrics, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := vs2.NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := serveListener(ctx, l, rt, m, o, nil, nil, nil, io.Discard); err != nil {
			t.Errorf("serveListener: %v", err)
		}
	}()
	return l.Addr().String(), m, func() {
		cancel()
		<-done
	}
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	return conn
}

// exchange writes docs, half-closes, and returns everything the server
// sent back.
func exchange(t *testing.T, conn net.Conn, docs string) string {
	t.Helper()
	if _, err := conn.Write([]byte(docs)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return string(reply)
}

// TestServeRepliesWithoutHalfClose: a client that keeps its stream open
// reads each reply once it is ready, without half-closing or sending
// more documents.
func TestServeRepliesWithoutHalfClose(t *testing.T) {
	o := &options{shards: 1, task: "events", maxLine: 1 << 20, maxConns: 4, workers: 1, queue: 4}
	addr, _, stop := startFakeListener(t, o, &fakeRouter{})
	defer stop()

	conn := dialT(t, addr)
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"id":"open-stream"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the reply with the stream open: %v", err)
	}
	if !strings.Contains(reply, "open-stream") {
		t.Fatalf("reply = %q, want its echo", reply)
	}
}

// TestServeConnLimitSheds: with -max-conns 1, a second concurrent
// connection is refused with one parseable JSON error line, the shed is
// counted, and releasing the first connection frees the slot.
func TestServeConnLimitSheds(t *testing.T) {
	o := &options{shards: 1, task: "events", maxLine: 1 << 20, maxConns: 1, workers: 1, queue: 4}
	addr, m, stop := startFakeListener(t, o, &fakeRouter{})
	defer stop()

	// First connection holds the only slot: stream open, nothing sent.
	first := dialT(t, addr)

	// Second connection: shed with a JSON error line, then closed.
	second := dialT(t, addr)
	shedReply, err := io.ReadAll(second)
	second.Close()
	if err != nil {
		t.Fatalf("reading shed conn: %v", err)
	}
	var shed map[string]string
	if jerr := json.Unmarshal([]byte(strings.TrimSpace(string(shedReply))), &shed); jerr != nil || !strings.Contains(shed["error"], "connection limit") {
		t.Fatalf("shed reply = %q, want one JSON connection-limit error line", shedReply)
	}
	if got := m.Counter(obs.Name("serve.shed", obs.L("reason", "conn_limit"))).Value(); got != 1 {
		t.Errorf(`serve.shed{reason="conn_limit"} = %d, want 1`, got)
	}

	// The held slot still works, and releasing it admits a newcomer.
	if reply := exchange(t, first, `{"id":"held"}`+"\n"); !strings.Contains(reply, "held") {
		t.Errorf("first conn reply = %q, want its echo", reply)
	}
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		third := dialT(t, addr)
		reply := exchange(t, third, `{"id":"after"}`+"\n")
		third.Close()
		if strings.Contains(reply, `"after"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: last reply %q", reply)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeIdleTimeoutCloses: a connection that goes silent is
// reclaimed after -idle-timeout — documents already submitted still
// answer, the close is counted, and the freed slot serves the next
// client.
func TestServeIdleTimeoutCloses(t *testing.T) {
	o := &options{shards: 1, task: "events", maxLine: 1 << 20, maxConns: 1, idleTimeout: 120 * time.Millisecond, workers: 1, queue: 4}
	addr, m, stop := startFakeListener(t, o, &fakeRouter{})
	defer stop()

	conn := dialT(t, addr)
	if _, err := conn.Write([]byte(`{"id":"before-idle"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// Then go silent — no half-close: the idle deadline must end the
	// stream for us.
	reply, err := io.ReadAll(conn)
	conn.Close()
	if err != nil {
		t.Fatalf("reading idle-closed conn: %v", err)
	}
	if !strings.Contains(string(reply), "before-idle") {
		t.Errorf("in-flight document lost on idle close: %q", reply)
	}
	if got := m.Counter("serve.conn.idle_closed").Value(); got != 1 {
		t.Errorf("serve.conn.idle_closed = %d, want 1", got)
	}

	// The reclaimed slot serves the next connection (cap is 1, so this
	// only works if the idle close released it).
	next := dialT(t, addr)
	reply2 := exchange(t, next, `{"id":"fresh"}`+"\n")
	next.Close()
	if !strings.Contains(reply2, "fresh") {
		t.Fatalf("post-idle connection reply = %q", reply2)
	}
}

// TestServeIdleKeepsActiveConn: a client sending slower than the
// document rate but faster than the idle deadline is never reclaimed —
// the deadline re-arms on every read.
func TestServeIdleKeepsActiveConn(t *testing.T) {
	o := &options{shards: 1, task: "events", maxLine: 1 << 20, maxConns: 4, idleTimeout: 300 * time.Millisecond, workers: 1, queue: 4}
	addr, m, stop := startFakeListener(t, o, &fakeRouter{})
	defer stop()

	conn := dialT(t, addr)
	defer conn.Close()
	for i := 0; i < 4; i++ {
		time.Sleep(80 * time.Millisecond) // paced under the idle deadline
		if _, err := conn.Write([]byte(fmt.Sprintf(`{"id":"slow-%d"}`, i) + "\n")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !strings.Contains(string(reply), fmt.Sprintf("slow-%d", i)) {
			t.Errorf("reply missing slow-%d: %q", i, reply)
		}
	}
	if got := m.Counter("serve.conn.idle_closed").Value(); got != 0 {
		t.Errorf("serve.conn.idle_closed = %d for an active conn, want 0", got)
	}
}
