package main

// The load generator. It runs in this one process and stamps every
// document at send and at receive; all checking and scoring happens after
// the run, from those stamps and the reply lines.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// window is the timed part of a run: the documents counted, the wall
// time they took and the CPU and peak memory of the system under test.
type window struct {
	counted  []int // document indices the window counts
	elapsed  time.Duration
	cpu      time.Duration
	peakRSS  float64
	latency  []float64 // ms, one per counted document
	lateness []float64 // ms: send time past due time
}

// openRun is one open-loop run: documents are due on a fixed schedule
// regardless of replies, spread round-robin over a few connections.
type openRun struct {
	due, sentAt, recvAt []time.Time
	lines               [][]byte // by document index; nil when no reply
	extra               int      // reply lines beyond the documents sent
	win                 window
}

// runOpen sends items at rate docs/s over conns TCP connections. The
// first warm documents warm the system up, the next timed are measured,
// and sending continues on schedule until every timed document's reply
// has arrived (or cool-down runs out) so that no timed reply waits on the
// end of a stream. Only then does each connection end its stream. A
// document's latency runs from its due time, not its send time, so a
// stall in the generator counts against every document behind it.
func runOpen(s *sut, items []item, rate float64, conns, warm, timed int, cool time.Duration) (*openRun, error) {
	n := len(items)
	r := &openRun{due: make([]time.Time, n), sentAt: make([]time.Time, n), recvAt: make([]time.Time, n), lines: make([][]byte, n)}
	cs := make([]*net.TCPConn, conns)
	for c := range cs {
		conn, err := net.Dial("tcp", s.addr)
		if err != nil {
			for _, done := range cs[:c] {
				done.Close() //nolint:errcheck
			}
			return nil, fmt.Errorf("dial %s: %w", s.addr, err)
		}
		cs[c] = conn.(*net.TCPConn)
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	for i := range r.due {
		r.due[i] = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	recvPer := make([]atomic.Int64, conns)
	extraPer := make([]int, conns)
	errs := make([]error, 2*conns)
	for c := range cs {
		wg.Add(2)
		go func(c int) { // sender
			defer wg.Done()
			defer cs[c].CloseWrite() //nolint:errcheck
			for i := c; i < n; i += conns {
				if stop.Load() {
					return
				}
				time.Sleep(time.Until(r.due[i]))
				if _, err := cs[c].Write(items[i].line); err != nil {
					errs[c] = err
					return
				}
				r.sentAt[i] = time.Now()
			}
		}(c)
		go func(c int) { // reader
			defer wg.Done()
			br := bufio.NewReaderSize(cs[c], 1<<20)
			for k := 0; ; k++ {
				line, err := br.ReadBytes('\n')
				if len(line) > 0 && line[len(line)-1] == '\n' {
					if i := c + k*conns; i < n {
						r.recvAt[i] = time.Now()
						r.lines[i] = line[:len(line)-1]
					} else {
						extraPer[c]++
					}
					recvPer[c].Add(1)
				}
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[conns+c] = err
					return
				}
			}
		}(c)
	}

	// Sample the process tree at the edges of the timed schedule, then
	// keep sending until the timed replies are in.
	end := min(warm+timed, n-1)
	time.Sleep(time.Until(r.due[warm]))
	cpu0 := s.cpuTime()
	time.Sleep(time.Until(r.due[end]))
	cpu1 := s.cpuTime()
	r.win.peakRSS = s.peakRSS()
	deadline := r.due[end].Add(cool)
	for time.Now().Before(deadline) {
		in := true
		for c := range cs {
			// Replies on connection c up to the last timed document on it.
			lastOnC := end - 1 - (end-1-c+conns)%conns
			if int(recvPer[c].Load()) <= (lastOnC-c)/conns {
				in = false
			}
		}
		if in {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	for _, c := range cs {
		c.Close() //nolint:errcheck
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for c := range cs {
		r.extra += extraPer[c]
	}
	r.win.cpu = cpu1 - cpu0
	r.win.elapsed = r.due[end].Sub(r.due[warm])
	if !r.sentAt[end].IsZero() && !r.sentAt[warm].IsZero() {
		r.win.elapsed = r.sentAt[end].Sub(r.sentAt[warm])
	}
	r.win.latency, r.win.lateness = dueLatencies(r.due, r.sentAt, r.recvAt, warm, end, deadline)
	for i := warm; i < end; i++ {
		r.win.counted = append(r.win.counted, i)
	}
	return r, nil
}

// dueLatencies times documents [from, to) of an open-loop schedule from
// their due time to the client reading their reply, so a stall anywhere —
// in the generator, the server or a reply buffer — counts against every
// document it delays. A missing reply counts as late as the run allowed
// (deadline). lateness is how far each send ran behind its due time.
func dueLatencies(due, sentAt, recvAt []time.Time, from, to int, deadline time.Time) (latency, lateness []float64) {
	for i := from; i < to; i++ {
		done := deadline
		if !recvAt[i].IsZero() {
			done = recvAt[i]
		}
		latency = append(latency, ms(done.Sub(due[i])))
		if !sentAt[i].IsZero() {
			lateness = append(lateness, ms(sentAt[i].Sub(due[i])))
		}
	}
	return latency, lateness
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
