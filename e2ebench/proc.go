package main

// The system under test as processes: start one binary in its own
// process group, tell when it is ready from /proc alone (the program
// gains no hook for the benchmark), sample the CPU and resident memory
// of its whole process tree, and stop it — waiting until every process
// it started has ended.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readSyscall is the number of read(2) as /proc/<pid>/syscall prints it.
var readSyscall = map[string]string{"amd64": "0", "arm64": "63"}[runtime.GOARCH]

// sut is one running instance of the system under test: vs2d -listen.
type sut struct {
	cmd     *exec.Cmd
	stderr  *syncBuffer
	shards  int // child processes expected before it counts as ready
	started time.Time
	ready   time.Duration
	addr    string // the announced listen address
	pids    []int  // the front end first, then its shard children

	kids      []int // shard children found while waiting for readiness
	kidsReady int   // how many of kids were seen blocked on their pipe
}

// syncBuffer collects a child's stderr for the announced listen address
// and the end-of-run metrics snapshot.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// readyTimeout bounds one start-up. A start-up takes tens of
// milliseconds, but on a loaded host one of about 200 was not seen ready
// within 20s.
const readyTimeout = 60 * time.Second

// startSUT execs bin with args and blocks until it is ready, which is
// what setup_s times:
//
//   - every shard child has started and blocks reading its request pipe:
//     a thread sits in read(2) on descriptor 0, so a liveness ping written
//     now is answered at once;
//   - the front end has announced its listener.
//
// Readiness is polled from /proc every 500µs, so the reading carries at
// most that much slack; the caller repeats the start-up and takes the
// median.
func startSUT(bin string, args []string, shards int) (*sut, error) {
	s := &sut{shards: shards, stderr: &syncBuffer{}}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	deadline := s.started.Add(readyTimeout)
	for !s.isReady() {
		if time.Now().After(deadline) {
			state := s.threadStates()
			s.kill()
			s.cmd.Wait() //nolint:errcheck // killed
			return nil, fmt.Errorf("%s not ready after %v; %s; stderr:\n%s", filepath.Base(bin), readyTimeout, state, s.stderr.String())
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.ready = time.Since(s.started)
	return s, nil
}

// isReady checks the parts not yet seen ready; a part stays ready until
// input arrives, so each is read until it first passes and the poll costs
// the start-up it measures as little CPU as possible.
func (s *sut) isReady() bool {
	pid := s.cmd.Process.Pid
	if len(s.kids) < s.shards {
		if s.kids = childPIDs(pid); len(s.kids) < s.shards {
			return false
		}
	}
	for ; s.kidsReady < len(s.kids); s.kidsReady++ {
		if kid := s.kids[s.kidsReady]; !blockedOnStdin(kid) {
			if !alive(kid) {
				// The supervisor restarted this shard: look again.
				s.kids, s.kidsReady = nil, 0
			}
			return false
		}
	}
	const marker = "listening on "
	out := s.stderr.String()
	i := strings.Index(out, marker)
	if i < 0 {
		return false
	}
	line := out[i+len(marker):]
	j := strings.IndexByte(line, '\n')
	if j < 0 {
		return false
	}
	s.addr = line[:j]
	s.pids = append([]int{pid}, s.kids...)
	return true
}

// threadStates describes a start-up that never became ready: the shard
// children found, and what each of their threads was doing.
func (s *sut) threadStates() string {
	var b strings.Builder
	fmt.Fprintf(&b, "children %v (%d seen reading)", childPIDs(s.cmd.Process.Pid), s.kidsReady)
	for _, pid := range s.kids {
		fmt.Fprintf(&b, "; child %d:", pid)
		tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		for _, t := range tasks {
			data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/syscall", pid, t.Name()))
			f := strings.Fields(string(data))
			fmt.Fprintf(&b, " %s", strings.Join(f[:min(len(f), 2)], ","))
		}
	}
	return b.String()
}

// childPIDs lists the direct children of pid.
func childPIDs(pid int) []int {
	tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	var out []int
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/children", pid, t.Name()))
		if err != nil {
			continue
		}
		for _, f := range strings.Fields(string(data)) {
			if k, err := strconv.Atoi(f); err == nil {
				out = append(out, k)
			}
		}
	}
	return out
}

// blockedOnStdin reports whether some thread of pid is blocked in
// read(2) on descriptor 0.
func blockedOnStdin(pid int) bool {
	tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/syscall", pid, t.Name()))
		if err != nil {
			continue
		}
		f := strings.Fields(string(data))
		if len(f) >= 2 && f[0] == readSyscall && f[1] == "0x0" {
			return true
		}
	}
	return false
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// cpuTime is the user+sys CPU the process tree has used so far: the
// front end's own and its reaped children's, plus each live shard's. A
// shard's CPU moves into the front end's children's share when the front
// end reaps it, and a front end that has exited stays readable until the
// benchmark waits for it, so the sum holds through the end of a stream.
func (s *sut) cpuTime() time.Duration {
	var total time.Duration
	for k, pid := range s.pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		rest := string(data[bytes.LastIndexByte(data, ')')+2:])
		f := strings.Fields(rest)
		if len(f) < 15 {
			continue
		}
		fields := f[11:13] // utime, stime
		if k == 0 {
			fields = f[11:15] // and cutime, cstime
		}
		for _, v := range fields {
			n, _ := strconv.ParseInt(v, 10, 64)
			total += time.Duration(n) * clockTick
		}
	}
	return total
}

// peakRSS is the sum over the process tree of each process's peak
// resident set (VmHWM), in MiB.
func (s *sut) peakRSS() float64 {
	var kb int64
	for _, pid := range s.pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					v, _ := strconv.ParseInt(f[1], 10, 64)
					kb += v
				}
			}
		}
	}
	return float64(kb) / 1024
}

// stop ends the instance the way an operator would, with SIGTERM, and
// waits for the front end and every shard child to exit. Anything still
// alive after grace is killed.
func (s *sut) stop(grace time.Duration) error {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(grace):
		s.kill()
		err = <-done
		if err == nil {
			err = errors.New("killed after grace")
		}
	}
	s.reapShards()
	return err
}

// kill SIGKILLs the whole process group (front end and shards).
func (s *sut) kill() {
	syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck
}

// reapShards waits for the shard children to disappear: the front end
// drains them before it exits, so this only polices a leak.
func (s *sut) reapShards() {
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range s.pids[min(1, len(s.pids)):] {
		for alive(pid) {
			if time.Now().After(deadline) {
				syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck
				deadline = time.Now().Add(time.Second)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// killedBy reports whether err is a process's end by signal sig.
func killedBy(err error, sig syscall.Signal) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// alive reports whether pid still exists and is not a zombie.
func alive(pid int) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(data, ')')
	return i >= 0 && i+2 < len(data) && data[i+2] != 'Z'
}

// stealTicks reads the host's cumulative steal and total CPU ticks from
// /proc/stat, for the run's steal-share annotation.
func stealTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line := strings.SplitN(string(data), "\n", 2)[0]
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
