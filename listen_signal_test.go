package vs2

// SIGTERM handling of vs2d -listen: a signal sent the moment the
// listener is announced must take the orderly shutdown path (fleet
// drain, final telemetry, trace file) and exit 0, never the signal's
// default action. Subprocess-heavy: runs only in the full suite.

import (
	"bufio"
	"io"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestListenSIGTERMAfterAnnounce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess-heavy: full suite only")
	}
	bin := buildVS2DBinary(t)
	for i := 0; i < 20; i++ {
		cmd := exec.Command(bin, "-task", "events", "-shards", "1", "-listen", "127.0.0.1:0")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() }) //nolint:errcheck
		var log strings.Builder
		br := bufio.NewReader(stderr)
		for {
			line, rerr := br.ReadString('\n')
			log.WriteString(line)
			if strings.HasPrefix(line, "vs2d: listening on ") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatalf("run %d: SIGTERM: %v", i, err)
				}
				break
			}
			if rerr != nil {
				break
			}
		}
		rest, _ := io.ReadAll(br)
		log.Write(rest)
		err = cmd.Wait()
		watchdog.Stop()
		if err != nil {
			t.Fatalf("run %d: vs2d exited with %v after SIGTERM, want exit 0\nstderr:\n%s", i, err, log.String())
		}
		if !strings.Contains(log.String(), "vs2d: listening on ") {
			t.Fatalf("run %d: no listener announcement\nstderr:\n%s", i, log.String())
		}
	}
}
