package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rfidcleand process under test.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	start time.Time
	done  chan struct{} // closed once the process has been reaped
	err   error         // Wait's result, valid after done
}

var listenLine = regexp.MustCompile(`listening on (\S+?),?(\s|$)`)

// startDaemon execs rfidcleand on an ephemeral loopback port and waits for
// it to report its listen address. Its log output is drained and dropped,
// except that the last lines are kept for error messages.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	// Should the benchmark die without stopping it, the kernel kills the
	// daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	tail := &tailBuffer{}
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			tail.add(line)
			if !sent {
				if m := listenLine.FindStringSubmatch(line); m != nil {
					addr <- m[1]
					sent = true
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("rfidcleand exited before listening: %v\n%s", d.err, tail)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("rfidcleand did not report a listen address\n%s", tail)
	}
}

// stop sends SIGTERM and waits for the graceful shutdown to finish.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(120 * time.Second):
		d.kill()
		return errors.New("rfidcleand did not stop within 120s of SIGTERM")
	}
}

// kill ends the process at once and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// cpu reads the process's user+system CPU time from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %q", f[11:13])
	}
	const hz = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / hz, nil
}

// peakRSS reads the process's resident high-water mark from /proc.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// exitUsage returns the CPU time and peak RSS of a reaped process.
func (d *daemon) exitUsage() (time.Duration, int64) {
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss << 10
}

// health is the /healthz body.
type health struct {
	Status       string `json:"status"`
	Deployments  int    `json:"deployments"`
	Trajectories int    `json:"trajectories"`
	StoreBytes   int64  `json:"storeBytes"`
}

func getHealth(c *http.Client, base string) (health, error) {
	var h health
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// tailBuffer keeps the last few log lines of a process.
type tailBuffer struct{ lines []string }

func (t *tailBuffer) add(l string) {
	t.lines = append(t.lines, l)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string { return strings.Join(t.lines, "\n") }
