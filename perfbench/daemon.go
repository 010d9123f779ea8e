package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one ocasd process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// startDaemon launches ocasd with default flags plus the listen address
// and extra (only -data is ever passed) and waits until /healthz answers.
// Its log goes to logPath.
func startDaemon(bin, logPath string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// ocasd must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ocasd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			logf.Close()
			return nil, fmt.Errorf("ocasd exited during start-up: %v (log %s)", d.err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("ocasd not healthy after 20s (log %s)", logPath)
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (ocasd's graceful path: drain, flush the catalog) and
// waits for the exit; a daemon still alive after 30s is killed.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.done
		return nil
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("ocasd ignored SIGTERM for 30s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.log.Close()
}

// procStatus reads one "Key: value kB" line of /proc/<pid>/status.
func (d *daemon) procStatus(key string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, d.cmd.Process.Pid)
}

// peakRSSMB is ocasd's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := d.procStatus("VmHWM")
	return float64(kb) / 1024, err
}

// cpuSeconds is ocasd's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/pid/stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/pid/stat")
	}
	return float64(ut+st) / 100, nil // USER_HZ is 100 on Linux
}

// client is the benchmark's HTTP client: keep-alive connections to one
// daemon, shared by the load goroutines.
var client = &http.Client{
	Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	},
	Timeout: 120 * time.Second,
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	body   []byte
	cache  string // X-Ocas-Cache
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func (r reply) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
}

func do(ctx context.Context, method, url, ctype string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, cache: resp.Header.Get("X-Ocas-Cache"), err: err}
}

func post(ctx context.Context, url string, body []byte) reply {
	return do(ctx, http.MethodPost, url, "application/json", body)
}
