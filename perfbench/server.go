package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one hyperhetd subprocess on a loopback port with its own
// journal directory.
type server struct {
	cmd        *exec.Cmd
	base       string // http://127.0.0.1:port
	journalDir string
	logPath    string
	exited     chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the prebuilt binary with a fresh journal directory
// under dir and waits until /healthz answers.
func startServer(bin, dir string, extra []string, cl *client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	jdir, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(jdir, "server.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-journal", jdir, "-pprof"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting hyperhetd: %w", err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), journalDir: jdir,
		logPath: logf.Name(), exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("hyperhetd exited during start-up: %s", s.logTail())
		default:
		}
		if code, _, err := cl.get(s.base + "/healthz"); err == nil && code == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("hyperhetd did not become healthy within 20s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGINT and waits for it to exit, killing
// it if the graceful drain hangs.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// cpuSeconds reads the server's user+sys CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// procStatus reads one numeric field of /proc/<pid>/status (kB values
// are returned in kB).
func (s *server) procStatus(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseFloat(fs[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// totalAlloc reads the server's cumulative heap allocation in bytes from
// the runtime.MemStats section of /debug/pprof/allocs?debug=1.
func (s *server) totalAlloc(cl *client) (float64, error) {
	code, body, err := cl.get(s.base + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("allocs profile: status %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, errors.New("no TotalAlloc in allocs profile")
}

// journalBytes is the size of the server's journal file.
func (s *server) journalBytes() (float64, error) {
	fi, err := os.Stat(filepath.Join(s.journalDir, "journal.wal"))
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}

// scrapeMetrics sums every sample of the Prometheus exposition by series
// name plus label set, e.g. `hyperhet_sched_cache_requests_total{result="hit"}`,
// and by bare name for the total across labels.
func (s *server) scrapeMetrics(cl *client) (map[string]float64, error) {
	code, body, err := cl.get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] += v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			out[series[:i]] += v
		}
	}
	return out, nil
}

// hostSteal returns the machine's cumulative steal time in seconds from
// /proc/stat, the share of time the hypervisor ran someone else.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			v, _ := strconv.ParseFloat(f[8], 64)
			return v / clockTicks
		}
	}
	return 0
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// waitSettledStats blocks until /stats counts at least want settled jobs:
// the server closes a job's done channel before it bumps its counters and
// appends the journal's finished record, so a job the client saw settle
// may not be in /metrics or the journal yet. Counters and the journal are
// read only after this returns.
func (s *server) waitSettledStats(ctx context.Context, cl *client, want int) error {
	for {
		var st struct {
			Completed, Failed, Cancelled int
		}
		if err := cl.getJSON(s.base+"/stats", &st); err != nil {
			return err
		}
		if st.Completed+st.Failed+st.Cancelled >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("/stats settled %d of %d jobs: %w", st.Completed+st.Failed+st.Cancelled, want, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
