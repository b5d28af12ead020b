package main

import (
	"bufio"
	"context"
	"errors"
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

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
const clockTicks = 100

// probeClient checks health and scrapes metrics without keeping a
// connection open beside the generator's own.
var probeClient = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// daemon is one cpackd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// startDaemon execs cpackd with the benchmark's pool sizes plus extra
// flags, logging at the default info level to a temporary file in tmpDir,
// and returns once /healthz answers 200.
func startDaemon(ctx context.Context, bin, tmpDir string, extra ...string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(tmpDir, "cpackd-*.log")
	if err != nil {
		return nil, err
	}
	// The server runs at the lowest CPU priority. The generator uses little
	// CPU but must run on time: at equal priority on a 2-vCPU host it
	// waited behind the server for a CPU, fell behind its schedule and
	// timed its own delays. At nice 19 the run-to-run spread of capacity
	// and latency there fell by a third to a half.
	args := append([]string{"-n", "19", bin, "-addr", addr, "-light-workers", "8", "-heavy-workers", "2"}, extra...)
	cmd := exec.Command("nice", args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed;
	// nice execs cpackd in its own process, which keeps the signal.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.Remove(logf.Name())
		return nil, fmt.Errorf("start cpackd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf}
	if err := d.waitHealthy(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := probeClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("cpackd at %s never answered /healthz: %s", d.base, d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop kills the process, waits for it and removes its log.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
	os.Remove(d.log.Name())
}

// cpuSeconds is the process's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// scrape reads /metrics into a map from series (name plus labels, as
// exposed) to value.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
