package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nbody/client"
)

// proc is one launched server binary.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
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

// launch starts bin (one of the program's binaries, built into the bench
// build directory) listening on a fresh loopback port, with its log in
// the run directory, and waits until /readyz answers 200.
func (e *env) launch(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(e.runDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.binDir, bin), append([]string{"-addr", addr, "-log-format", "json"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the servers follow it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	if err := p.waitReady(ctx, 30*time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) waitReady(ctx context.Context, budget time.Duration) error {
	c, err := client.New(p.url, client.WithRetries(0, 0, 0))
	if err != nil {
		return err
	}
	deadline := time.Now().Add(budget)
	for {
		rctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Ready(rctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready (see %s)", p.name, p.log.Name())
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s not ready after %v: %v", p.name, budget, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hwmMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) hwmMB() (float64, error) { return hwmMB(p.cmd.Process.Pid) }

func hwmMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// stop sends SIGTERM, waits for a clean drain, and kills after 15 s.
// It returns once the process has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// stopAll stops ps concurrently and waits for every one.
func stopAll(ps ...*proc) {
	done := make(chan struct{}, len(ps))
	for _, p := range ps {
		go func() {
			p.stop()
			done <- struct{}{}
		}()
	}
	for range ps {
		<-done
	}
}

// promSamples fetches a Prometheus text exposition and sums each metric
// name's samples across label sets.
func promSamples(ctx context.Context, base string) (map[string]float64, error) {
	body, err := getBody(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			// Labels may contain spaces; the value follows the closing brace.
			j := strings.LastIndexByte(line, '}')
			name, rest = line[:i], line[j+1:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}

// v1Metrics is the subset of GET /v1/metrics the benchmark reads.
type v1Metrics struct {
	StepsRejected int64 `json:"steps_rejected_total"`
	Exec          *struct {
		BusySecondsByPhase map[string]float64 `json:"busy_seconds_by_phase"`
	} `json:"exec"`
}

func (m v1Metrics) execBusy() float64 {
	var s float64
	if m.Exec != nil {
		for _, v := range m.Exec.BusySecondsByPhase {
			s += v
		}
	}
	return s
}

func fetchV1Metrics(ctx context.Context, base string) (v1Metrics, error) {
	var m v1Metrics
	body, err := getBody(ctx, base+"/v1/metrics")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("decoding %s/v1/metrics: %w", base, err)
	}
	return m, nil
}

func getBody(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, nil
}

// newClient returns an SDK client that never retries, so every 429 is
// counted as shed rather than hidden behind a retry, over a transport
// holding at most conns connections to each host.
func newClient(base string, conns int) (*client.Client, error) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return client.New(base, client.WithRetries(0, 0, 0), client.WithHTTPClient(&http.Client{Transport: tr}))
}
