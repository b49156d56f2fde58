package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"irred/internal/service"
)

// daemon is one irredd process started by the benchmark: default flags
// except the listen address (and, for the traced run, a debug listener).
type daemon struct {
	cmd     *exec.Cmd
	base    string // API root, http://host:port
	debug   string // debug listener root, "" when off
	logDone chan struct{}
}

// httpc is shared by every request the benchmark makes; the pool holds a
// connection per closed-loop client plus the counter scrapes.
var httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

// startDaemon execs irredd on a free loopback port and returns once
// /readyz answers 200.
func startDaemon(bin string, withDebug bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if withDebug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	// The log reader keeps draining stderr until the process exits; it
	// never blocks on addrs, which holds the two address lines.
	addrs := make(chan [2]string, 2)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			for i, marker := range []string{"listening on ", "debug listener on "} {
				if _, url, ok := strings.Cut(line, marker); ok {
					select {
					case addrs <- [2]string{strconv.Itoa(i), strings.TrimSpace(url)}:
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	deadline := time.After(60 * time.Second)
	for d.base == "" || (withDebug && d.debug == "") {
		select {
		case a := <-addrs:
			if a[0] == "0" {
				d.base = a[1]
			} else {
				d.debug = a[1]
			}
		case <-d.logDone:
			d.stop()
			return nil, fmt.Errorf("irredd exited before listening")
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("irredd did not report its address")
		}
	}
	for {
		resp, err := httpc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("irredd never became ready")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop kills the process and waits for it and its log reader to end.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// getJSON fetches url and decodes the JSON answer into out.
func getJSON(url string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// counters is what a traced run reads from the daemon around a traced
// slice: /metrics and the Go runtime's expvar memstats.
type counters struct {
	met service.Snapshot
	mem runtime.MemStats
}

func (d *daemon) counters() (counters, error) {
	var c counters
	if err := getJSON(d.base+"/metrics", &c.met); err != nil {
		return c, err
	}
	var v struct {
		Memstats runtime.MemStats `json:"memstats"`
	}
	err := getJSON(d.debug+"/debug/vars", &v)
	c.mem = v.Memstats
	return c, err
}

// traceReset clears the daemon's phase-span ring.
func (d *daemon) traceReset() error {
	var dump service.TraceDump
	return getJSON(d.debug+"/debug/trace?spans=0&reset=1", &dump)
}

// trace fetches every retained phase span.
func (d *daemon) trace() (service.TraceDump, error) {
	var dump service.TraceDump
	err := getJSON(d.debug+"/debug/trace", &dump)
	return dump, err
}
