package main

import (
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
	"sync"
	"syscall"
	"time"
)

// The real tier: freqd, freqrouter and freqmerge built from the checkout
// under test and run as separate processes on loopback.

// buildDaemons compiles the three daemons into binDir.
func buildDaemons(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
		"./cmd/freqd", "./cmd/freqrouter", "./cmd/freqmerge")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the daemons in %s: %w", root, err)
	}
	return nil
}

// daemonNice is the scheduling niceness of every daemon process.
const daemonNice = 5

// daemon is one running process.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	log    string // file holding the process's output
	exited chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args plus -addr on a free loopback port.
// Its output goes to logDir/<name>.log: the daemons log a line per write
// request, and a file, unlike a pipe, needs no reader in this process
// competing with the load generator for the CPUs.
func startDaemon(bin, logDir, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{name: name, url: "http://" + addr, log: filepath.Join(logDir, name+".log"), exited: make(chan struct{})}
	out, err := os.Create(d.log)
	if err != nil {
		return nil, err
	}
	defer out.Close() // the child has its own descriptor
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = out, out
	// The daemons die with the load generator even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	// The tier shares the machine's CPUs with the load generator. At a
	// lower priority it cannot delay the generator's scheduled sends or
	// its reading of replies, which would otherwise be charged to the
	// tier's latency.
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, d.cmd.Process.Pid, daemonNice) // best effort
	go func() {
		_ = d.cmd.Wait() // the exit status is irrelevant: the tier is stopped by signal
		close(d.exited)
	}()
	return d, nil
}

// stop signals the process and waits for it, escalating to SIGKILL after
// grace.
func (d *daemon) stop(sig syscall.Signal, grace time.Duration) {
	_ = d.cmd.Process.Signal(sig) // fails only if it already exited
	select {
	case <-d.exited:
		return
	case <-time.After(grace):
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) running() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// logTail returns the end of the process's output: only the end matters
// when it fails.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.log)
	if err != nil {
		return err.Error()
	}
	const keep = 16 << 10
	if len(data) > keep {
		data = data[len(data)-keep:]
	}
	return string(data)
}

// procTier is one launch of a workload's topology.
type procTier struct {
	nodes  []*daemon
	router *daemon
	merge  *daemon
}

func (t *procTier) all() []*daemon {
	out := append([]*daemon(nil), t.nodes...)
	for _, d := range []*daemon{t.router, t.merge} {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

func urls(ds []*daemon) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.url
	}
	return out
}

// ingestBases is where the ingest lane sends: the router, else the nodes.
func (t *procTier) ingestBases() []string {
	if t.router != nil {
		return []string{t.router.url}
	}
	return urls(t.nodes)
}

// queryBase is where the query lane sends: the coordinator, else the node.
func (t *procTier) queryBase() string {
	if t.merge != nil {
		return t.merge.url
	}
	return t.nodes[0].url
}

// stop ends every process: SIGTERM lets freqd write its final checkpoint.
func (t *procTier) stop(sig syscall.Signal) {
	var wg sync.WaitGroup
	for _, d := range t.all() {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop(sig, 20*time.Second)
		}(d)
	}
	wg.Wait()
}

// peakRSSMB sums the peak resident set (VmHWM) of every process; call
// before stop. The rusage of an exited child is no substitute: Go starts
// children with vfork, so the kernel records this process's own peak as
// the child's when it execs.
func (t *procTier) peakRSSMB() (float64, error) {
	var kb int64
	for _, d := range t.all() {
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		hwm, err := vmHWM(string(status))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		kb += hwm
	}
	return float64(kb) / 1024, nil
}

// vmHWM reads the VmHWM line, in kB, of a /proc/<pid>/status file.
func vmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in process status")
}

// logs returns the tail of every process's log, for failure reports.
func (t *procTier) logs() string {
	var b strings.Builder
	for _, d := range t.all() {
		fmt.Fprintf(&b, "--- %s (%s) ---\n%s\n", d.name, d.url, d.logTail())
	}
	return b.String()
}

// launchTier starts the workload's processes, node data directories under
// dataRoot, and returns once every daemon answers /healthz and the
// coordinator's view covers every node — the set-up time.
func launchTier(w *workload, bin, dataRoot string) (t *procTier, setup time.Duration, err error) {
	t = &procTier{}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, t.logs())
			t.stop(syscall.SIGKILL)
		}
	}()
	start := time.Now()
	for i := 0; i < w.nodes; i++ {
		name := fmt.Sprintf("freqd-%c", 'a'+i)
		args := append(w.node.flags(), "-data-dir", filepath.Join(dataRoot, name))
		d, err := startDaemon(filepath.Join(bin, "freqd"), dataRoot, name, args...)
		if err != nil {
			return t, 0, err
		}
		t.nodes = append(t.nodes, d)
	}
	if w.router {
		var args []string
		for i, n := range t.nodes {
			args = append(args, "-shard", fmt.Sprintf("%c=%s", 'a'+i, n.url))
		}
		if t.router, err = startDaemon(filepath.Join(bin, "freqrouter"), dataRoot, "freqrouter", args...); err != nil {
			return t, 0, err
		}
	}
	if err := waitAll(t.all(), waitHealthy); err != nil {
		return t, 0, err
	}
	switch w.merge {
	case mergeRouter:
		t.merge, err = startDaemon(filepath.Join(bin, "freqmerge"), dataRoot, "freqmerge",
			"-router", t.router.url, "-interval", mergeInterval.String())
	case mergeNodes:
		t.merge, err = startDaemon(filepath.Join(bin, "freqmerge"), dataRoot, "freqmerge",
			"-nodes", strings.Join(urls(t.nodes), ","), "-interval", mergeInterval.String())
	}
	if err != nil {
		return t, 0, err
	}
	if t.merge != nil {
		if err := waitHealthy(t.merge); err != nil {
			return t, 0, err
		}
		if err := waitCovered(t.merge, w.nodes); err != nil {
			return t, 0, err
		}
	}
	return t, time.Since(start), nil
}

// readyTimeout bounds one daemon's start-up, WAL recovery included.
const readyTimeout = 120 * time.Second

var pollClient = &http.Client{Timeout: time.Second}

func waitAll(ds []*daemon, wait func(*daemon) error) error {
	errs := make(chan error, len(ds))
	for _, d := range ds {
		go func(d *daemon) { errs <- wait(d) }(d)
	}
	var first error
	for range ds {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// poll calls f every millisecond until it reports done, the process
// exits, or the ready timeout passes.
func poll(d *daemon, what string, f func() bool) error {
	deadline := time.Now().Add(readyTimeout)
	for !f() {
		if !d.running() {
			return fmt.Errorf("%s exited before %s", d.name, what)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: no %s within %v", d.name, what, readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func waitHealthy(d *daemon) error {
	return poll(d, "healthy /healthz", func() bool {
		resp, err := pollClient.Get(d.url + "/healthz")
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// mergeStats is the part of freqmerge's /v1/stats readiness needs.
type mergeStats struct {
	Cluster struct {
		Have        int  `json:"have_nodes"`
		Missing     int  `json:"missing_shards"`
		Partitioned bool `json:"partitioned"`
		Shards      int  `json:"shards"`
	} `json:"cluster"`
}

// waitCovered waits until the coordinator's serving view holds a pulled
// summary from every node (every shard, in partitioned mode).
func waitCovered(d *daemon, nodes int) error {
	return poll(d, "view covering every node", func() bool {
		var st mergeStats
		if err := getJSON(context.Background(), pollClient, d.url+"/v1/stats", &st); err != nil {
			return false
		}
		c := st.Cluster
		if c.Partitioned {
			return c.Shards == nodes && c.Have == nodes && c.Missing == 0
		}
		return c.Have == nodes
	})
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	return doJSON(ctx, c, http.MethodGet, url, v)
}

func doJSON(ctx context.Context, c *http.Client, method, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}
