package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"vertical3d/internal/resultcache"
)

// requestTimeout bounds every HTTP exchange with the daemon.
const requestTimeout = 120 * time.Second

// daemon is one m3dd process with its own journal and job directories.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	log      *os.File
	exited   chan struct{} // closed once the process has been waited for
	stopOnce sync.Once
}

// startDaemon boots `m3dd -quick` on a free port over fresh directories
// under dir and waits until /healthz answers 200.
func startDaemon(bin, dir string) (*daemon, error) {
	for _, sub := range []string{"journal", "jobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	logf, err := os.Create(filepath.Join(dir, "m3dd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quick",
		"-journal-dir", filepath.Join(dir, "journal"), "-job-dir", filepath.Join(dir, "jobs"))
	// The daemon dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start m3dd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Copy the log, pick out the bound address, and reap the process
		// once the pipe closes (Wait must follow the last read).
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.exited)
	}()

	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		logf.Close()
		return nil, fmt.Errorf("m3dd exited during boot; see %s", logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("m3dd did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("m3dd /healthz not ready within 30s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited after
// 30 s, and returns once it has been waited for.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
	})
}

// statsz is the part of GET /statsz the benchmark reads.
type statsz struct {
	Cache     resultcache.Stats `json:"cache"`
	Admission struct {
		Accepted int `json:"accepted"`
		Shed     int `json:"shed_429"`
	} `json:"admission"`
	JobStoreStats *struct {
		Appends int `json:"appends"`
	} `json:"jobstore_stats"`
}

// conn is an HTTP client of one daemon.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
}

func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (c *conn) statsz() (statsz, error) {
	var s statsz
	code, raw, err := c.do("GET", "/statsz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /statsz: %d", code)
	}
	if err == nil {
		err = json.Unmarshal(raw, &s)
	}
	return s, err
}

// reqRecord is one request's timeline and outcome, as the client saw it.
type reqRecord struct {
	request
	id                       string
	post, admitted           time.Time // POST sent, 202 read
	waitStart, running, done time.Time // SSE opened, "running" seen, "done" seen
	fetchStart, fetchEnd     time.Time // GET /cells sent, body read
	body                     []byte
	journalAppends           int
	err                      error
}

func (r *reqRecord) latency() time.Duration { return r.fetchEnd.Sub(r.post) }

// post submits the request's spec.
func (c *conn) post(r *reqRecord, s spec) {
	body, _ := json.Marshal(s) // a spec always marshals
	r.post = time.Now()
	code, raw, err := c.do("POST", "/sweeps", body)
	r.admitted = time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /sweeps: %d %s", code, bytes.TrimSpace(raw))
	}
	var acc struct{ ID string }
	if err == nil {
		err = json.Unmarshal(raw, &acc)
	}
	r.id, r.err = acc.ID, err
}

// await follows the job's event stream until its terminal event.
func (c *conn) await(r *reqRecord) {
	r.waitStart = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/sweeps/"+r.id+"/events", nil)
	if err != nil {
		r.err = err
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "state":
			var ev struct{ State string }
			if json.Unmarshal([]byte(data), &ev) == nil && ev.State == "running" && r.running.IsZero() {
				r.running = time.Now()
			}
		case "done":
			r.done = time.Now()
			if r.running.IsZero() {
				r.running = r.done
			}
			return
		case "failed", "evicted":
			r.err = fmt.Errorf("sweep %s: %s event: %s", r.id, event, data)
			return
		}
	}
	r.err = fmt.Errorf("sweep %s: event stream ended before done: %v", r.id, sc.Err())
}

// fetch reads the finished job's cells.
func (c *conn) fetch(r *reqRecord) {
	r.fetchStart = time.Now()
	code, raw, err := c.do("GET", "/sweeps/"+r.id+"/cells", nil)
	r.fetchEnd = time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET cells of %s: %d", r.id, code)
	}
	r.body, r.err = raw, err
}

// view reads the job's journal appends from its sweep view.
func (c *conn) view(r *reqRecord) error {
	code, raw, err := c.do("GET", "/sweeps/"+r.id, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: %d", r.id, code)
	}
	var v struct {
		Result *struct{ Journal struct{ Appends int } }
	}
	if err == nil {
		err = json.Unmarshal(raw, &v)
	}
	if err == nil && v.Result != nil {
		r.journalAppends = v.Result.Journal.Appends
	}
	return err
}

// cellsOf checks a /cells body and returns its cells in canonical JSON:
// compact, keys sorted, numbers exactly as served.
func cellsOf(body []byte, want int) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v struct {
		State string
		Cells []map[string]any
	}
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if v.State != "done" || len(v.Cells) != want {
		return nil, fmt.Errorf("state %q with %d cells, want done with %d", v.State, len(v.Cells), want)
	}
	for _, c := range v.Cells {
		if e, ok := c["error"]; ok {
			return nil, fmt.Errorf("cell %v/%v failed: %v", c["benchmark"], c["design"], e)
		}
	}
	return json.Marshal(v.Cells)
}

// scriptRun is the outcome of one script against one daemon.
type scriptRun struct {
	wall, cpu     time.Duration
	recs          []*reqRecord
	before, after statsz
	peakMB, rssMB float64
	digest        string
	problems      []string
	lanes         map[int]bool
}

// runScript drives the script's clients, closed-loop, against d.
func runScript(d *daemon, s script, tr *tracer) (*scriptRun, error) {
	c := newConn(d.base)
	pid := d.cmd.Process.Pid
	out := &scriptRun{lanes: map[int]bool{}}
	var err error
	if out.before, err = c.statsz(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}

	type clientOut struct {
		recs  []*reqRecord
		first map[int][]byte // spec -> first /cells body
		bad   []string
	}
	outs := make([]clientOut, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, ops := range s.clients {
		lane, endLane := tr.lane("bench.client", fmt.Sprint(ci))
		out.lanes[lane] = true
		wg.Add(1)
		go func(ci int, ops []op) {
			defer wg.Done()
			defer endLane()
			co := &outs[ci]
			co.first = map[int][]byte{}
			for _, o := range ops {
				recs := make([]*reqRecord, len(o))
				for i, rq := range o {
					recs[i] = &reqRecord{request: rq}
					c.post(recs[i], s.specs[rq.spec])
					tr.record(lane, "m3dd.admit", "", recs[i].id, recs[i].post, recs[i].admitted)
				}
				for _, r := range recs {
					if r.err != nil {
						continue
					}
					c.await(r)
					if r.err != nil {
						tr.record(lane, "m3dd.queue", "", r.id, r.waitStart, time.Now())
						continue
					}
					tr.record(lane, "m3dd.queue", "", r.id, r.waitStart, r.running)
					tr.record(lane, "m3dd.run", "", r.id, r.running, r.done)
					c.fetch(r)
					tr.record(lane, "m3dd.fetch", "", r.id, r.fetchStart, r.fetchEnd)
				}
				for _, r := range recs {
					co.recs = append(co.recs, r)
					if r.err != nil {
						co.bad = append(co.bad, fmt.Sprintf("%s request for spec %d: %v", r.class, r.spec, r.err))
						continue
					}
					if first, ok := co.first[r.spec]; !ok {
						co.first[r.spec] = r.body
					} else if !bytes.Equal(first, r.body) {
						r.err = errors.New("body differs from the first response")
						co.bad = append(co.bad, fmt.Sprintf("%s request for spec %d: /cells differs from the first response", r.class, r.spec))
					}
					if r.class != classRepeat {
						vs := time.Now()
						err := c.view(r)
						tr.record(lane, "m3dd.view", "", r.id, vs, time.Now())
						if err != nil && r.err == nil {
							r.err = err
							co.bad = append(co.bad, fmt.Sprintf("%s request for spec %d: %v", r.class, r.spec, err))
						}
					}
				}
			}
		}(ci, ops)
	}
	wg.Wait()
	out.wall = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	out.cpu = cpu1 - cpu0
	if out.after, err = c.statsz(); err != nil {
		return nil, err
	}
	if out.peakMB, out.rssMB, err = procMemMB(pid); err != nil {
		return nil, err
	}

	// Check each spec's first response once; repeats and twins were
	// compared with it byte for byte, so they share its verdict.
	h := sha256.New()
	bad := map[int]error{}
	for i, sp := range s.specs {
		var body []byte
		for _, co := range outs {
			if b, ok := co.first[i]; ok {
				body = b
			}
		}
		cells, err := cellsOf(body, sp.cells())
		if err != nil {
			bad[i] = err
			out.problems = append(out.problems, fmt.Sprintf("spec %d: %v", i, err))
			continue
		}
		fmt.Fprintf(h, "%d\n%s\n", i, cells)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	for _, co := range outs {
		for _, r := range co.recs {
			if err, ok := bad[r.spec]; ok && r.err == nil {
				r.err = err
			}
		}
		out.recs = append(out.recs, co.recs...)
		out.problems = append(out.problems, co.bad...)
	}
	return out, nil
}

// serveSetup boots a daemon and runs the canary sweep through it.
func serveSetup(bin, dir string, s script, tr *tracer) (d *daemon, boot, total time.Duration, err error) {
	lane, end := tr.lane("bench.setup", "")
	defer end()
	start := time.Now()
	d, err = startDaemon(bin, dir)
	boot = time.Since(start)
	tr.record(lane, "m3dd.boot", "", "", start, start.Add(boot))
	if err != nil {
		return nil, 0, 0, err
	}
	c := newConn(d.base)
	r := &reqRecord{}
	cs := time.Now()
	c.post(r, s.canary)
	if r.err == nil {
		c.await(r)
	}
	if r.err == nil {
		c.fetch(r)
	}
	if r.err == nil {
		_, r.err = cellsOf(r.body, s.canary.cells())
	}
	tr.record(lane, "m3dd.canary", "", r.id, cs, time.Now())
	if r.err != nil {
		d.stop()
		return nil, 0, 0, fmt.Errorf("canary sweep: %w", r.err)
	}
	return d, boot, time.Since(start), nil
}
