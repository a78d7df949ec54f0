package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fsr"
)

// The untraced, end-to-end half: a fresh process hosts the program under
// test (fsr serve, or this binary re-executed as a session worker), one
// closed-loop client drives it, and CPU and memory are read from that
// process's /proc entries so the client's own buffers never count.

// window is what one measured run observed.
type window struct {
	SetupS    []float64            // one per set-up made
	OpMS      []float64            // latency of each operation in the window
	PartMS    map[string][]float64 // latency of each labelled request or call
	CPUMS     float64              // CPU (user+sys) of the process under test over the window
	PeakRSSMB float64              // its VmHWM when the window closed
	ReqBytes  int64                // request bytes per operation
	RespBytes int64                // response bytes per operation
	Elapsed   float64              // seconds the window actually covered
	Attempted int                  // operations attempted, warm-up and set-up included
	Failed    int
	Errors    []string // "label: what went wrong", first few only
}

const maxListedErrors = 20

func (w *window) fail(label, why string) {
	w.Failed++
	if len(w.Errors) < maxListedErrors {
		w.Errors = append(w.Errors, label+": "+why)
	}
}

// procCPU returns the CPU time a process has used so far, from the utime
// and stime fields of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	const userHz = 100 // USER_HZ, fixed by the Linux ABI on every supported architecture
	return time.Duration(utime+stime) * time.Second / userHz, nil
}

// procPeakRSS returns VmHWM in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// measure runs op in a closed loop: unmeasured for the warm-up, then for
// the window, with the CPU of process pid read at both ends of the window.
// op returns the operation's latency (its own clock excludes the client's
// checking) and reports failures into w itself.
func (w *window) measure(pid int, warmup, length time.Duration, op func(i int) time.Duration) error {
	i := 0
	for start := time.Now(); time.Since(start) < warmup; i++ {
		op(i)
	}
	w.PartMS = map[string][]float64{} // keep the window's samples only
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	start := time.Now()
	for ; time.Since(start) < length; i++ {
		w.OpMS = append(w.OpMS, ms(op(i)))
	}
	w.Elapsed = time.Since(start).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	w.CPUMS = ms(cpu1 - cpu0)
	w.PeakRSSMB, err = procPeakRSS(pid)
	return err
}

// daemon is one fsr serve child process and the single connection to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// startDaemon spawns fsr serve on a free loopback port and returns once
// /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{
		cmd:  exec.Command(bin, "serve", "-addr", addr, "-quiet"),
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
	}
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fsr serve on %s never became healthy: %v", addr, err)
		}
	}
}

// stop ends the daemon and waits for it; SIGTERM first, so the graceful
// drain runs, then a kill if that stalls.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// do sends the requests of one operation in order and checks each answer.
// The returned latency is the sum over requests of send → body fully read;
// answers are checked between requests, off the clock.
func (d *daemon) do(w *window, op []request) time.Duration {
	w.Attempted++
	var total time.Duration
	var reqBytes, respBytes int64
	failLabel, failWhy := "", ""
	for _, rq := range op {
		status, body, took, err := d.send(rq)
		if err != nil {
			failLabel, failWhy = rq.Label, err.Error()
			break // the connection is gone; the rest of the session would only repeat the error
		}
		total += took
		reqBytes += int64(len(rq.Body))
		respBytes += int64(len(body))
		w.PartMS[rq.Label] = append(w.PartMS[rq.Label], ms(took))
		if _, why := rq.Want.check(status, body); why != "" && failWhy == "" {
			failLabel, failWhy = rq.Label, why
		}
	}
	if failWhy != "" {
		w.fail(failLabel, failWhy)
	}
	w.ReqBytes, w.RespBytes = reqBytes, respBytes
	return total
}

// send times one request from sending it to having read the whole body.
func (d *daemon) send(rq request) (status int, body []byte, took time.Duration, err error) {
	hr, err := http.NewRequest(rq.Method, d.base+rq.Path, bytes.NewReader(rq.Body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := d.client.Do(hr)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, time.Since(start), err
}

// runDaemon measures a serve workload. Each set-up is a fresh daemon
// brought to the point where every kind of operation has succeeded once;
// the last one stays up for the warm-up and the window.
func runDaemon(bin string, in *inputs, setups int, warmup, length time.Duration) (*window, error) {
	w := &window{PartMS: map[string][]float64{}}
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(bin); err != nil {
			return nil, err
		}
		if len(in.setup) > 0 {
			d.do(w, in.setup)
		}
		d.do(w, in.ops[0])
		w.SetupS = append(w.SetupS, time.Since(start).Seconds())
	}
	defer d.stop()
	err := w.measure(d.cmd.Process.Pid, warmup, length, func(i int) time.Duration {
		return d.do(w, in.ops[i%len(in.ops)])
	})
	return w, err
}

// workerConfig is handed to the re-executed worker as one JSON argument.
type workerConfig struct {
	Workload  string
	Seed      int64
	Sizes     sizes
	Seconds   float64
	SetupOnly bool
}

// runWorker measures a session workload: every set-up is a fresh worker
// process, and the last one goes on to the warm-up and the window.
func runWorker(cfg workerConfig, setups int) (*window, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		cfg.SetupOnly = i < setups-1
		arg, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "-worker", string(arg))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s worker: %w", cfg.Workload, err)
		}
		var w window
		if err := json.Unmarshal(out, &w); err != nil {
			return nil, fmt.Errorf("%s worker output: %w", cfg.Workload, err)
		}
		setupS = append(setupS, w.SetupS...)
		if !cfg.SetupOnly {
			w.SetupS = setupS
			return &w, nil
		}
		if w.Failed > 0 {
			return &w, nil // a set-up that answers wrongly fails the run
		}
	}
	return nil, fmt.Errorf("%s: no set-up requested", cfg.Workload)
}

// workerMain is the body of `bench -worker <config>`: generate the inputs,
// set up, and (unless SetupOnly) measure, all inside this process, then
// print the window as JSON.
func workerMain(arg string) error {
	var cfg workerConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		return err
	}
	in, err := generate(cfg.Workload, cfg.Seed, cfg.Sizes)
	if err != nil {
		return err
	}
	// Generation garbage is not the program's memory: hand it back and
	// restart the peak-RSS watermark where the kernel allows it.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; VmHWM then includes generation

	w := &window{PartMS: map[string][]float64{}}
	ctx := context.Background()
	start := time.Now()
	sess := fsr.NewSession()
	op := sessionOp(cfg.Workload, sess, in, w)
	op(ctx, 0)
	w.SetupS = []float64{time.Since(start).Seconds()}
	if !cfg.SetupOnly {
		length := time.Duration(cfg.Seconds * float64(time.Second))
		err = w.measure(os.Getpid(), cfg.Sizes.Warmup, length, func(i int) time.Duration { return op(ctx, i+1) })
		if err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(w)
}

// sessionOp returns the operation of a session workload: it calls the
// Session, checks the answers against construction, and returns the time
// spent inside the Session calls.
func sessionOp(name string, sess *fsr.Session, in *inputs, w *window) func(ctx context.Context, i int) time.Duration {
	timed := func(label string, fn func() string) (time.Duration, string) {
		start := time.Now()
		why := fn()
		took := time.Since(start)
		w.PartMS[label] = append(w.PartMS[label], ms(took))
		return took, why
	}
	if name == scaleSession {
		return func(ctx context.Context, _ int) time.Duration {
			w.Attempted++
			safe, whySafe := timed("safe", func() string { return checkScale(ctx, sess, in, true) })
			unsafe, whyUnsafe := timed("unsafe", func() string { return checkScale(ctx, sess, in, false) })
			if whySafe != "" {
				w.fail("safe", whySafe)
			} else if whyUnsafe != "" {
				w.fail("unsafe", whyUnsafe)
			}
			return safe + unsafe
		}
	}
	return func(ctx context.Context, i int) time.Duration {
		w.Attempted++
		took, why := timed("campaign", func() string {
			rep, err := sess.Campaign(ctx, in.campaign(i))
			if err != nil {
				return err.Error()
			}
			return checkCampaign(rep)
		})
		if why != "" {
			w.fail("campaign", why)
		}
		return took
	}
}

// checkScale runs one AnalyzeSPP of scale-session and compares it with the
// answer the instance was built to have.
func checkScale(ctx context.Context, sess *fsr.Session, in *inputs, safe bool) string {
	inst := in.unsafe
	if safe {
		inst = in.safe
	}
	res, suspects, err := sess.AnalyzeSPP(ctx, inst)
	if err != nil {
		return err.Error()
	}
	return scaleVerdict(in, safe, res, suspects)
}

// scaleVerdict is "" when an analysis of in.safe or in.unsafe gave the
// answer that instance was built to have.
func scaleVerdict(in *inputs, safe bool, res fsr.AnalysisResult, suspects []fsr.SPPNode) string {
	switch {
	case res.Sat != safe:
		return fmt.Sprintf("sat=%v, want %v", res.Sat, safe)
	case safe && res.Stats.Components == 0:
		return "no SCC components reported: not the scale path"
	case !safe && len(res.Core) != 4:
		return fmt.Sprintf("core of %d, want 4", len(res.Core))
	case !safe && !(len(suspects) == 2 && (suspects[0] == in.pair[0] && suspects[1] == in.pair[1] ||
		suspects[0] == in.pair[1] && suspects[1] == in.pair[0])):
		return fmt.Sprintf("suspects %v, want the planted pair %v", suspects, in.pair)
	}
	return ""
}

// checkCampaign wants every scenario classified agreement: the generators
// guarantee their expected verdicts, so anything else is a wrong answer.
func checkCampaign(rep *fsr.CampaignReport) string {
	for _, r := range rep.Results {
		if r.Outcome != fsr.OutcomeAgreement {
			return fmt.Sprintf("scenario %d (%s seed %d): %s %s", r.Index, r.Kind, r.Seed, r.Outcome, r.Err)
		}
	}
	return ""
}
