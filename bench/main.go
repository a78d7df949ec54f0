// Command bench is the repository's benchmark: the one instrument
// performance claims about this repo are made with. It drives five seeded
// workloads through the two public entry points — a real `fsr serve` child
// process over loopback HTTP, and fsr.Session in a worker process — checks
// every answer against a verdict known by construction, and reports the
// end-to-end metrics BENCHMARK.json declares; with -trace 1 it also replays
// each workload layer by layer and reports the per-layer metrics. See
// README.md beside this file.
//
//	go run ./bench                                   all workloads, untraced
//	go run ./bench -workload whatif-query -trace 1   one workload, with the traced replay
//	go run ./bench -compare A.json B.json            two result files, row by row
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// benchmarkFile is BENCHMARK.json: the declared workloads, metrics, bounds
// and window length. The program emits exactly the names it declares.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's run as result.json keeps it.
type runResult struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Loop      string            `json:"loop"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Samples   int               `json:"samples"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`

	measured []string // per-layer names this run produced itself, for bench_test.go
}

// envInfo is result.json's _env header: what a reader needs before
// comparing this file with another.
type envInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of this driver; the processes under test inherit its environment
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Setups     int     `json:"setups_per_run"`
	Started    string  `json:"started"`
}

type resultFile struct {
	Env  envInfo     `json:"_env"`
	Runs []runResult `json:"runs"`
}

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-worker" {
		if err := workerMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	root, decl, err := loadBenchmark()
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var workloads stringList
	fs.Var(&workloads, "workload", "workload to run (repeatable; default all)")
	seed := fs.Int64("seed", 1, "seed all generated inputs derive from")
	seconds := fs.Float64("seconds", float64(decl.RunSeconds), "length of the measured window")
	trace := fs.Int("trace", 0, "1 adds the traced replay and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(root, "bench", "out"), "directory for result.json, traces and the built fsr binary")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json (each may be a comma-separated list)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(decl, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		return fmt.Errorf("usage: bench [-workload NAME]... [-seed N] [-seconds S] [-trace 0|1] [-out DIR] | -compare A.json B.json")
	}
	if len(workloads) == 0 {
		workloads = workloadNames
	}
	b := &bench{root: root, decl: decl, out: *out, sizes: fullSizes}
	if err := b.build(); err != nil {
		return err
	}
	file := resultFile{Env: environment(root, *seed, *seconds, b.sizes)}
	for _, name := range workloads {
		res, err := b.runWorkload(name, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		file.Runs = append(file.Runs, *res)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.out, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	// One line per workload, in the order run; with a single -workload the
	// last line of standard output is that workload's result.
	wrong := 0
	for i := range file.Runs {
		res := &file.Runs[i]
		report(res, decl)
		if !res.Correct {
			wrong++
		}
	}
	for i := range file.Runs {
		fmt.Println(resultLine(&file.Runs[i]))
	}
	if wrong > 0 {
		return fmt.Errorf("%d workload(s) answered wrongly", wrong)
	}
	return nil
}

// loadBenchmark finds BENCHMARK.json in the working directory or the one
// above (go test runs in bench/) and reads it.
func loadBenchmark() (root string, decl *benchmarkFile, err error) {
	for _, dir := range []string{".", ".."} {
		data, readErr := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if readErr != nil {
			continue
		}
		decl = new(benchmarkFile)
		if err = json.Unmarshal(data, decl); err != nil {
			return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		root, err = filepath.Abs(dir)
		return root, decl, err
	}
	return "", nil, fmt.Errorf("no BENCHMARK.json here: run from the repository root")
}

// bench is one invocation's fixed context.
type bench struct {
	root  string
	decl  *benchmarkFile
	out   string
	bin   string
	sizes sizes
}

// build compiles cmd/fsr from the checkout; the go build cache makes every
// run after the first a no-op. Not timed.
func (b *bench) build() error {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	b.bin = filepath.Join(b.out, "fsr")
	cmd := exec.Command("go", "build", "-o", b.bin, "./cmd/fsr")
	cmd.Dir = b.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/fsr: %v\n%s", err, msg)
	}
	return nil
}

// runWorkload makes the inputs, measures the workload end to end in a
// fresh process, and with traced set replays it layer by layer.
func (b *bench) runWorkload(name string, seed int64, seconds float64, withTrace bool) (*runResult, error) {
	in, err := generate(name, seed, b.sizes)
	if err != nil {
		return nil, err
	}
	setups := b.sizes.Setups
	if withTrace {
		setups = 1 // the traced run reports no setup_s
	}
	var w *window
	if in.ops != nil {
		w, err = runDaemon(b.bin, in, setups, b.sizes.Warmup, time.Duration(seconds*float64(time.Second)))
	} else {
		w, err = runWorker(workerConfig{Workload: name, Seed: seed, Sizes: b.sizes, Seconds: seconds}, setups)
	}
	if err != nil {
		return nil, err
	}
	if len(w.OpMS) == 0 {
		return nil, fmt.Errorf("no operation completed in the window: %v", w.Errors)
	}
	res := &runResult{
		Workload: name, Loop: loopShape[name], Seed: seed, Traced: withTrace,
		Attempted: w.Attempted, Failed: w.Failed, Errors: w.Errors, Samples: len(w.OpMS),
	}
	for _, wl := range b.decl.Workloads {
		if wl.Name == name {
			res.Why = wl.Why
		}
	}
	ops := float64(len(w.OpMS))
	p50 := median(w.OpMS)
	e2e := map[string]float64{
		"setup_s":       median(w.SetupS),
		"op_p50_ms":     p50,
		"cpu_ms_per_op": w.CPUMS / ops,
		"peak_rss_mb":   w.PeakRSSMB,
	}
	res.EndToEnd = map[string]metric{}
	for _, d := range b.decl.EndToEnd {
		v, ok := e2e[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares end-to-end metric %s, which nothing measures", d.Name)
		}
		res.EndToEnd[d.Name] = metric{v, d.Unit}
	}
	if withTrace {
		layers, errs, rec := traced(name, in, b.sizes)
		if err := rec.writeChrome(filepath.Join(b.out, "trace-"+name+".json")); err != nil {
			return nil, err
		}
		res.Attempted += b.sizes.TracedOps[name]
		res.Failed += len(errs)
		res.Errors = append(res.Errors, errs...)
		layers["client.samples"] = ops
		layers["client.ops_per_s"] = ops / w.Elapsed
		layers["client.op_p90_ms"] = percentile(w.OpMS, 0.90)
		layers["client.op_p99_ms"] = percentile(w.OpMS, 0.99)
		layers["client.request_bytes"] = float64(w.ReqBytes)
		layers["client.response_bytes"] = float64(w.RespBytes)
		for _, part := range []string{"break", "repair", "tweak", "safe", "unsafe"} {
			if vals := w.PartMS[part]; len(vals) > 0 {
				layers["client."+part+"_p50_ms"] = median(vals)
			}
		}
		if handler, ok := layers["server.handler_ms"]; ok && in.ops != nil {
			layers["transport.loopback_ms"] = p50 - handler
		}
		res.PerLayer = map[string]metric{}
		declared := map[string]bool{}
		for _, d := range b.decl.PerLayer {
			declared[d.Name] = true
			res.PerLayer[d.Name] = metric{layers[d.Name], d.Unit} // 0 where the layer does not run on this workload
		}
		for layer := range layers {
			if !declared[layer] {
				return nil, fmt.Errorf("traced run measured %s, which BENCHMARK.json does not declare", layer)
			}
			res.measured = append(res.measured, layer)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// percentile is the nearest-rank percentile.
func percentile(vals []float64, p float64) float64 {
	s := sorted(vals)
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

// report prints a workload's metrics by name with their units.
func report(res *runResult, decl *benchmarkFile) {
	fmt.Printf("%s  (seed %d, %s)\n", res.Workload, res.Seed, res.Loop)
	for _, d := range decl.EndToEnd {
		fmt.Printf("  %-32s %14.4f %-6s (%d samples)\n", d.Name, res.EndToEnd[d.Name].Value, d.Unit, res.Samples)
	}
	fmt.Printf("  %-32s %14d of %d attempted\n", "failed", res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Printf("    wrong: %s\n", e)
	}
	if res.PerLayer != nil {
		for _, d := range decl.PerLayer {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, res.PerLayer[d.Name].Value, d.Unit)
		}
	}
}

// resultLine is the one-line JSON object a harness reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func resultLine(res *runResult) string {
	metrics := res.EndToEnd
	if res.Traced {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

func environment(root string, seed int64, seconds float64, sz sizes) envInfo {
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, WindowS: seconds, WarmupS: sz.Warmup.Seconds(), Setups: sz.Setups,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	// A checkout without git history (how a harness unpacks the tree) stays "unknown".
	if head, err := git("rev-parse", "HEAD"); err == nil {
		env.Commit = head
		status, _ := git("status", "--porcelain")
		env.Dirty = status != ""
	}
	return env
}
