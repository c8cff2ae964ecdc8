// Command stbench is the repository's benchmark: one in-process run of one
// workload against stenciltune's public functions, with every output checked
// against values the benchmark computes itself.
//
//	stbench -workload serve-hot|serve-cold|exec-sweep -seed N -seconds S -trace 0|1
//	stbench -steady N [-workload a,b] [-seconds S]   run each workload N times, print spreads
//	stbench -workload W -profile DIR                 also write CPU and heap profiles
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With -trace 0 the metrics are the end-to-end metrics
// of BENCHMARK.json, measured with layer timing off; with -trace 1 they are
// its per-layer metrics, from a run that also times each layer's public
// functions. A per-layer metric of a layer the workload never calls reads 0.
// Run it from the repository root (stbench/run.sh builds and starts it).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

// specFile is the benchmark definition, read from the repository root.
const specFile = "BENCHMARK.json"

// scratchRoot holds each run's temporary files, inside the checkout.
const scratchRoot = ".bench_build"

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", specFile, err)
	}
	return &s, nil
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory of this run, inside the checkout
}

// opCount is the accounting of one operation kind.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// outcome is what a workload measured. checkErr is set when an output check
// failed; the run then reports correct=false and exits non-zero.
type outcome struct {
	ops      map[string]*opCount
	e2e      map[string]float64
	layers   map[string]float64
	checkErr error
}

func newOutcome() *outcome {
	return &outcome{ops: map[string]*opCount{}, e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) count(op string, failed bool) {
	c := o.ops[op]
	if c == nil {
		c = &opCount{}
		o.ops[op] = c
	}
	c.Attempted++
	if failed {
		c.Failed++
	}
}

// fail records the first failed output check.
func (o *outcome) fail(err error) {
	if err != nil && o.checkErr == nil {
		o.checkErr = err
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-hot":  serveHot,
	"serve-cold": serveCold,
	"exec-sweep": execSweep,
}

func main() {
	workload := flag.String("workload", "", "workload to run (serve-hot, serve-cold, exec-sweep); with -steady a comma list, default all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 times each layer's public functions and prints the per-layer metrics")
	steady := flag.Int("steady", 0, "run each workload this many times (seeds 1..N) in child processes and print per-metric spreads")
	profile := flag.String("profile", "", "directory to write <workload>.cpu.pprof and <workload>.heap.pprof into")
	flag.Parse()

	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := steadiness(sp, *workload, *steady, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}

	stopProfile := func() error { return nil }
	if *profile != "" {
		if stopProfile, err = startProfile(*profile, *workload); err != nil {
			fatal(err)
		}
	}
	out, err := run(cfg)
	perr := stopProfile()
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if perr != nil {
		fatal(perr)
	}

	res, err := report(sp, out, cfg.trace)
	if err != nil {
		fatal(err)
	}
	host, _ := json.Marshal(hostStamp())
	fmt.Printf("host %s\n", host)
	acct, _ := json.Marshal(map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds,
		"trace": *trace, "ops": out.ops})
	fmt.Printf("run %s\n", acct)
	if out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "stbench: output check failed: %v\n", out.checkErr)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stbench: %v\n", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report builds the result line. Every end-to-end metric must have been
// measured; a per-layer metric of a layer the workload does not call is 0.
func report(sp *spec, out *outcome, trace bool) (*result, error) {
	res := &result{Correct: out.checkErr == nil, Metrics: map[string]metricValue{}}
	for _, c := range out.ops {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	if res.Attempted == 0 {
		return nil, errors.New("the workload attempted no operation")
	}
	list, values := sp.EndToEnd, out.e2e
	if trace {
		list, values = sp.PerLayer, out.layers
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	known := map[string]bool{}
	for _, m := range list {
		known[m.Name] = true
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not listed in %s", name, specFile)
		}
	}
	return res, nil
}

// endMeasured records what is read when the measured phase ends: the
// resident set the process keeps once the Go runtime has collected and
// returned its free memory to the OS. That is what the program holds (model,
// caches, server state, grids). The peak resident set is not used: with a
// heap of a few MiB it jumps by whole 4 MiB heap arenas with the timing of
// one collection, 39 or 47 MiB on the same run. The output checks that
// follow (re-reading the whole WAL, for one) are not counted either.
func (o *outcome) endMeasured() {
	debug.FreeOSMemory()
	o.e2e["rss_mib"] = rssMiB()
}

// rssMiB reads the current resident set from /proc/self/status; 0 if it
// cannot be read.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// hostStamp identifies the machine a run's figures belong to.
func hostStamp() map[string]any {
	stamp := map[string]any{
		"cpu":        "unknown",
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if c := buildinfo.Read().Commit; c != "" {
		stamp["commit"] = c
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				stamp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	caches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range caches {
		level, _ := os.ReadFile(filepath.Join(dir, "level"))
		size, _ := os.ReadFile(filepath.Join(dir, "size"))
		switch strings.TrimSpace(string(level)) {
		case "2":
			stamp["l2"] = strings.TrimSpace(string(size))
		case "3":
			stamp["l3"] = strings.TrimSpace(string(size))
		}
	}
	return stamp
}

// startProfile starts a CPU profile and returns the function that stops it
// and writes the heap profile.
func startProfile(dir, workload string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		heap, err := os.Create(filepath.Join(dir, workload+".heap.pprof"))
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return err
		}
		return heap.Close()
	}, nil
}
