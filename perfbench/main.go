// Command perfbench is the open-cube lock system's benchmark. It runs one
// named workload from a seed, checks the outputs, and prints one JSON
// result as the last line of standard output: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. See README.md.
//
//	perfbench --workload sim-churn --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure's definition; the tables below mirror
// BENCHMARK.json, which a test keeps in step.
type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"setup_s", "s"},
	{"grants_per_s", "1/s"},
	{"msgs_per_grant", "msgs"},
	{"wait_p50_ms", "ms"},
	{"wait_p90_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

var perLayer = []metric{
	{"core.calls", "count"},
	{"core.ns_per_call", "ns"},
	{"core.timer_fires", "count"},
	{"core.control_msgs_per_fail", "msgs"},
	{"core.regens_per_fail", "ratio"},
	{"sim.events_per_grant", "events"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_peak", "events"},
	{"sim.allocs_per_grant", "allocs"},
	{"shard.effective_workers", "workers"},
	{"shard.imbalance", "ratio"},
	{"lockspace.states", "count"},
	{"lockspace.states_per_key", "ratio"},
	{"lockspace.unlock_p50_us", "us"},
	{"transport.mesh.envelopes_per_grant", "msgs"},
	{"transport.mesh.envelopes_per_batch", "msgs"},
	{"transport.mesh.ns_per_send", "ns"},
	{"transport.mesh.dropped", "count"},
	{"transport.session.ns_per_send", "ns"},
	{"transport.session.self_ns_per_send", "ns"},
	{"transport.session.retransmit_ratio", "ratio"},
	{"transport.session.dup_drops", "count"},
	{"transport.session.ack_timeouts", "count"},
	{"transport.tcp.frames_per_grant", "frames"},
	{"transport.tcp.ns_per_frame", "ns"},
	{"bench.trace_overhead", "ratio"},
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	spans    *spanRecorder // nil unless traced
}

// result is what a workload reports.
type result struct {
	attempted, failed int64
	// problems lists correctness failures; any makes the run fail.
	problems []string
	metrics  map[string]float64
	// detail carries sample counts, tail percentiles and raw counters
	// for the report file; it never feeds the result line.
	detail map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, detail: map[string]any{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*result, error){
	"sim-churn": simChurn,
	"sim-keyed": simKeyed,
	"live-mem":  func(o options) (*result, error) { return live(o, false) },
	"live-tcp":  func(o options) (*result, error) { return live(o, true) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: sim-churn, sim-keyed, live-mem or live-tcp")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.traced = trace == 1
	if o.traced {
		o.spans = newSpanRecorder(1 << 17)
	}

	heap := startHeapSampler()
	res, err := fn(o)
	peaks := heap.stop()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	want := endToEnd
	if o.traced {
		want = perLayer
	} else {
		res.metrics["peak_heap_mb"] = median(peaks) / (1 << 20)
		res.detail["peak_heap_run_mb"] = slices.Max(peaks) / (1 << 20)
	}
	out := map[string]map[string]any{}
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok {
			// A layer the workload does not exercise did no work there.
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}

	report := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       trace,
		"fingerprint": fingerprint(),
		"attempted":   res.attempted,
		"failed":      res.failed,
		"problems":    res.problems,
		"metrics":     out,
		"detail":      res.detail,
	}
	if err := writeOutputs(o, trace, report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: CORRECTNESS: %s\n", o.workload, p)
	}
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "report %s\n", line)
	last, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outDir holds each run's report and, for a traced run, its spans.
const outDir = ".bench_out"

func writeOutputs(o options, trace int, report map[string]any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, trace))
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if o.spans == nil {
		return nil
	}
	return o.spans.write(base + ".spans.jsonl")
}

// fingerprint identifies the host, toolchain and code a result came
// from. Outside a git checkout the build carries no revision, so the
// code is also identified by a hash of the module sources.
func fingerprint() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"git_commit":  commit,
		"source_hash": sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash hashes every .go file and go.mod under root, in path order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapSampler tracks the peak live Go heap — the bytes the latest
// garbage collection marked live — by sampling runtime/metrics, which
// does not stop the world. The live heap, unlike the heap in use, does
// not swing with where the sample falls in the collector's cycle. It
// keeps one peak per second: the peak of a whole run is the largest of
// many draws, and swings with the inputs and the collector's timing.
type heapSampler struct {
	done  chan struct{}
	wg    sync.WaitGroup
	peaks []float64 // per second, the last one partial
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		const every = 5 * time.Millisecond
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		var peak uint64
		for n := 1; ; n++ {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				h.peaks = append(h.peaks, float64(peak))
				return
			case <-tick.C:
			}
			if n%int(time.Second/every) == 0 {
				h.peaks = append(h.peaks, float64(peak))
				peak = 0
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak of each second.
func (h *heapSampler) stop() []float64 {
	close(h.done)
	h.wg.Wait()
	return h.peaks
}

// errNoSamples reports a run too short to support its tail metric.
var errNoSamples = errors.New("too few samples for the tail percentiles")
