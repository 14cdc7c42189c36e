// Command perfbench is the repository benchmark. It runs one workload
// per invocation and prints, as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics:
//
//	perfbench --workload paper-churn --seed 1 --seconds 10 --trace 0
//
// --seconds sets the amount of work (sized to take about that long on a
// 2-core Xeon VM), so a seed always gets the same inputs. With --trace 0
// the metrics are the end-to-end ones, measured with no per-layer
// spans; with --trace 1 they are the per-layer ones, from traced passes
// that alternate with untraced passes of the same inputs (their
// difference is reported as trace.overhead_pct). Every output is
// checked after the timed region; a failed check prints correct=false
// and exits 1. The line before the result records the host and seed.
// See NOTES.md for the workloads and what each metric should move.
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
	"sort"
	"strconv"
	"strings"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload (see NOTES.md for how each is defined per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"events_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"event_p50_us", "us"},
	{"recodings.Minim", "count/event"},
	{"recodings.CP", "count/event"},
	{"max_color.Minim", "index"},
	{"max_color.CP", "index"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"bench.timed_wall_s", "s"},
		{"engine.apply_busy_s", "s"},
		{"engine.step_self_s", "s"},
		{"engine.wall_coverage", "ratio"},
		{"event_p90_us", "us"},
		{"event_p99_us", "us"},
	}
	for _, s := range []string{"core", "cp", "bbb"} {
		m = append(m,
			metricSpec{s + ".recode_busy_s", "s"},
			metricSpec{s + ".recode_p50_us", "us"},
			metricSpec{s + ".recode_p99_us", "us"},
			metricSpec{s + ".recoded_nodes", "count/event"},
		)
	}
	return append(m,
		metricSpec{"bbb.max_color", "index"},
		metricSpec{"cluster.ship_rpc_p50_us", "us"},
		metricSpec{"cluster.ship_rpc_p99_us", "us"},
		metricSpec{"cluster.ship_rpcs_per_event", "count/event"},
		metricSpec{"cluster.ship_bytes_per_event", "B/event"},
		metricSpec{"cluster.gossip_rpcs", "count"},
		metricSpec{"cluster.primary_tick_gap_max_ms", "ms"},
		metricSpec{"serve.apply_p50_us", "us"},
		metricSpec{"serve.apply_p99_us", "us"},
		metricSpec{"serve.fsync_p50_us", "us"},
		metricSpec{"serve.fsyncs_per_event", "count/event"},
		metricSpec{"serve.wal_bytes_per_event", "B/event"},
		metricSpec{"serve.view_publishes_per_event", "count/event"},
		metricSpec{"serve.backpressure_retries", "count"},
		metricSpec{"loadgen.write_ack_p50_ms", "ms"},
		metricSpec{"loadgen.write_ack_p99_ms", "ms"},
		metricSpec{"loadgen.read_p50_ms", "ms"},
		metricSpec{"loadgen.read_p99_ms", "ms"},
		metricSpec{"loadgen.late_p99_ms", "ms"},
		metricSpec{"loadgen.fail_ratio", "ratio"},
		metricSpec{"trace.overhead_pct", "%"},
	)
}()

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// dir is where workloads may write (the cluster's WAL roots).
	dir string
	// corrupt flips one engine-hosted color before the output checks;
	// the tests use it to prove the checks bite.
	corrupt bool
}

// outcome is what a workload reports: metric values by name, operation
// counts, and the first failed output check (nil when all passed).
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	checkErr          error
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"paper-churn":       func(c runConfig) (*outcome, error) { return runInproc(paperChurn, c) },
	"large-incremental": func(c runConfig) (*outcome, error) { return runInproc(largeIncremental, c) },
	"cluster-rw":        func(c runConfig) (*outcome, error) { return runClusterRW(clusterRW, c) },
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

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, false)) }

// realMain runs the benchmark and returns the exit code: 0 when every
// output check passed, 1 when one failed (after printing the result
// with correct=false), 2 on a usage or set-up error (no result).
func realMain(args []string, stdout, stderr io.Writer, corrupt bool) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: paper-churn, large-incremental or cluster-rw")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 20, "work to measure, in seconds of this benchmark's reference host")
	traced := fl.Int("trace", 0, "1 = per-layer metrics from traced passes")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	scratch := filepath.Join(wd, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, dir: dir, corrupt: corrupt}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok && !cfg.trace && out.checkErr == nil {
			fmt.Fprintf(stderr, "perfbench: %s did not report %s\n", *name, s.name)
			return 2
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", *name, out.checkErr)
	}
	host, _ := json.Marshal(hostFingerprint(*name, *seed, cfg.trace))
	fmt.Fprintf(stdout, "# host %s\n", host)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// hostFingerprint identifies what produced a result: the machine, the
// toolchain, the source revision and the workload seed.
func hostFingerprint(name string, seed uint64, traced bool) map[string]interface{} {
	return map[string]interface{}{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
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

// commit is the VCS revision stamped into the binary, or — when it was
// built outside a git checkout — a digest of the Go sources it was
// built from (the working directory's module tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
