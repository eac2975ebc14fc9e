// Command e2ebench is Pragma's end-to-end benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints
// every metric by name with its unit and sample count, followed by one
// JSON result line:
//
//	e2ebench --workload rm3d-paper --seed 1 --seconds 10 --trace 0
//
// Workloads cover the two hot paths: the regrid cycle (rm3d-paper,
// scenario-ckpt) and the serving path (serve-node, serve-fleet). With
// --trace 0 the result holds the end-to-end metrics, measured untraced;
// with --trace 1 a traced run reports the per-layer metrics instead.
// README.md in this directory documents each workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// opts are one run's settings.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// workDir is a scratch directory inside the working directory for
	// checkpoint files; removed when the run ends.
	workDir string
	log     io.Writer
}

// line is one printed measurement.
type line struct {
	name  string
	value float64
	unit  string
	note  string // sample count, percentile used, or what the value counts
}

// result is what a workload run returns.
type result struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	// metrics are the values reported in the JSON result line: the
	// end-to-end set untraced, the per-layer set traced.
	metrics map[string]line
	// extra are printed but not part of the JSON result: metrics that
	// exist on only one of the two hot paths or are too noisy to gate.
	extra []line
	// spans are the traced run's span recorders, written out at the end.
	spans []*recorder
}

func (r *result) set(name string, value float64, unit, note string) {
	if r.metrics == nil {
		r.metrics = map[string]line{}
	}
	r.metrics[name] = line{name, value, unit, note}
}

func (r *result) print(name string, value float64, unit, note string) {
	r.extra = append(r.extra, line{name, value, unit, note})
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(o opts) (*result, error)
}

var workloads = []workload{
	{"rm3d-paper", runRM3DPaper},
	{"scenario-ckpt", runScenarioCkpt},
	{"serve-node", runServeNode},
	{"serve-fleet", runServeFleet},
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rm3d-paper|scenario-ckpt|serve-node|serve-fleet")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of rm3d-paper, scenario-ckpt, serve-node, serve-fleet), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	start := time.Now()
	res, err := w.run(opts{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: dir, log: stdout})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	if err := complete(res, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	res.correct = len(res.problems) == 0
	if len(res.spans) > 0 {
		path := filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "# CHECK FAILED:", p)
	}
	printLines(stdout, res)
	fmt.Fprintf(stdout, "# attempted=%d failed=%d failed_share=%.6g wall_s=%.3f\n",
		res.attempted, res.failed, share(res.failed, res.attempted), time.Since(start).Seconds())
	out, err := resultJSON(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// writeSpans writes every recorder's spans to path as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		if err := r.writeJSONL(w); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func printLines(w io.Writer, res *result) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := res.metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %-6s %s\n", l.name, l.value, l.unit, l.note)
	}
	for _, l := range res.extra {
		fmt.Fprintf(w, "%-28s %14.6g %-6s %s (printed only)\n", l.name, l.value, l.unit, l.note)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultJSON(res *result) ([]byte, error) {
	m := make(map[string]jsonMetric, len(res.metrics))
	for n, l := range res.metrics {
		m[n] = jsonMetric{Value: l.value, Unit: l.unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, attempted, res.failed, m})
}
